//! Figure 16 (beyond the paper) harness: throughput timeline across a
//! live 2→4 reshard on the sharded cache, with fig13-style request
//! imbalance before and after.

fn main() {
    let cfg = bench::RunConfig::from_env();
    let report = bench::experiments::fig16_reshard(&cfg);
    print!("{}", bench::report::render_text(&report));
}
