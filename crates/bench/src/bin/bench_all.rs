//! The one binary of the harness: runs the experiment registry (Table 1,
//! Figures 5–11, and the beyond-paper shard, skew and elasticity
//! sweeps), prints each experiment's text table, and writes the
//! machine-readable `BENCH_results.json`.
//!
//! Sizing follows the usual knobs: CI-sized by default, `FULL=1` for
//! paper-sized element counts, `SMOKE=1` for a seconds-long smoke run
//! (what the CI `bench-report` job uses). See BENCHMARKS.md for the
//! schema and the methodology.
//!
//! # Options
//!
//! * `--only <id,id,...>` — run a subset of the registry (ids as in
//!   `BENCH_results.json`, e.g. `fig5,fig10`) and print its tables. A
//!   subset run writes a file only when `--out` names one; an unknown id
//!   exits 2 before anything runs.
//! * `--out <file>` — where to write the JSON (a full run defaults to
//!   `BENCH_results.json` in the current directory).
//! * `--record <results.json> --pr <n>` — run nothing; append one line
//!   to `BENCH_history.jsonl` holding the end-to-end metrics of a full
//!   run of the `benchmark/` package (its `out/results.json`). A file
//!   missing any workload or metric of `BENCHMARK.json` is refused.

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use bench::report::{git_rev, history_line, render_text, BenchResults, Json};
use bench::{experiments, RunConfig};

fn usage() -> ! {
    eprintln!(
        "usage: bench_all [--only <id,..>] [--out <file>] | --record <results.json> --pr <n>"
    );
    std::process::exit(2)
}

/// Where a full run writes when `--out` is absent.
const DEFAULT_OUT: &str = "BENCH_results.json";

/// The append-only per-PR record `--record` writes to, in the current
/// directory (the repository root under `cargo run`).
const HISTORY_PATH: &str = "BENCH_history.jsonl";

/// `--record`: one line of `BENCH_history.jsonl` from `results_path`.
fn record(results_path: &str, pr: u64) -> Result<(), String> {
    let text = std::fs::read_to_string(results_path)
        .map_err(|e| format!("cannot read {results_path}: {e}"))?;
    let results = Json::parse(&text).map_err(|e| format!("{results_path}: {e}"))?;
    let line = history_line(&results, pr, results_path, &git_rev())
        .map_err(|e| format!("{results_path}: {e}"))?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY_PATH)
        .and_then(|mut f| writeln!(f, "{}", line.render_compact()))
        .map_err(|e| format!("cannot append to {HISTORY_PATH}: {e}"))
}

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut only: Option<Vec<String>> = None;
    let mut record_path: Option<String> = None;
    let mut pr: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--out" => out_path = Some(value("--out")),
            "--only" => {
                only = Some(value("--only").split(',').map(|s| s.trim().to_string()).collect())
            }
            "--record" => record_path = Some(value("--record")),
            "--pr" => {
                pr = Some(value("--pr").parse().unwrap_or_else(|_| {
                    eprintln!("--pr takes a PR number");
                    usage()
                }))
            }
            _ => usage(),
        }
    }

    match (record_path, pr) {
        (Some(path), Some(pr)) if only.is_none() && out_path.is_none() => {
            return match record(&path, pr) {
                Ok(()) => {
                    println!("[bench_all] appended PR {pr} to {HISTORY_PATH}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("[bench_all] {e}");
                    ExitCode::from(2)
                }
            };
        }
        (None, None) => {}
        _ => usage(),
    }

    if let Some(only) = &only {
        let known: Vec<&str> = experiments::registry().iter().map(|s| s.id).collect();
        for id in only {
            if !known.contains(&id.as_str()) {
                eprintln!(
                    "[bench_all] unknown experiment id '{id}' in --only (known: {})",
                    known.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    // A subset is for reading on the terminal: it writes only where told
    // to, so it can never leave a partial document at the default path.
    let out_path = out_path.or_else(|| only.is_none().then(|| DEFAULT_OUT.to_string()));

    let cfg = RunConfig::from_env();
    eprintln!(
        "[bench_all] scale: {}  (REPEATS={} MEASURE_MS={})",
        if cfg.full {
            "FULL (paper-sized)"
        } else if cfg.smoke {
            "SMOKE"
        } else {
            "CI-sized"
        },
        cfg.repeats,
        cfg.measure_ms
    );

    let mut reports = Vec::new();
    for spec in experiments::registry() {
        if let Some(only) = &only {
            if !only.iter().any(|id| id == spec.id) {
                continue;
            }
        }
        eprintln!("[bench_all] running {} — {}", spec.id, spec.title);
        let t = Instant::now();
        let report = (spec.run)(&cfg);
        eprintln!("[bench_all] {} done in {:.1}s", spec.id, t.elapsed().as_secs_f64());
        print!("{}", render_text(&report));
        println!();
        reports.push(report);
    }

    if let Some(out_path) = out_path {
        let results = BenchResults::collect(cfg.knobs(), reports);
        if let Err(e) = std::fs::write(&out_path, results.to_json().render_pretty()) {
            eprintln!("[bench_all] failed to write {out_path}: {e}");
            return ExitCode::from(2);
        }
        println!("[bench_all] wrote {out_path}");
    }
    ExitCode::SUCCESS
}
