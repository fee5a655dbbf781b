//! The repo's benchmark: five workloads, seven end-to-end metrics, a
//! per-layer ladder. README.md beside this crate says what and why;
//! BENCHMARK.json at the repo root is the contract.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run in this process; the last line of stdout is the result
//! benchmark [--seed N] [--seconds S] [--trace]
//!     every workload, each in a fresh child process; writes
//!     out/results.json
//! benchmark --selfcheck [--seed N] [--seconds S]
//!     the full set twice; fails if an end-to-end metric differs by
//!     more than its bound in BENCHMARK.json
//! ```

mod gen;
mod hist;
mod json;
mod ladder;
mod loadgen;
mod matcher;
mod proc;
mod rig;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Value;
use workloads::{Outcome, Workload, ALL};

const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1, seconds: DEFAULT_SECONDS, trace: false, selfcheck: false };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            // `--trace 1`, `--trace 0`, or bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        args.trace = true;
                        continue;
                    }
                };
                it.next();
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The crate's own directory: `cargo run` exports it; a bare binary
/// falls back to where it was built.
fn crate_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => match ALL.iter().find(|w| w.name == name) {
            Some(w) => run_one(w, &args),
            None => Err(format!("unknown workload {name}")),
        },
        None if args.selfcheck => selfcheck(&args),
        None => run_all(&args).map(drop),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in this process. Prints every metric by name with its
/// unit, then the result object as the last line.
fn run_one(w: &Workload, args: &Args) -> Result<(), String> {
    println!(
        "# {} seed {} for {} s, {}; server and load generator in one process over loopback \
         TCP, {} CPU(s), simulated NVRAM write {} ns",
        w.name,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rig::NVRAM_WRITE_NS,
    );
    let out: Outcome = if args.trace {
        ladder::run(w, args.seed, args.seconds, &crate_dir().join("out"))
    } else {
        workloads::run(w, args.seed, args.seconds)
    };
    for m in &out.metrics {
        println!("{:32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("{:32} {:>16} of {} checked operations", "failed", out.failed, out.attempted);
    if let Some(why) = &out.invalid {
        return Err(format!("invalid run, not a slow one: {why}"));
    }
    let metrics = out.metrics.iter().map(|m| {
        (m.name, Value::obj([("value", Value::Num(m.value)), ("unit", Value::Str(m.unit.into()))]))
    });
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(out.failed == 0)),
            ("attempted", Value::Num(out.attempted as f64)),
            ("failed", Value::Num(out.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    );
    if out.failed > 0 {
        return Err(format!("{} of {} checked operations failed", out.failed, out.attempted));
    }
    Ok(())
}

/// Runs one workload in a fresh child process (so peak RSS and
/// allocator state do not depend on what ran before) and returns its
/// result object.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, result) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    if !output.status.success() {
        print!("{stdout}");
        return Err(format!(
            "{} failed: {}",
            w.name,
            String::from_utf8_lossy(&output.stderr).trim_end()
        ));
    }
    println!("{report}");
    Value::parse(result).map_err(|e| format!("{}: {e}", w.name))
}

/// Every workload once (and once more traced, if asked). Writes
/// `out/results.json` and returns what it wrote.
fn run_all(args: &Args) -> Result<Value, String> {
    let mut workloads = Vec::new();
    for w in &ALL {
        let mut fields = vec![("end_to_end".to_string(), run_child(w, args, false)?)];
        if args.trace {
            fields.push(("per_layer".to_string(), run_child(w, args, true)?));
        }
        workloads.push((w.name.to_string(), Value::Obj(fields)));
    }
    let results = Value::obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("cpus", Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)),
        ("nvram_write_ns", Value::Num(rig::NVRAM_WRITE_NS as f64)),
        ("workloads", Value::Obj(workloads)),
    ]);
    let dir = crate_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("results.json");
    std::fs::write(&path, format!("{results}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok(results)
}

/// A/A: the full set twice on the same build. Every end-to-end metric
/// of the second must be within its bound of the first, in the
/// direction BENCHMARK.json calls worse.
fn selfcheck(args: &Args) -> Result<(), String> {
    let path = crate_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let contract = Value::parse(&text)?;
    let (a, b) = (run_all(args)?, run_all(args)?);
    let value = |run: &Value, workload: &str, metric: &str| {
        run.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    println!("# A/A: second run against the first, worse direction positive");
    println!(
        "{:16} {:24} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse%", "bound%"
    );
    let mut over = 0;
    for w in &ALL {
        for m in contract.get("end_to_end").map_or(&[][..], Value::as_arr) {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("");
            let (name, bound) =
                (field("name"), m.get("bound").and_then(Value::as_f64).unwrap_or(0.0));
            let (Some(first), Some(second)) = (value(&a, w.name, name), value(&b, w.name, name))
            else {
                return Err(format!("{}: no value for {name}", w.name));
            };
            let sign = if field("better") == "higher" { -1.0 } else { 1.0 };
            let worse = sign * (second - first) / first;
            let flag = if worse > bound {
                over += 1;
                "  OVER"
            } else {
                ""
            };
            println!(
                "{:16} {:24} {first:>14.4} {second:>14.4} {:>8.2} {:>6.1}{flag}",
                w.name,
                name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if over > 0 {
        return Err(format!(
            "{over} metric(s) differ between two runs of the same build by more than their bound"
        ));
    }
    Ok(())
}
