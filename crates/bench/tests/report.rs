//! Tests of the structured reporting layer: JSON round-trips and
//! escaping, the schema shape of a real (CI-sized) `fig5` report, and
//! the per-PR history — every committed `BENCH_history.jsonl` line is
//! whole, and `bench_all --record`'s builder refuses a `results.json`
//! that is not.

use bench::report::{
    history_line, render_text, BenchResults, Json, HISTORY_METRICS, HISTORY_WORKLOADS,
    SCHEMA_VERSION,
};
use bench::{experiments, RunConfig};

// ---------------------------------------------------------------------------
// JSON serializer/parser
// ---------------------------------------------------------------------------

#[test]
fn json_round_trips_structures() {
    let doc = Json::Obj(vec![
        ("null".into(), Json::Null),
        ("bools".into(), Json::Arr(vec![Json::Bool(true), Json::Bool(false)])),
        ("num".into(), Json::Num(-12.5)),
        ("int".into(), Json::Num(4_194_304.0)),
        ("big".into(), Json::Num(9_007_199_254_740_991.0)), // 2^53 - 1, exact
        ("str".into(), Json::Str("plain".into())),
        ("nested".into(), Json::Obj(vec![("empty_arr".into(), Json::Arr(vec![]))])),
        ("empty_obj".into(), Json::Obj(vec![])),
    ]);
    for text in [doc.render_pretty(), doc.render_compact()] {
        assert_eq!(Json::parse(&text).expect("own output parses"), doc, "round-trip of {text}");
    }
}

#[test]
fn json_escapes_and_unescapes_strings() {
    let nasty = "quote\" backslash\\ newline\n tab\t cr\r bell\u{07} nul\u{0} unicode→é 👍";
    let doc = Json::Obj(vec![(nasty.to_string(), Json::Str(nasty.to_string()))]);
    let text = doc.render_compact();
    // Control characters must be escaped, never emitted raw.
    assert!(!text.contains('\n') && !text.contains('\u{07}') && !text.contains('\u{0}'));
    assert!(text.contains("\\n") && text.contains("\\\"") && text.contains("\\\\"));
    assert_eq!(Json::parse(&text).expect("escaped output parses"), doc);
}

#[test]
fn json_parses_foreign_escapes() {
    // Escapes another producer might emit but our writer does not:
    // \/ and \uXXXX (including a surrogate pair).
    let parsed = Json::parse(r#"{"s": "a\/b é 👍", "e": 1.5e3}"#).unwrap();
    assert_eq!(parsed.get("s").and_then(Json::as_str), Some("a/b é 👍"));
    assert_eq!(parsed.get("e").and_then(Json::as_f64), Some(1500.0));
}

#[test]
fn json_nonfinite_numbers_degrade_to_null() {
    let doc = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY), Json::Num(1.0)]);
    assert_eq!(doc.render_compact(), "[null,null,1]");
}

#[test]
fn json_rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "tru",
        "\"unterminated",
        "1 2",
        "{\"a\":1} trailing",
        "\"bad \\q escape\"",
        "\"unpaired \\ud800 surrogate\"",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted malformed input {bad:?}");
    }
}

#[test]
fn json_number_formatting_is_integer_clean() {
    // Counters serialize without a fractional tail, and floats survive
    // a round-trip bit-exactly.
    assert_eq!(Json::Num(31742.0).render_compact(), "31742");
    let v = 2502400.123456789_f64;
    let back = Json::parse(&Json::Num(v).render_compact()).unwrap();
    assert_eq!(back.as_f64(), Some(v));
}

// ---------------------------------------------------------------------------
// Report schema shape on a real experiment
// ---------------------------------------------------------------------------

/// Runs the real fig5 experiment at smoke-test scale and checks the
/// shape every consumer of `BENCH_results.json` relies on.
#[test]
fn fig5_report_has_the_documented_schema_shape() {
    let cfg = RunConfig::smoke_test();
    let report = experiments::fig5(&cfg);
    assert_eq!(report.id, "fig5");
    assert!(!report.measurements.is_empty());

    let results = BenchResults::collect(cfg.knobs(), vec![report.clone()]);
    let text = results.to_json().render_pretty();
    let doc = Json::parse(&text).expect("emitted document parses");

    assert_eq!(doc.get("schema_version").and_then(Json::as_f64), Some(SCHEMA_VERSION as f64));
    assert!(doc.get("git_rev").and_then(Json::as_str).is_some());
    let knobs = doc.get("knobs").expect("knobs object");
    assert_eq!(knobs.get("SMOKE").and_then(Json::as_str), Some("1"));

    let experiments = doc.get("experiments").and_then(Json::as_arr).expect("experiments array");
    assert_eq!(experiments.len(), 1);
    let fig5 = &experiments[0];
    assert_eq!(fig5.get("id").and_then(Json::as_str), Some("fig5"));
    assert!(fig5.get("title").and_then(Json::as_str).is_some());
    assert!(fig5.get("axes").and_then(Json::as_str).is_some());

    let ms = fig5.get("measurements").and_then(Json::as_arr).expect("measurements array");
    assert_eq!(ms.len(), report.measurements.len());
    for m in ms {
        let label = m.get("label").and_then(Json::as_str).expect("label");
        for key in [
            "structure",
            "threads",
            "size",
            "latency_ns",
            "median_throughput",
            "baseline_throughput",
            "ratio",
        ] {
            assert!(m.get(key).is_some(), "fig5 row {label} lacks {key}");
        }
        let median = m.get("median_throughput").and_then(Json::as_f64).unwrap();
        assert!(median > 0.0, "row {label} measured nothing");
        let repeats = m.get("repeat_throughputs").and_then(Json::as_arr).expect("repeats");
        assert_eq!(repeats.len(), cfg.repeats);
        let flush = m.get("flush").expect("flush stats");
        let syncs = flush.get("sync_batches").and_then(Json::as_f64).unwrap();
        let fences = flush.get("fences").and_then(Json::as_f64).unwrap();
        assert!(syncs > 0.0, "a durable run must fence ({label})");
        assert!(fences >= syncs, "sync batches are a subset of fences ({label})");
        let ratio = m.get("ratio").and_then(Json::as_f64).unwrap();
        let base = m.get("baseline_throughput").and_then(Json::as_f64).unwrap();
        assert!((ratio - median / base).abs() < 1e-9, "ratio is median/baseline ({label})");
    }

    // The human-readable rendering is a view of the same report: every
    // label appears in it.
    let rendered = render_text(&report);
    for m in &report.measurements {
        assert!(rendered.contains(&m.label), "render_text dropped {}", m.label);
    }
}

/// Runs the real fig12 shard sweep at smoke-test scale: one row per
/// shard count from the `SHARDS` knob, each with a throughput, a
/// `shards` metric, and a parallel-recovery time.
#[test]
fn fig12_report_sweeps_the_configured_shard_counts() {
    let cfg = RunConfig::smoke_test();
    let report = experiments::fig12_shards(&cfg);
    assert_eq!(report.id, "fig12_shards");
    let want: Vec<usize> = cfg.shard_counts();
    assert_eq!(want, vec![1, 2], "smoke_test sweeps shard counts {{1, 2}}");
    assert_eq!(report.measurements.len(), want.len());
    for (m, n) in report.measurements.iter().zip(&want) {
        assert_eq!(m.label, format!("shards={n} range={}", m.size.unwrap()));
        let metrics: std::collections::HashMap<&str, f64> =
            m.metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(metrics["shards"], *n as f64);
        assert!(m.median_throughput.unwrap() > 0.0, "shards={n} measured nothing");
        assert_eq!(m.repeat_throughputs.len(), cfg.repeats);
        assert!(metrics["recovery_ms"] >= 0.0);
        let flush = m.flush.expect("durable run reports flush stats");
        assert!(flush.fences > 0, "a durable run must fence");
    }
}

// ---------------------------------------------------------------------------
// BENCH_history.jsonl
// ---------------------------------------------------------------------------

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The 5 workloads x 6 end-to-end metrics the history keeps are the
/// ones `BENCHMARK.json` declares, in its order.
#[test]
fn history_tracks_the_benchmark_contract() {
    let contract = Json::parse(&repo_file("BENCHMARK.json")).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        let entries = contract.get(key).and_then(Json::as_arr).expect("array in the contract");
        entries.iter().map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
    };
    assert_eq!(names("workloads"), HISTORY_WORKLOADS);
    assert_eq!(names("end_to_end"), HISTORY_METRICS);
}

/// Every committed line: a PR number, where the numbers came from, and
/// 5 workloads x 6 finite numbers.
#[test]
fn every_committed_history_line_is_whole() {
    let history = repo_file("BENCH_history.jsonl");
    let mut prs = Vec::new();
    for (i, text) in history.lines().enumerate() {
        let line = Json::parse(text).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        prs.push(line.get("pr").and_then(Json::as_f64).expect("pr number"));
        assert!(
            line.get("source").and_then(Json::as_str).is_some(),
            "line {} has no source",
            i + 1
        );
        for w in HISTORY_WORKLOADS {
            for m in HISTORY_METRICS {
                let v = line.get("workloads").and_then(|ws| ws.get(w)?.get(m)?.as_f64());
                assert!(v.is_some_and(f64::is_finite), "line {}: no finite {w}.{m}", i + 1);
            }
        }
    }
    assert!(prs.len() >= 2, "the seed line and at least one recorded PR");
    assert!(prs.windows(2).all(|p| p[0] < p[1]), "append-only, one line per PR: {prs:?}");
}

/// The text of a `benchmark/out/results.json` with every workload and
/// metric but `skip` (`"<workload>"` or `"<workload>.<metric>"`), each
/// value derived from its position so a mix-up would show.
fn results_fixture(skip: &str) -> String {
    let mut workloads = Vec::new();
    for (wi, w) in HISTORY_WORKLOADS.iter().enumerate().filter(|(_, w)| **w != skip) {
        let metrics: Vec<String> = HISTORY_METRICS
            .iter()
            .enumerate()
            .filter(|(_, m)| format!("{w}.{m}") != skip)
            .map(|(mi, m)| format!(r#""{m}": {{"value": {}.5, "unit": "u"}}"#, 10 * wi + mi))
            .collect();
        workloads.push(format!(
            r#""{w}": {{"end_to_end": {{"failed": 0, "metrics": {{{}}}}}}}"#,
            metrics.join(", ")
        ));
    }
    format!(
        r#"{{"seed": 1, "seconds": 10, "cpus": 2, "nvram_write_ns": 125, "workloads": {{{}}}}}"#,
        workloads.join(", ")
    )
}

fn record(results: &str) -> Result<Json, String> {
    history_line(&Json::parse(results).expect("fixture parses"), 22, "out/results.json", "abc1234")
}

#[test]
fn history_line_copies_all_thirty_numbers_and_the_host_stamp() {
    let line = record(&results_fixture("")).expect("whole");
    assert_eq!(line.get("pr").and_then(Json::as_f64), Some(22.0));
    assert_eq!(line.get("source").and_then(Json::as_str), Some("out/results.json"));
    assert_eq!(line.get("git_rev").and_then(Json::as_str), Some("abc1234"));
    assert_eq!(line.get("cpus").and_then(Json::as_f64), Some(2.0));
    assert_eq!(line.get("nvram_write_ns").and_then(Json::as_f64), Some(125.0));
    let restart_rss =
        line.get("workloads").and_then(|ws| ws.get("restart")?.get("peak_rss_mb")?.as_f64());
    assert_eq!(restart_rss, Some(45.5));
    // One line of JSONL: the compact rendering carries no newline.
    assert!(!line.render_compact().contains('\n'));
}

#[test]
fn history_line_rejects_a_missing_workload_or_metric() {
    let err = record(&results_fixture("store_churn")).expect_err("store_churn is gone");
    assert!(err.contains("store_churn"), "{err}");
    let err = record(&results_fixture("wire_get.p50_us")).expect_err("wire_get.p50_us is gone");
    assert!(err.contains("wire_get.p50_us"), "{err}");
    let no_stamp = results_fixture("").replace(r#""cpus": 2, "#, "");
    assert!(record(&no_stamp).is_err(), "the host stamp is part of the line");
}
