//! The benchmark's own checks: its output checks can fail, its traced run
//! repeats exactly, and its metric names are the ones `BENCHMARK.json`
//! declares. Run with `cargo test --release` from this directory.

use tls_hostbench::{mode_key, per_layer, run, Config, Report, Workload, END_TO_END};

/// A short `fuzz_diff` run: one pass over `seeds` programs.
fn fuzz(seeds: u64, trace: bool, break_forwarding: bool) -> Report {
    let mut cfg = Config::new(Workload::FuzzDiff, 1, 0.0, trace);
    cfg.fuzz_seeds = seeds;
    cfg.break_forwarding = break_forwarding;
    run(&cfg).expect("fuzz_diff sets up")
}

#[test]
fn broken_forwarding_makes_fuzz_diff_fail() {
    let healthy = fuzz(8, false, false);
    assert!(healthy.correct(), "{healthy}");
    assert_eq!(healthy.failed_frac(), 0.0);

    let broken = fuzz(8, false, true);
    assert!(broken.failed_frac() > 0.0, "no op failed:\n{broken}");
    assert!(!broken.correct());
    assert!(broken.json().starts_with("{\"correct\": false,"));
}

#[test]
fn traced_run_repeats_its_exact_counts_and_digest() {
    let exact = |r: &Report| -> Vec<(String, f64)> {
        r.metrics
            .iter()
            .filter(|m| m.unit == "count" || m.unit == "ratio")
            .map(|m| (m.name.clone(), m.value))
            .collect()
    };
    let a = fuzz(6, true, false);
    let b = fuzz(6, true, false);
    assert!(a.correct() && b.correct(), "{a}\n{b}");
    assert_eq!(a.digest, b.digest);
    assert_eq!(exact(&a), exact(&b));
    assert!(a.metric("sim.instructions").unwrap() > 0.0);
    assert!(a.metric("core.regions").unwrap() > 0.0);
    assert!(a.metric("sim.l1_hits").unwrap() > 0.0);
    // Every span belongs to an op, and children point at earlier spans.
    assert!(a.spans.iter().all(|s| s.parent.is_none_or(|p| p < s.id)));
    assert!(a.spans.iter().any(|s| s.name == "core.compile_all"));
}

/// The `"name"` values of one section of `BENCHMARK.json`, with units
/// where the entries have them.
fn section(json: &str, key: &str, next: Option<&str>) -> Vec<(String, Option<String>)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let end = next.map_or(json.len(), |n| {
        json.find(&format!("\"{n}\"")).expect("next section")
    });
    let quoted = |s: &str, field: &str| -> Option<String> {
        let at = s.find(&format!("\"{field}\""))?;
        let rest = &s[at + field.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = rest[open..].find('"')? + open;
        Some(rest[open..close].to_string())
    };
    json[start..end]
        .split('{')
        .skip(1)
        .filter_map(|entry| Some((quoted(entry, "name")?, quoted(entry, "unit"))))
        .collect()
}

#[test]
fn metric_names_are_the_ones_benchmark_json_declares() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };

    let workloads: Vec<String> = section(&json, "workloads", Some("end_to_end"))
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let declared = section(&json, "end_to_end", Some("per_layer"));
    let emitted: Vec<(String, Option<String>)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), Some(u.to_string())))
        .collect();
    assert_eq!(declared, emitted);

    let declared = section(&json, "per_layer", None);
    let emitted: Vec<(String, Option<String>)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, Some(u.to_string())))
        .collect();
    assert_eq!(declared, emitted);

    let all_names = END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(per_layer().into_iter().map(|(n, _)| n));
    for name in all_names {
        assert!(valid(&name), "bad metric name {name}");
    }
    assert_eq!(mode_key("O>25%"), "Ogt25");
    assert_eq!(mode_key("B+"), "Bplus");

    // A run emits exactly the declared metrics, in order.
    let traced = fuzz(2, true, false);
    let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
    let listed: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, listed);
    let untraced = fuzz(2, false, false);
    let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name.as_str()).collect();
    let listed: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, listed);
}
