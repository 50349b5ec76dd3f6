//! Golden snapshots of every figure/table at Quick scale, plus the
//! simulator's exact per-run numbers.
//!
//! The committed JSON under `tests/golden/` is the exact `repro <target>
//! --quick --out` payload; any change to the pipeline, the simulator or
//! the table rendering that shifts a number shows up as a byte diff here.
//! The figures round to two decimals, so `sim_stats.json` also pins the
//! unrounded counts of every quick program under every mode: a change that
//! moves a single simulated cycle fails here even when no figure moves.
//! Refresh intentionally with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

use tls_repro::experiments::{figures, Harness, Scale, MODES};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Every workload prepared at Quick scale, shared by both snapshot tests.
fn harnesses() -> &'static [Harness] {
    static HARNESSES: OnceLock<Vec<Harness>> = OnceLock::new();
    HARNESSES.get_or_init(|| {
        Harness::prepare_all(&tls_repro::workloads::all(), Scale::Quick).expect("prepare workloads")
    })
}

/// Compare `want` with the golden file `name`, or rewrite it under
/// `UPDATE_GOLDEN`; returns whether the committed copy is stale.
fn stale(name: &str, want: &str) -> bool {
    let dir = golden_dir();
    let path = dir.join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        std::fs::write(&path, want).expect("write golden");
        return false;
    }
    let got = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} unreadable ({e}); run UPDATE_GOLDEN=1", path.display()));
    got != want
}

#[test]
fn figures_match_golden_snapshots() {
    let harnesses = harnesses();
    let mut stale_targets: Vec<String> = Vec::new();
    for target in figures::TARGETS {
        let table = figures::by_name(target, harnesses)
            .expect("known target")
            .unwrap_or_else(|e| panic!("{target} failed: {e}"));
        if stale(&format!("{target}.json"), &format!("{}\n", table.to_json())) {
            stale_targets.push(target.to_string());
        }
    }
    assert!(
        stale_targets.is_empty(),
        "golden snapshots differ for {stale_targets:?}; inspect the diff and refresh \
         with UPDATE_GOLDEN=1 cargo test --test golden"
    );
}

#[test]
fn simulator_numbers_match_golden_snapshot() {
    // One line per (program, mode): a shifted count names its run in the
    // diff.
    let mut want = String::from("[\n");
    let mut first = true;
    for h in harnesses() {
        for mode in MODES {
            let r = h
                .run(mode)
                .unwrap_or_else(|e| panic!("{} {} failed: {e}", h.name, mode.label()));
            let epochs: u64 = r.regions.values().map(|s| s.epochs).sum();
            if !first {
                want.push_str(",\n");
            }
            first = false;
            write!(
                want,
                "  {{\"program\": \"{}\", \"mode\": \"{}\", \"total_cycles\": {}, \
                 \"instructions\": {}, \"epochs\": {}, \"total_violations\": {}, \
                 \"max_signal_buffer\": {}}}",
                h.name,
                mode.label(),
                r.total_cycles,
                r.instructions,
                epochs,
                r.total_violations,
                r.max_signal_buffer
            )
            .expect("write to String");
        }
    }
    want.push_str("\n]\n");
    assert!(
        !stale("sim_stats.json", &want),
        "tests/golden/sim_stats.json differs; inspect the diff and refresh \
         with UPDATE_GOLDEN=1 cargo test --test golden"
    );
}
