//! Counter/trace consistency: the machine-counter bank must agree with an
//! independent replay of the recorded event stream.
//!
//! The counter bank is itself a tracer that folds the event stream, so for
//! every fuzz-generated program and every mode the totals a counted run
//! publishes in [`MachineCounters`] must equal what this file's own cold
//! replay of a separately recorded run of the same mode counts: violations
//! by cause, signal sends by flavour, signal receives, wait episodes by
//! kind, line evictions, speculative stores and loads, commit writes, epoch
//! commits and squashes, predicted loads, adaptive policy transitions by
//! target policy, and bulk re-profiles. A mismatch means the bank folds an
//! event wrongly, or that counting perturbed the run.
//!
//! The 20-seed matrix is split across four `#[test]` functions so the
//! harness runs the chunks on separate test threads.

use tls_repro::experiments::{fuzz::FuzzConfig, Harness, MODES};
use tls_repro::ir::generate;
use tls_repro::sim::{
    MachineCounters, RecordingTracer, SignalKind, TraceEvent, ViolationKind, WaitKind,
};

/// Replay totals accumulated from a recorded event stream.
#[derive(Debug, Default, PartialEq, Eq)]
struct Replay {
    violations: [u64; 4],
    sends_scalar: u64,
    sends_mem: u64,
    sends_mem_null: u64,
    recvs_scalar: u64,
    recvs_mem: u64,
    waits_scalar: u64,
    waits_mem: u64,
    waits_oldest: u64,
    evictions: u64,
    spec_evictions: u64,
    spec_stores: u64,
    spec_loads_exposed: u64,
    spec_loads_buffered: u64,
    commit_writes: u64,
    commits: u64,
    squashes: u64,
    predicted_loads: u64,
    policy_transitions: [u64; 3],
    reprofiles: u64,
}

fn violation_slot(kind: ViolationKind) -> usize {
    match kind {
        ViolationKind::Eager => 0,
        ViolationKind::CommitTime => 1,
        ViolationKind::Resignal => 2,
        ViolationKind::Mispredict => 3,
    }
}

impl Replay {
    fn of(events: &[TraceEvent]) -> Replay {
        let mut r = Replay::default();
        for e in events {
            match e {
                TraceEvent::Violation { kind, .. } => r.violations[violation_slot(*kind)] += 1,
                TraceEvent::SignalSend { kind, .. } => match kind {
                    SignalKind::Scalar(_) => r.sends_scalar += 1,
                    SignalKind::Mem(_) => r.sends_mem += 1,
                    SignalKind::MemNull(_) => r.sends_mem_null += 1,
                },
                TraceEvent::SignalRecv { kind, .. } => match kind {
                    SignalKind::Scalar(_) => r.recvs_scalar += 1,
                    SignalKind::Mem(_) | SignalKind::MemNull(_) => r.recvs_mem += 1,
                },
                TraceEvent::WaitBegin { kind, .. } => match kind {
                    WaitKind::Scalar(_) => r.waits_scalar += 1,
                    WaitKind::Mem(_) => r.waits_mem += 1,
                    WaitKind::Oldest => r.waits_oldest += 1,
                },
                TraceEvent::LineEvict { speculative, .. } => {
                    r.evictions += 1;
                    if *speculative {
                        r.spec_evictions += 1;
                    }
                }
                TraceEvent::SpecStore { .. } => r.spec_stores += 1,
                TraceEvent::SpecLoad { exposed, .. } => {
                    if *exposed {
                        r.spec_loads_exposed += 1;
                    } else {
                        r.spec_loads_buffered += 1;
                    }
                }
                TraceEvent::CommitWrite { .. } => r.commit_writes += 1,
                TraceEvent::EpochCommit { .. } => r.commits += 1,
                TraceEvent::EpochSquash { .. } => r.squashes += 1,
                TraceEvent::PredictedLoad { .. } => r.predicted_loads += 1,
                TraceEvent::PolicyTransition { to, .. } => {
                    r.policy_transitions[to.index()] += 1;
                }
                TraceEvent::Reprofile { .. } => r.reprofiles += 1,
                _ => {}
            }
        }
        r
    }

    fn of_counters(c: &MachineCounters) -> Replay {
        Replay {
            violations: c.violations,
            sends_scalar: c.signal_sends_scalar,
            sends_mem: c.signal_sends_mem,
            sends_mem_null: c.signal_sends_mem_null,
            recvs_scalar: c.signal_recvs_scalar,
            recvs_mem: c.signal_recvs_mem,
            waits_scalar: c.waits_scalar,
            waits_mem: c.waits_mem,
            waits_oldest: c.waits_oldest,
            evictions: c.line_evictions,
            spec_evictions: c.spec_line_evictions,
            spec_stores: c.spec_stores,
            spec_loads_exposed: c.spec_loads_exposed,
            spec_loads_buffered: c.spec_loads_buffered,
            commit_writes: c.commit_writes,
            commits: c.epochs_committed,
            squashes: c.epochs_squashed,
            predicted_loads: c.predicted_loads,
            policy_transitions: c.policy_transitions,
            reprofiles: c.reprofiles,
        }
    }

    fn activity(&self) -> u64 {
        self.spec_stores + self.commits + self.sends_scalar + self.sends_mem
    }
}

/// Run `seeds` through the full mode matrix, once counted and once
/// recorded, and require the published counter bank to equal the replay
/// of the recorded stream.
fn check_seeds(seeds: std::ops::RangeInclusive<u64>) {
    let cfg = FuzzConfig::default();
    let mut activity = 0u64;
    for seed in seeds {
        let measure = generate(seed, &cfg.gen, 0);
        let train = generate(seed, &cfg.gen, 1);
        let mut h = Harness::from_modules("fuzz", &measure, Some(&train), &cfg.compile_options())
            .unwrap_or_else(|e| panic!("seed {seed} failed to prepare: {e}"));
        h.base.max_steps = cfg.max_sim_steps;
        for &mode in MODES.iter() {
            let counted = h
                .run_counted(mode)
                .unwrap_or_else(|e| panic!("seed {seed}/{} counted: {e}", mode.label()));
            let mut rec = RecordingTracer::default();
            h.run_traced(mode, &mut rec)
                .unwrap_or_else(|e| panic!("seed {seed}/{} traced: {e}", mode.label()));
            let published =
                counted.counters.as_deref().expect("a counted run publishes its counter bank");
            let replayed = Replay::of(&rec.events);
            assert_eq!(
                Replay::of_counters(published),
                replayed,
                "seed {seed}/{}: counter bank disagrees with the event-stream replay",
                mode.label()
            );
            activity += replayed.activity();
        }
    }
    assert!(activity > 0, "the seed range exercised no speculative activity — vacuous check");
}

#[test]
fn counters_match_trace_replay_seeds_1_to_5() {
    check_seeds(1..=5);
}

#[test]
fn counters_match_trace_replay_seeds_6_to_10() {
    check_seeds(6..=10);
}

#[test]
fn counters_match_trace_replay_seeds_11_to_15() {
    check_seeds(11..=15);
}

#[test]
fn counters_match_trace_replay_seeds_16_to_20() {
    check_seeds(16..=20);
}
