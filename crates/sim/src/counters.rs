//! Hardware-counter-style machine counters.
//!
//! [`MachineCounters`] is the host-side analogue of a CPU's performance
//! counter bank: cheap monotonically-increasing totals over a simulated
//! run — instructions executed by opcode class, cache hits and misses per
//! level, line evictions, speculative load/store traffic, write-buffer
//! occupancy high-water marks, signal send/receive counts per channel
//! kind, violations by cause and value prediction outcomes.
//!
//! The bank is one more [`Tracer`]: [`Tracer::event`] folds each counted
//! [`TraceEvent`] kind into its row(s), and the four high-rate hooks
//! ([`Tracer::retire`], [`Tracer::mem_access`], [`Tracer::wb_occupancy`],
//! [`Tracer::predictions_verified`]) cover what has no event. Counting and
//! tracing therefore share one seam, so the totals equal what a
//! [`crate::RecordingTracer`] replay of the same run counts by
//! construction. [`crate::Machine::run_counted`] runs with a fresh bank
//! and attaches it to [`crate::SimResult::counters`]. Like every tracer,
//! the bank is purely observational: timing, outputs and statistics are
//! identical to an untraced run.
//!
//! The counter values are a function of the simulated execution alone
//! (never of wall-clock time or host parallelism), so two runs of the
//! same module under the same [`crate::SimConfig`] produce identical
//! counter banks — the property the `repro metrics` CLI export relies on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tls_ir::{BinOp, Instr, Terminator};

use crate::adapt::Policy;
use crate::events::{SignalKind, TraceEvent, Tracer, ViolationKind, WaitKind};

/// Coarse opcode classes for the retired-instruction counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// Register moves, simple integer ALU ops, `EpochId`.
    Alu,
    /// Multiplies, divides and remainders (long-latency arithmetic).
    MulDiv,
    /// Plain and synchronized loads.
    Load,
    /// Stores.
    Store,
    /// Control transfers (jumps and conditional branches).
    Branch,
    /// Function calls.
    Call,
    /// Function returns.
    Ret,
    /// Wait/signal synchronization instructions.
    Sync,
    /// Observable-output instructions.
    Output,
}

impl OpClass {
    /// Number of classes (size of the per-class counter bank).
    pub const COUNT: usize = 9;

    /// All classes, in counter-bank order.
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Alu,
        OpClass::MulDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Call,
        OpClass::Ret,
        OpClass::Sync,
        OpClass::Output,
    ];

    /// Stable lowercase name (JSON keys, Prometheus labels).
    pub fn name(&self) -> &'static str {
        match self {
            OpClass::Alu => "alu",
            OpClass::MulDiv => "mul_div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Call => "call",
            OpClass::Ret => "ret",
            OpClass::Sync => "sync",
            OpClass::Output => "output",
        }
    }

    /// Index into the per-class counter bank.
    #[inline]
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// Class of an instruction.
    #[inline]
    pub fn of(instr: &Instr) -> OpClass {
        match instr {
            Instr::Assign { .. } | Instr::EpochId { .. } => OpClass::Alu,
            Instr::Bin { op, .. } => match op {
                BinOp::Mul | BinOp::Div | BinOp::Rem => OpClass::MulDiv,
                _ => OpClass::Alu,
            },
            Instr::Load { .. } | Instr::SyncLoad { .. } => OpClass::Load,
            Instr::Store { .. } => OpClass::Store,
            Instr::Call { .. } => OpClass::Call,
            Instr::Output { .. } => OpClass::Output,
            Instr::WaitScalar { .. }
            | Instr::SignalScalar { .. }
            | Instr::SignalMem { .. }
            | Instr::SignalMemNull { .. } => OpClass::Sync,
        }
    }

    /// Class of a block terminator.
    #[inline]
    pub fn of_term(term: &Terminator) -> OpClass {
        match term {
            Terminator::Jump(_) | Terminator::Br { .. } => OpClass::Branch,
            Terminator::Ret(_) => OpClass::Ret,
        }
    }
}

/// Which level of the memory hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemLevel {
    /// Private L1 data cache hit.
    L1,
    /// Shared L2 hit (L1 miss).
    L2,
    /// Main memory (both caches missed).
    Mem,
}

/// Index of [`ViolationKind`] in the per-cause violation bank
/// (declaration order: eager, commit-time, resignal, mispredict).
#[inline]
pub fn violation_index(kind: ViolationKind) -> usize {
    match kind {
        ViolationKind::Eager => 0,
        ViolationKind::CommitTime => 1,
        ViolationKind::Resignal => 2,
        ViolationKind::Mispredict => 3,
    }
}

/// The counter bank itself: plain `u64` slots, deterministic for a given
/// module and configuration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineCounters {
    /// Instructions executed per [`OpClass`] (bank order of
    /// [`OpClass::ALL`]). Includes re-executed work of squashed attempts,
    /// like [`SimResult::instructions`].
    pub retired: [u64; OpClass::COUNT],
    /// Accesses served by the private L1.
    pub l1_hits: u64,
    /// Accesses that missed L1 and hit the shared L2.
    pub l2_hits: u64,
    /// Accesses that went to main memory.
    pub mem_fetches: u64,
    /// Valid L1 lines evicted by speculative-load fills (one per
    /// `LineEvict` event).
    pub line_evictions: u64,
    /// The subset of `line_evictions` that held the epoch's speculative
    /// read- or write-set state.
    pub spec_line_evictions: u64,
    /// Speculative stores buffered.
    pub spec_stores: u64,
    /// Speculative loads that read beyond their own write buffer.
    pub spec_loads_exposed: u64,
    /// Speculative loads satisfied from the epoch's own write buffer.
    pub spec_loads_buffered: u64,
    /// Words drained to memory by committing epochs.
    pub commit_writes: u64,
    /// Committed epochs (parallel mode).
    pub epochs_committed: u64,
    /// Squashed epoch attempts (every victim of every violation).
    pub epochs_squashed: u64,
    /// Largest write-buffer word count observed in any epoch attempt.
    pub wb_words_high_water: u64,
    /// Largest write-buffer dirty-line count observed.
    pub wb_lines_high_water: u64,
    /// Scalar-channel signals sent.
    pub signal_sends_scalar: u64,
    /// Memory-group value signals sent (including §2.2 re-signals).
    pub signal_sends_mem: u64,
    /// Memory-group NULL signals sent.
    pub signal_sends_mem_null: u64,
    /// Scalar-channel forwarded values received.
    pub signal_recvs_scalar: u64,
    /// Memory-group forwarded values consumed.
    pub signal_recvs_mem: u64,
    /// Violations by cause (index via [`violation_index`]).
    pub violations: [u64; 4],
    /// Epoch wait episodes on scalar channels.
    pub waits_scalar: u64,
    /// Epoch wait episodes on memory groups.
    pub waits_mem: u64,
    /// Epoch wait episodes stalling till oldest.
    pub waits_oldest: u64,
    /// Hardware value predictions consumed by loads.
    pub predicted_loads: u64,
    /// Predictions that passed commit-time verification.
    pub predictions_verified: u64,
    /// Adaptive policy switches by destination policy (bank order of
    /// [`Policy::ALL`]: forward, stall, predict).
    pub policy_transitions: [u64; 3],
    /// Adaptive distribution-shift re-profiles (bulk policy resets).
    pub reprofiles: u64,
}

impl MachineCounters {
    /// Total instructions across all opcode classes.
    pub fn total_retired(&self) -> u64 {
        self.retired.iter().sum()
    }

    /// Total cache/memory accesses.
    pub fn total_accesses(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.mem_fetches
    }

    /// Fraction of accesses served by the L1 (0.0 when none).
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Total violations across all causes.
    pub fn total_violations(&self) -> u64 {
        self.violations.iter().sum()
    }

    /// Violations of one cause.
    pub fn violations_of(&self, kind: ViolationKind) -> u64 {
        self.violations[violation_index(kind)]
    }

    /// Total adaptive policy switches across all destinations.
    pub fn total_policy_transitions(&self) -> u64 {
        self.policy_transitions.iter().sum()
    }

    /// Fraction of consumed predictions that verified at commit (1.0 when
    /// none were consumed: nothing mispredicted).
    pub fn prediction_hit_rate(&self) -> f64 {
        if self.predicted_loads == 0 {
            1.0
        } else {
            self.predictions_verified as f64 / self.predicted_loads as f64
        }
    }

    /// Merge another bank in place (sums, except high-water marks which
    /// take the max). Exact under any partition, like `StreamingStats`.
    pub fn merge(&mut self, o: &MachineCounters) {
        for (a, b) in self.retired.iter_mut().zip(o.retired.iter()) {
            *a += b;
        }
        for (a, b) in self.violations.iter_mut().zip(o.violations.iter()) {
            *a += b;
        }
        for (a, b) in self.policy_transitions.iter_mut().zip(o.policy_transitions.iter()) {
            *a += b;
        }
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.mem_fetches += o.mem_fetches;
        self.line_evictions += o.line_evictions;
        self.spec_line_evictions += o.spec_line_evictions;
        self.spec_stores += o.spec_stores;
        self.spec_loads_exposed += o.spec_loads_exposed;
        self.spec_loads_buffered += o.spec_loads_buffered;
        self.commit_writes += o.commit_writes;
        self.epochs_committed += o.epochs_committed;
        self.epochs_squashed += o.epochs_squashed;
        self.wb_words_high_water = self.wb_words_high_water.max(o.wb_words_high_water);
        self.wb_lines_high_water = self.wb_lines_high_water.max(o.wb_lines_high_water);
        self.signal_sends_scalar += o.signal_sends_scalar;
        self.signal_sends_mem += o.signal_sends_mem;
        self.signal_sends_mem_null += o.signal_sends_mem_null;
        self.signal_recvs_scalar += o.signal_recvs_scalar;
        self.signal_recvs_mem += o.signal_recvs_mem;
        self.waits_scalar += o.waits_scalar;
        self.waits_mem += o.waits_mem;
        self.waits_oldest += o.waits_oldest;
        self.predicted_loads += o.predicted_loads;
        self.predictions_verified += o.predictions_verified;
        self.reprofiles += o.reprofiles;
    }

    /// Every counter as a `name → value` map with dotted hierarchical
    /// names, in deterministic `BTreeMap` order. The single source of
    /// truth for the JSON and Prometheus exports.
    pub fn rows(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for class in OpClass::ALL {
            out.insert(format!("retired.{}", class.name()), self.retired[class.index()]);
        }
        out.insert("cache.l1_hits".into(), self.l1_hits);
        out.insert("cache.l2_hits".into(), self.l2_hits);
        out.insert("cache.mem_fetches".into(), self.mem_fetches);
        out.insert("cache.line_evictions".into(), self.line_evictions);
        out.insert("cache.spec_line_evictions".into(), self.spec_line_evictions);
        out.insert("spec.stores".into(), self.spec_stores);
        out.insert("spec.loads_exposed".into(), self.spec_loads_exposed);
        out.insert("spec.loads_buffered".into(), self.spec_loads_buffered);
        out.insert("spec.commit_writes".into(), self.commit_writes);
        out.insert("spec.epochs_committed".into(), self.epochs_committed);
        out.insert("spec.epochs_squashed".into(), self.epochs_squashed);
        out.insert("spec.wb_words_high_water".into(), self.wb_words_high_water);
        out.insert("spec.wb_lines_high_water".into(), self.wb_lines_high_water);
        out.insert("signal.sends_scalar".into(), self.signal_sends_scalar);
        out.insert("signal.sends_mem".into(), self.signal_sends_mem);
        out.insert("signal.sends_mem_null".into(), self.signal_sends_mem_null);
        out.insert("signal.recvs_scalar".into(), self.signal_recvs_scalar);
        out.insert("signal.recvs_mem".into(), self.signal_recvs_mem);
        for kind in [
            ViolationKind::Eager,
            ViolationKind::CommitTime,
            ViolationKind::Resignal,
            ViolationKind::Mispredict,
        ] {
            out.insert(
                format!("violations.{}", kind.name()),
                self.violations[violation_index(kind)],
            );
        }
        out.insert("waits.scalar".into(), self.waits_scalar);
        out.insert("waits.mem".into(), self.waits_mem);
        out.insert("waits.oldest".into(), self.waits_oldest);
        out.insert("predict.loads".into(), self.predicted_loads);
        out.insert("predict.verified".into(), self.predictions_verified);
        for p in Policy::ALL {
            out.insert(
                format!("adapt.to_{}", p.name()),
                self.policy_transitions[p.index()],
            );
        }
        out.insert("adapt.reprofiles".into(), self.reprofiles);
        out
    }

    /// Stable JSON object: dotted counter names to integer values, keys in
    /// `BTreeMap` order. Byte-deterministic for a given simulated run.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.rows().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":{v}");
        }
        s.push('}');
        s
    }
}

impl Tracer for MachineCounters {
    fn event(&mut self, e: TraceEvent) {
        match e {
            TraceEvent::Violation { kind, .. } => self.violations[violation_index(kind)] += 1,
            TraceEvent::SignalSend { kind, .. } => match kind {
                SignalKind::Scalar(_) => self.signal_sends_scalar += 1,
                SignalKind::Mem(_) => self.signal_sends_mem += 1,
                SignalKind::MemNull(_) => self.signal_sends_mem_null += 1,
            },
            TraceEvent::SignalRecv { kind, .. } => match kind {
                SignalKind::Scalar(_) => self.signal_recvs_scalar += 1,
                SignalKind::Mem(_) | SignalKind::MemNull(_) => self.signal_recvs_mem += 1,
            },
            TraceEvent::WaitBegin { kind, .. } => match kind {
                WaitKind::Scalar(_) => self.waits_scalar += 1,
                WaitKind::Mem(_) => self.waits_mem += 1,
                WaitKind::Oldest => self.waits_oldest += 1,
            },
            TraceEvent::LineEvict { speculative, .. } => {
                self.line_evictions += 1;
                if speculative {
                    self.spec_line_evictions += 1;
                }
            }
            TraceEvent::SpecStore { .. } => self.spec_stores += 1,
            TraceEvent::SpecLoad { exposed: true, .. } => self.spec_loads_exposed += 1,
            TraceEvent::SpecLoad { exposed: false, .. } => self.spec_loads_buffered += 1,
            TraceEvent::PredictedLoad { .. } => self.predicted_loads += 1,
            TraceEvent::CommitWrite { .. } => self.commit_writes += 1,
            TraceEvent::EpochCommit { .. } => self.epochs_committed += 1,
            TraceEvent::EpochSquash { .. } => self.epochs_squashed += 1,
            TraceEvent::PolicyTransition { to, .. } => self.policy_transitions[to.index()] += 1,
            TraceEvent::Reprofile { .. } => self.reprofiles += 1,
            TraceEvent::RegionEnter { .. }
            | TraceEvent::RegionExit { .. }
            | TraceEvent::EpochSpawn { .. }
            | TraceEvent::EpochCancel { .. }
            | TraceEvent::WaitEnd { .. }
            | TraceEvent::SlotSample { .. }
            | TraceEvent::FaultInject { .. } => {}
        }
    }

    #[inline]
    fn retire(&mut self, class: OpClass) {
        self.retired[class.index()] += 1;
    }

    #[inline]
    fn mem_access(&mut self, level: MemLevel) {
        match level {
            MemLevel::L1 => self.l1_hits += 1,
            MemLevel::L2 => self.l2_hits += 1,
            MemLevel::Mem => self.mem_fetches += 1,
        }
    }

    #[inline]
    fn wb_occupancy(&mut self, words: usize, lines: usize) {
        self.wb_words_high_water = self.wb_words_high_water.max(words as u64);
        self.wb_lines_high_water = self.wb_lines_high_water.max(lines as u64);
    }

    #[inline]
    fn predictions_verified(&mut self, n: u64) {
        self.predictions_verified += n;
    }
}

#[cfg(test)]
mod tests {
    use tls_ir::{ChanId, GroupId, RegionId, Sid};

    use super::*;
    use crate::inject::FaultClass;
    use crate::stats::SlotBreakdown;

    // Field values shared by the test events; only the counted kind and
    // its flags matter to the bank.
    const RID: RegionId = RegionId(0);
    const SID: Sid = Sid(1);

    #[rustfmt::skip]
    fn violation(kind: ViolationKind) -> TraceEvent {
        let (rid, ord, consumer, core, time) = (RID, 0, 1, 1, 9);
        let (load_sid, store_sid, addr, producer) = (Some(SID), Some(Sid(2)), Some(64), Some(0));
        TraceEvent::Violation {
            rid, ord, kind, load_sid, store_sid, addr, producer, consumer, core, time,
        }
    }

    #[rustfmt::skip]
    fn send(kind: SignalKind) -> TraceEvent {
        let (rid, ord, epoch, core, addr, value, time) = (RID, 0, 0, 0, None, 3, 4);
        TraceEvent::SignalSend { rid, ord, epoch, core, kind, addr, value, time }
    }

    #[rustfmt::skip]
    fn recv(kind: SignalKind) -> TraceEvent {
        let (rid, ord, epoch, core, addr, value, time) = (RID, 0, 1, 1, None, 3, 6);
        TraceEvent::SignalRecv { rid, ord, epoch, core, kind, addr, value, time }
    }

    #[rustfmt::skip]
    fn wait(kind: WaitKind) -> TraceEvent {
        let (rid, ord, epoch, core, time) = (RID, 0, 1, 1, 5);
        TraceEvent::WaitBegin { rid, ord, epoch, core, kind, time }
    }

    #[rustfmt::skip]
    fn evict(speculative: bool) -> TraceEvent {
        TraceEvent::LineEvict { core: 1, line: 2, speculative, time: 7 }
    }

    #[rustfmt::skip]
    fn spec_load(exposed: bool) -> TraceEvent {
        let (rid, ord, epoch, core, sid, addr, value, time) = (RID, 0, 1, 1, SID, 64, 3, 8);
        TraceEvent::SpecLoad { rid, ord, epoch, core, sid, addr, value, exposed, time }
    }

    #[rustfmt::skip]
    fn spec_store() -> TraceEvent {
        let (rid, ord, epoch, core, sid, addr, value, time) = (RID, 0, 0, 0, Sid(2), 64, 3, 4);
        TraceEvent::SpecStore { rid, ord, epoch, core, sid, addr, value, time }
    }

    #[rustfmt::skip]
    fn predicted_load() -> TraceEvent {
        let (rid, ord, epoch, core, sid, addr, value, time) = (RID, 0, 1, 1, SID, 64, 3, 8);
        TraceEvent::PredictedLoad { rid, ord, epoch, core, sid, addr, value, time }
    }

    #[rustfmt::skip]
    fn transition(to: Policy) -> TraceEvent {
        let (rid, ord, epoch, core, sid, from, time) = (RID, 0, 1, 1, SID, Policy::Forward, 5);
        TraceEvent::PolicyTransition { rid, ord, epoch, core, sid, from, to, time }
    }

    #[rustfmt::skip]
    fn reprofile() -> TraceEvent {
        TraceEvent::Reprofile { rid: RID, ord: 0, time: 5 }
    }

    /// One event of every variant (and of every counted sub-kind), with
    /// the rows it must move by one. Uncounted kinds move nothing.
    #[rustfmt::skip]
    fn one_of_every_event() -> Vec<(TraceEvent, Vec<&'static str>)> {
        let (rid, ord, epoch, core) = (RID, 0, 1, 1);
        let (start, end, restart) = (1, 10, 12);
        let (load_sid, store_sid, slots) = (None, None, SlotBreakdown::default());
        let fault = FaultClass::DropSignal;
        vec![
            (TraceEvent::RegionEnter { rid, ord, time: 0 }, vec![]),
            (TraceEvent::RegionExit { rid, ord, time: 20 }, vec![]),
            (TraceEvent::EpochSpawn { rid, ord, epoch, core, time: 1 }, vec![]),
            (
                TraceEvent::EpochCommit {
                    rid, ord, epoch, core, start, end, graduated: 8, sync_cycles: 0,
                },
                vec!["spec.epochs_committed"],
            ),
            (
                TraceEvent::EpochSquash {
                    rid, ord, epoch, core, start, end, restart, load_sid, store_sid,
                },
                vec!["spec.epochs_squashed"],
            ),
            (TraceEvent::EpochCancel { rid, ord, epoch, core, start, end }, vec![]),
            (violation(ViolationKind::Eager), vec!["violations.eager"]),
            (violation(ViolationKind::CommitTime), vec!["violations.commit_time"]),
            (violation(ViolationKind::Resignal), vec!["violations.resignal"]),
            (violation(ViolationKind::Mispredict), vec!["violations.mispredict"]),
            (wait(WaitKind::Scalar(ChanId(0))), vec!["waits.scalar"]),
            (wait(WaitKind::Mem(GroupId(0))), vec!["waits.mem"]),
            (wait(WaitKind::Oldest), vec!["waits.oldest"]),
            (
                TraceEvent::WaitEnd {
                    rid, ord, epoch, core, kind: WaitKind::Oldest, since: 5, time: 9,
                },
                vec![],
            ),
            (send(SignalKind::Scalar(ChanId(0))), vec!["signal.sends_scalar"]),
            (send(SignalKind::Mem(GroupId(0))), vec!["signal.sends_mem"]),
            (send(SignalKind::MemNull(GroupId(0))), vec!["signal.sends_mem_null"]),
            (recv(SignalKind::Scalar(ChanId(0))), vec!["signal.recvs_scalar"]),
            (recv(SignalKind::Mem(GroupId(0))), vec!["signal.recvs_mem"]),
            (recv(SignalKind::MemNull(GroupId(0))), vec!["signal.recvs_mem"]),
            (evict(false), vec!["cache.line_evictions"]),
            (evict(true), vec!["cache.line_evictions", "cache.spec_line_evictions"]),
            (TraceEvent::SlotSample { rid, ord, time: 10, slots }, vec![]),
            (spec_store(), vec!["spec.stores"]),
            (spec_load(true), vec!["spec.loads_exposed"]),
            (spec_load(false), vec!["spec.loads_buffered"]),
            (predicted_load(), vec!["predict.loads"]),
            (
                TraceEvent::CommitWrite { rid, ord, epoch, addr: 64, value: 3, time: 10 },
                vec!["spec.commit_writes"],
            ),
            (transition(Policy::Forward), vec!["adapt.to_forward"]),
            (transition(Policy::Stall), vec!["adapt.to_stall"]),
            (transition(Policy::Predict), vec!["adapt.to_predict"]),
            (reprofile(), vec!["adapt.reprofiles"]),
            (
                TraceEvent::FaultInject { class: fault, epoch: Some(1), addr: Some(64), time: 4 },
                vec![],
            ),
        ]
    }

    #[test]
    fn each_event_kind_moves_exactly_its_own_rows() {
        let cases = one_of_every_event();
        for (e, moved) in &cases {
            let mut c = MachineCounters::default();
            c.event(*e);
            for (row, v) in c.rows() {
                let want = u64::from(moved.contains(&row.as_str()));
                assert_eq!(v, want, "{e:?} moved row `{row}` to {v}");
            }
        }
        // Every event variant is covered: the names of the variants fed in
        // (the `Debug` prefix) form the full set of 20.
        let variants: std::collections::BTreeSet<String> = cases
            .iter()
            .map(|(e, _)| {
                format!("{e:?}")
                    .split([' ', '{'])
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(variants.len(), 20, "{variants:?}");
    }

    #[test]
    fn rows_and_json_are_deterministic_and_complete() {
        let mut c = MachineCounters::default();
        c.retire(OpClass::Load);
        c.retire(OpClass::Load);
        c.retire(OpClass::MulDiv);
        c.mem_access(MemLevel::L1);
        c.mem_access(MemLevel::Mem);
        c.event(violation(ViolationKind::Eager));
        c.event(violation(ViolationKind::Mispredict));
        c.event(send(SignalKind::Scalar(ChanId(0))));
        c.event(recv(SignalKind::Mem(GroupId(1))));
        c.wb_occupancy(7, 3);
        c.wb_occupancy(4, 5);
        c.event(transition(Policy::Stall));
        c.event(transition(Policy::Stall));
        c.event(transition(Policy::Predict));
        c.event(reprofile());
        let rows = c.rows();
        assert_eq!(rows["adapt.to_stall"], 2);
        assert_eq!(rows["adapt.to_predict"], 1);
        assert_eq!(rows["adapt.to_forward"], 0);
        assert_eq!(rows["adapt.reprofiles"], 1);
        assert_eq!(c.total_policy_transitions(), 3);
        assert_eq!(rows["retired.load"], 2);
        assert_eq!(rows["retired.mul_div"], 1);
        assert_eq!(rows["cache.l1_hits"], 1);
        assert_eq!(rows["cache.mem_fetches"], 1);
        assert_eq!(rows["violations.eager"], 1);
        assert_eq!(rows["violations.mispredict"], 1);
        assert_eq!(rows["signal.sends_scalar"], 1);
        assert_eq!(rows["signal.recvs_mem"], 1);
        assert_eq!(rows["spec.wb_words_high_water"], 7);
        assert_eq!(rows["spec.wb_lines_high_water"], 5);
        assert_eq!(c.total_retired(), 3);
        assert_eq!(c.total_violations(), 2);
        let j = c.to_json();
        assert_eq!(j, c.to_json(), "byte-deterministic");
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"retired.load\":2"));
        // Every row appears exactly once in the JSON.
        for k in rows.keys() {
            assert_eq!(j.matches(&format!("\"{k}\":")).count(), 1, "{k}");
        }
    }

    #[test]
    fn merge_sums_counts_and_maxes_high_water() {
        let mut a = MachineCounters::default();
        a.event(spec_store());
        a.wb_occupancy(10, 2);
        a.predictions_verified(3);
        let mut b = MachineCounters::default();
        b.event(spec_store());
        b.event(spec_store());
        b.wb_occupancy(6, 4);
        b.event(predicted_load());
        a.merge(&b);
        assert_eq!(a.spec_stores, 3);
        assert_eq!(a.wb_words_high_water, 10);
        assert_eq!(a.wb_lines_high_water, 4);
        assert_eq!(a.predicted_loads, 1);
        assert_eq!(a.predictions_verified, 3);
    }

    #[test]
    fn rates_handle_empty_banks() {
        let c = MachineCounters::default();
        assert_eq!(c.l1_hit_rate(), 0.0);
        assert_eq!(c.prediction_hit_rate(), 1.0);
        let mut c = MachineCounters::default();
        c.event(predicted_load());
        c.event(predicted_load());
        c.predictions_verified(1);
        assert_eq!(c.prediction_hit_rate(), 0.5);
        c.mem_access(MemLevel::L1);
        c.mem_access(MemLevel::L1);
        c.mem_access(MemLevel::L2);
        c.mem_access(MemLevel::Mem);
        assert_eq!(c.l1_hit_rate(), 0.5);
    }

    #[test]
    fn opclass_covers_every_instr_shape() {
        assert_eq!(OpClass::ALL.len(), OpClass::COUNT);
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        // Distinct stable names.
        let names: std::collections::BTreeSet<_> = OpClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), OpClass::COUNT);
    }
}
