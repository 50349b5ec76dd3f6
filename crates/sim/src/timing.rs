//! Per-core superscalar timing model.
//!
//! Approximates a 4-way-issue, out-of-order machine with a 128-entry
//! reorder buffer (Table 1): instructions issue in order, at most
//! `issue_width` per cycle, each no earlier than its operands are ready;
//! they complete after an operation-specific latency and graduate in order
//! (again `issue_width` per cycle); a full ROB stalls issue; conditional
//! branches consult a 2-bit predictor and a mispredict flushes the front
//! end for `mispredict_penalty` cycles.

use crate::config::SimConfig;

/// The timing state of one core while running one epoch attempt.
#[derive(Clone, Debug)]
pub struct CoreTimer {
    issue_width: u64,
    /// Earliest cycle the next instruction can issue (front-end).
    next_fetch: u64,
    /// Instructions already issued in the `next_fetch` cycle.
    issued_this_cycle: u64,
    /// Graduation times of in-flight instructions (ROB occupancy): a ring
    /// of `rob_size` slots, oldest at `rob_head`, `rob_len` of them live.
    rob: Box<[u64]>,
    rob_head: usize,
    rob_len: usize,
    /// Time the previous instruction graduated.
    last_grad: u64,
    /// Instructions graduated in the `last_grad` cycle.
    grad_this_cycle: u64,
    /// Instructions graduated since the last reset (busy-slot counter).
    graduated: u64,
}

impl CoreTimer {
    /// A fresh pipeline starting at time `now`.
    pub fn new(config: &SimConfig, now: u64) -> Self {
        let mut t = Self {
            issue_width: config.issue_width,
            next_fetch: 0,
            issued_this_cycle: 0,
            rob: vec![0; config.rob_size].into_boxed_slice(),
            rob_head: 0,
            rob_len: 0,
            last_grad: 0,
            grad_this_cycle: 0,
            graduated: 0,
        };
        t.reset(now);
        t
    }

    /// Return to the state of [`CoreTimer::new`] at time `now`, keeping the
    /// ROB's storage (epoch restarts and respawns).
    pub fn reset(&mut self, now: u64) {
        self.next_fetch = now;
        self.issued_this_cycle = 0;
        self.rob_head = 0;
        self.rob_len = 0;
        self.last_grad = now;
        self.grad_this_cycle = 0;
        self.graduated = 0;
    }

    /// Reset the pipeline (squash/flush) so the next instruction issues no
    /// earlier than `now`.
    pub fn flush(&mut self, now: u64) {
        self.next_fetch = self.next_fetch.max(now);
        self.issued_this_cycle = 0;
        self.rob_head = 0;
        self.rob_len = 0;
        self.last_grad = self.last_grad.max(now);
        self.grad_this_cycle = 0;
    }

    /// Instructions graduated since construction (busy slots).
    pub fn graduated(&self) -> u64 {
        self.graduated
    }

    /// Earliest time the next instruction could issue (no operand stalls).
    pub fn horizon(&self) -> u64 {
        let mut t = self.next_fetch;
        if self.issued_this_cycle >= self.issue_width {
            t += 1;
        }
        if self.rob_len >= self.rob.len() {
            t = t.max(self.rob[self.rob_head]);
        }
        t
    }

    /// Issue one instruction whose operands are ready at `ready` and which
    /// takes `latency` cycles to execute. Returns `(issue, complete)`.
    ///
    /// Written as selects rather than branches: whether a cycle's issue or
    /// graduation slots are full follows the data, and this runs once per
    /// simulated instruction.
    #[inline]
    pub fn issue(&mut self, ready: u64, latency: u64) -> (u64, u64) {
        let mut t = self.next_fetch.max(ready);
        t += u64::from(self.issued_this_cycle >= self.issue_width && t == self.next_fetch);
        // ROB constraint: at most `rob_size` in flight. Graduation times are
        // monotonic, so freeing the head entry is exactly the stall point.
        let rob_full = self.rob_len >= self.rob.len();
        if rob_full {
            t = t.max(self.rob[self.rob_head]);
        }
        // `t >= next_fetch`: a later cycle starts a fresh issue group, and a
        // group that fills moves the front end to the next cycle.
        let issued = if t > self.next_fetch {
            1
        } else {
            self.issued_this_cycle + 1
        };
        let group_full = issued >= self.issue_width;
        self.next_fetch = t + u64::from(group_full);
        self.issued_this_cycle = if group_full { 0 } else { issued };
        let complete = t + latency;
        // In-order graduation, `issue_width` per cycle: an instruction that
        // completes by the previous graduation joins its cycle, or the next
        // one if that cycle is full.
        let joins = complete <= self.last_grad;
        let spills = joins && self.grad_this_cycle >= self.issue_width;
        let grad = complete.max(self.last_grad) + u64::from(spills);
        self.grad_this_cycle = if joins && !spills {
            self.grad_this_cycle + 1
        } else {
            1
        };
        self.last_grad = grad;
        if rob_full {
            // The freed head slot becomes the tail.
            self.rob[self.rob_head] = grad;
            self.rob_head += 1;
            if self.rob_head == self.rob.len() {
                self.rob_head = 0;
            }
        } else {
            let tail = self.rob_head + self.rob_len;
            let tail = if tail >= self.rob.len() {
                tail - self.rob.len()
            } else {
                tail
            };
            self.rob[tail] = grad;
            self.rob_len += 1;
        }
        self.graduated += 1;
        (t, complete)
    }

    /// Stall the front end until `until` (used for waits and mispredicts).
    pub fn stall_until(&mut self, until: u64) {
        if until > self.next_fetch {
            self.next_fetch = until;
            self.issued_this_cycle = 0;
        }
    }
}

/// Per-core 2-bit saturating branch predictor, indexed by a hash of the
/// branch's location.
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    /// `len - 1` when the table size is a power of two (index by mask).
    mask: Option<usize>,
}

impl BranchPredictor {
    /// A predictor with `entries` 2-bit counters, initialized weakly taken.
    pub fn new(entries: usize) -> Self {
        let len = entries.max(1);
        Self {
            counters: vec![2; len],
            mask: len.is_power_of_two().then(|| len - 1),
        }
    }

    #[inline]
    fn index(&self, key: u64) -> usize {
        // Fibonacci hashing spreads block/function ids.
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize;
        match self.mask {
            Some(mask) => h & mask,
            None => h % self.counters.len(),
        }
    }

    /// Predict the branch identified by `key`.
    pub fn predict(&self, key: u64) -> bool {
        self.counters[self.index(key)] >= 2
    }

    /// Train with the actual outcome; returns true if the prediction was
    /// correct.
    pub fn update(&mut self, key: u64, taken: bool) -> bool {
        let i = self.index(key);
        let predicted = self.counters[i] >= 2;
        if taken {
            self.counters[i] = (self.counters[i] + 1).min(3);
        } else {
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
        predicted == taken
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use tls_ir::SplitMix64;

    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::cgo2004()
    }

    /// Reference model: the timer with its ROB as a `VecDeque` that pops
    /// and pushes on every issue.
    struct RefTimer {
        issue_width: u64,
        rob_size: usize,
        next_fetch: u64,
        issued_this_cycle: u64,
        rob: VecDeque<u64>,
        last_grad: u64,
        grad_this_cycle: u64,
        graduated: u64,
    }

    impl RefTimer {
        fn new(config: &SimConfig, now: u64) -> Self {
            Self {
                issue_width: config.issue_width,
                rob_size: config.rob_size,
                next_fetch: now,
                issued_this_cycle: 0,
                rob: VecDeque::new(),
                last_grad: now,
                grad_this_cycle: 0,
                graduated: 0,
            }
        }

        fn flush(&mut self, now: u64) {
            self.next_fetch = self.next_fetch.max(now);
            self.issued_this_cycle = 0;
            self.rob.clear();
            self.last_grad = self.last_grad.max(now);
            self.grad_this_cycle = 0;
        }

        fn horizon(&self) -> u64 {
            let mut t = self.next_fetch;
            if self.issued_this_cycle >= self.issue_width {
                t += 1;
            }
            if self.rob.len() >= self.rob_size {
                t = t.max(*self.rob.front().expect("rob nonempty"));
            }
            t
        }

        fn issue(&mut self, ready: u64, latency: u64) -> (u64, u64) {
            let mut t = self.next_fetch.max(ready);
            if self.issued_this_cycle >= self.issue_width && t == self.next_fetch {
                t += 1;
            }
            if self.rob.len() >= self.rob_size {
                t = t.max(self.rob.pop_front().expect("rob nonempty"));
            }
            if t > self.next_fetch {
                self.next_fetch = t;
                self.issued_this_cycle = 0;
            }
            self.issued_this_cycle += 1;
            if self.issued_this_cycle >= self.issue_width {
                self.next_fetch = t + 1;
                self.issued_this_cycle = 0;
            }
            let complete = t + latency;
            let mut grad = complete.max(self.last_grad);
            if grad == self.last_grad {
                if self.grad_this_cycle >= self.issue_width {
                    grad += 1;
                    self.grad_this_cycle = 1;
                } else {
                    self.grad_this_cycle += 1;
                }
            } else {
                self.grad_this_cycle = 1;
            }
            self.last_grad = grad;
            self.rob.push_back(grad);
            self.graduated += 1;
            (t, complete)
        }

        fn stall_until(&mut self, until: u64) {
            if until > self.next_fetch {
                self.next_fetch = until;
                self.issued_this_cycle = 0;
            }
        }

        fn state(&self) -> (u64, u64, Vec<u64>, u64, u64, u64) {
            let rob = self.rob.iter().copied().collect();
            (
                self.next_fetch,
                self.issued_this_cycle,
                rob,
                self.last_grad,
                self.grad_this_cycle,
                self.graduated,
            )
        }
    }

    impl CoreTimer {
        /// Everything that decides future timing; stale ring slots outside
        /// the live window are not state.
        fn state(&self) -> (u64, u64, Vec<u64>, u64, u64, u64) {
            let rob = (0..self.rob_len)
                .map(|k| self.rob[(self.rob_head + k) % self.rob.len()])
                .collect();
            (
                self.next_fetch,
                self.issued_this_cycle,
                rob,
                self.last_grad,
                self.grad_this_cycle,
                self.graduated,
            )
        }
    }

    #[test]
    fn ring_rob_matches_vecdeque_reference() {
        for rob_size in [1, 2, 3, 128] {
            for issue_width in [1, 4] {
                let config = SimConfig {
                    rob_size,
                    issue_width,
                    ..cfg()
                };
                for seed in 0..8u64 {
                    let mut rng = SplitMix64::seed_from_u64(seed * 1000 + rob_size as u64);
                    let mut now = rng.next_u64() % 50;
                    let mut t = CoreTimer::new(&config, now);
                    let mut r = RefTimer::new(&config, now);
                    for step in 0..600 {
                        let ctx =
                            format!("rob {rob_size} width {issue_width} seed {seed} step {step}");
                        match rng.pick(20) {
                            0 => {
                                let until = now + rng.next_u64() % 40;
                                t.stall_until(until);
                                r.stall_until(until);
                            }
                            1 => {
                                now += rng.next_u64() % 30;
                                t.flush(now);
                                r.flush(now);
                            }
                            2 => {
                                now += rng.next_u64() % 30;
                                t.reset(now);
                                r = RefTimer::new(&config, now);
                                assert_eq!(
                                    t.state(),
                                    CoreTimer::new(&config, now).state(),
                                    "{ctx}"
                                );
                            }
                            _ => {
                                // Mostly short latencies, now and then a miss.
                                let latency = if rng.chance(0.1) {
                                    rng.next_u64() % 200
                                } else {
                                    1 + rng.next_u64() % 4
                                };
                                let ready = now.saturating_sub(10) + rng.next_u64() % 20;
                                let got = t.issue(ready, latency);
                                assert_eq!(got, r.issue(ready, latency), "{ctx}");
                                now = now.max(got.0);
                            }
                        }
                        assert_eq!(t.horizon(), r.horizon(), "{ctx}");
                        assert_eq!(t.graduated(), r.graduated, "{ctx}");
                        assert_eq!(t.state(), r.state(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn predictor_mask_matches_modulo() {
        // Power-of-two tables index by mask, others by `%`: both must pick
        // the counter the plain modulo would.
        for entries in [1usize, 2, 3, 64, 100, 4096] {
            let p = BranchPredictor::new(entries);
            for key in (0..2_000u64).map(|k| k.wrapping_mul(0x1234_5678_9ABC_DEF1)) {
                let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize;
                assert_eq!(p.index(key), h % entries, "entries {entries} key {key}");
            }
        }
    }

    #[test]
    fn independent_instructions_pack_into_issue_width() {
        let mut t = CoreTimer::new(&cfg(), 0);
        // 8 independent 1-cycle instructions on a 4-wide machine: the first
        // four issue at cycle 0, the next four at cycle 1.
        let issues: Vec<u64> = (0..8).map(|_| t.issue(0, 1).0).collect();
        assert_eq!(issues, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(t.graduated(), 8);
    }

    #[test]
    fn dependent_chain_serializes_on_latency() {
        let mut t = CoreTimer::new(&cfg(), 0);
        let mut ready = 0;
        let mut issues = Vec::new();
        for _ in 0..4 {
            let (iss, complete) = t.issue(ready, 3);
            issues.push(iss);
            ready = complete;
        }
        assert_eq!(issues, vec![0, 3, 6, 9]);
    }

    #[test]
    fn rob_limits_runahead() {
        let mut config = cfg();
        config.rob_size = 4;
        let mut t = CoreTimer::new(&config, 0);
        // One long-latency instruction then many independent ones: issue
        // cannot run more than rob_size ahead of graduation.
        let (_, _complete) = t.issue(0, 100);
        let mut max_issue = 0;
        for _ in 0..8 {
            let (iss, _) = t.issue(0, 1);
            max_issue = max_issue.max(iss);
        }
        // Graduation of the long op is at ~100; with a 4-entry ROB the
        // 5th+ instruction must wait for it.
        assert!(max_issue >= 100, "issue ran ahead of a full ROB: {max_issue}");
    }

    #[test]
    fn flush_resets_pipeline_state() {
        let mut t = CoreTimer::new(&cfg(), 0);
        t.issue(0, 50);
        t.flush(200);
        let (iss, _) = t.issue(0, 1);
        assert!(iss >= 200);
    }

    #[test]
    fn stall_until_delays_issue() {
        let mut t = CoreTimer::new(&cfg(), 0);
        t.stall_until(40);
        assert_eq!(t.issue(0, 1).0, 40);
    }

    #[test]
    fn predictor_learns_bias() {
        let mut p = BranchPredictor::new(64);
        let key = 7;
        for _ in 0..4 {
            p.update(key, false);
        }
        assert!(!p.predict(key));
        // A loop-back branch taken repeatedly becomes predicted taken.
        for _ in 0..4 {
            p.update(key, true);
        }
        assert!(p.predict(key));
        // Alternating pattern yields some mispredicts.
        let mut wrong = 0;
        for i in 0..20 {
            if !p.update(key, i % 2 == 0) {
                wrong += 1;
            }
        }
        assert!(wrong > 0);
    }
}
