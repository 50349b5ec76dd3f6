//! Host-time benchmark of the TLS reproduction pipeline, end to end and
//! layer by layer.
//!
//! The benchmark drives the pipeline from outside, through each layer's
//! public functions: `tls_workloads` builds the programs, `tls_ir::generate`
//! makes random ones, `tls_profile` interprets and profiles them,
//! `tls_core::compile_all` compiles them, `tls_experiments` prepares
//! harnesses, runs modes, fuzzes and checks conformance, and `tls_sim`
//! simulates. Every op's output is checked; a wrong output, a model
//! rejection, a simulation error or a compile error counts as a failed op.
//!
//! An untraced run ([`Config::trace`] off) measures the end-to-end metrics,
//! in host time rescaled to a reference host speed ([`calib`]).
//! A traced run wraps every public call in a span ([`spans`]) and reports
//! per-layer self times and the exact counts the layers return. See
//! `README.md` beside this crate for the workloads and the metric table.

pub mod calib;
pub mod spans;
mod stats;
mod workloads;

use std::fmt;
use std::time::Instant;

use tls_experiments::MODES;

pub use spans::Span;
pub use stats::{Tail, TAIL_BEYOND};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All 16 programs at ref scale: prepare, then run all 21 modes.
    PaperRef,
    /// `fuzz::check_seed` over a range of generated programs.
    FuzzDiff,
    /// Quick-scale programs × speculative modes through `conform_run`.
    ConformTraced,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperRef,
        Workload::FuzzDiff,
        Workload::ConformTraced,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRef => "paper_ref",
            Workload::FuzzDiff => "fuzz_diff",
            Workload::ConformTraced => "conform_traced",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Input seed: picks the fuzz seed range and the program order.
    pub seed: u64,
    /// How long to keep measuring, after set-up (at least one pass runs).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Generated programs per `fuzz_diff` pass.
    pub fuzz_seeds: u64,
    /// Break forwarded-value recovery in every `fuzz_diff` simulation (see
    /// `FuzzConfig::break_forwarded_recovery`): the self-test that shows
    /// the output checks can fail.
    pub break_forwarding: bool,
}

impl Config {
    /// The settings the command line uses for `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            fuzz_seeds: workloads::FUZZ_SEEDS,
            break_forwarding: false,
        }
    }
}

/// How a metric is reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics of an untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The metric-name form of a mode label (`O>25%` → `Ogt25`, `B+` →
/// `Bplus`), so every name matches `[A-Za-z0-9_.-]+`.
pub fn mode_key(label: &str) -> String {
    label
        .replace('>', "gt")
        .replace('+', "plus")
        .replace('%', "")
}

/// The per-layer metrics of a traced run: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = |n: &str, u| (n.to_string(), u);
    let mut v = vec![
        fixed("workloads.build_ms", "ms"),
        fixed("ir.generate_ms", "ms"),
        fixed("profile.ms", "ms"),
        fixed("profile.seq_ms", "ms"),
        fixed("profile.steps", "count"),
        fixed("profile.msteps_per_s", "Msteps/s"),
        fixed("core.compile_ms", "ms"),
        fixed("core.regions", "count"),
        fixed("core.sync_loads", "count"),
        fixed("core.groups", "count"),
        fixed("core.clones", "count"),
        fixed("core.code_growth", "ratio"),
        fixed("harness.prep_ms", "ms"),
        fixed("fuzz.other_ms", "ms"),
        fixed("sim.ms", "ms"),
    ];
    for m in MODES {
        v.push((format!("sim.{}.ms", mode_key(&m.label())), "ms"));
    }
    v.extend([
        fixed("sim.mips", "Minstr/s"),
        fixed("sim.run_us", "us"),
        fixed("sim.instructions", "count"),
        fixed("sim.cycles", "count"),
        fixed("sim.epochs", "count"),
        fixed("sim.violations", "count"),
        fixed("sim.epoch_commit_ratio", "ratio"),
        fixed("sim.useful_instr_ratio", "ratio"),
        fixed("sim.l1_hits", "count"),
        fixed("sim.l2_hits", "count"),
        fixed("sim.mem_fetches", "count"),
        fixed("sim.spec_stores", "count"),
        fixed("sim.spec_loads_exposed", "count"),
        fixed("sim.commit_writes", "count"),
        fixed("trace.events", "count"),
        fixed("trace.record_ms", "ms"),
        fixed("model.check_ms", "ms"),
        fixed("trace.overhead_pct", "%"),
        fixed("par.wait_ms", "ms"),
    ]);
    v
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// The run's settings.
    pub config: Config,
    /// Wall time of each pass over the workload's op set (untraced, or
    /// traced when [`Config::trace`] is on), in seconds.
    pub pass_s: Vec<f64>,
    /// Op time of each untraced pass rescaled to the reference host speed,
    /// in seconds.
    pub norm_pass_s: Vec<f64>,
    /// Median host speed over the untraced passes, as a share of the
    /// reference host's (calibration slice times, see [`calib`]).
    pub host_speed: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Digest of the exact statistics of one pass: the ops' results in an
    /// untraced run, the simulated statistics per program × mode in a
    /// traced one.
    pub digest: u64,
    /// Every pass gave the same digest (and, traced, the same exact counts).
    pub repeatable: bool,
    first_digest: Option<u64>,
    /// Tail latency detail (untraced runs).
    pub tail: Option<Tail>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Median self time per span name over the traced passes, in ms.
    pub self_ms: Vec<(String, f64)>,
    /// Every recorded span (traced runs).
    pub spans: Vec<Span>,
}

impl Report {
    /// Ops failed ÷ ops attempted.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// No op failed and every pass repeated the first exactly.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.repeatable && self.attempted > 0
    }

    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.config;
        writeln!(
            f,
            "hostbench {} seed={} trace={} ops={}",
            c.workload.name(),
            c.seed,
            u8::from(c.trace),
            self.attempted
        )?;
        let passes: Vec<String> = self.pass_s.iter().map(|s| format!("{s:.3}")).collect();
        writeln!(f, "  pass wall times (s): {}", passes.join(" "))?;
        if !self.norm_pass_s.is_empty() {
            let norm: Vec<String> = self.norm_pass_s.iter().map(|s| format!("{s:.3}")).collect();
            writeln!(
                f,
                "  pass op times at reference speed (s): {}  (host speed {:.3}x reference)",
                norm.join(" "),
                self.host_speed
            )?;
        }
        for m in &self.metrics {
            write!(
                f,
                "  {:<28} {:>16} {}",
                m.name,
                format!("{:.4}", m.value),
                m.unit
            )?;
            if let (Some(t), "op_tail_ms") = (&self.tail, m.name.as_str()) {
                write!(f, "  (p{:.2} of {} ops)", t.percentile, t.ops)?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "  {:<28} {:>16} ({} of {} ops)",
            "failed_frac",
            format!("{:.4}", self.failed_frac()),
            self.failed,
            self.attempted
        )?;
        if !self.self_ms.is_empty() {
            writeln!(f, "  self time per pass by span:")?;
            for (name, ms) in &self.self_ms {
                writeln!(f, "    {name:<26} {ms:>12.3} ms")?;
            }
        }
        for d in &self.failures {
            writeln!(f, "  failure: {d}")?;
        }
        writeln!(
            f,
            "digest {} {:016x}{}",
            c.workload.name(),
            self.digest,
            if self.repeatable {
                ""
            } else {
                " (passes disagree)"
            }
        )
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Run the benchmark.
///
/// # Errors
/// Set-up failures (a program that cannot be built or interpreted).
pub fn run(cfg: &Config) -> Result<Report, String> {
    calib::prepare();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut bench = timed_setup(cfg, &mut setup_s)?;
    let mut report = Report {
        config: cfg.clone(),
        pass_s: Vec::new(),
        norm_pass_s: Vec::new(),
        host_speed: 0.0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        digest: 0,
        repeatable: true,
        first_digest: None,
        tail: None,
        metrics: Vec::new(),
        self_ms: Vec::new(),
        spans: Vec::new(),
    };
    if !cfg.trace {
        let start = Instant::now();
        let mut pass_s = Vec::new();
        let mut norm_pass_s = Vec::new();
        let mut cal_ms = Vec::new();
        let mut passes_ms: Vec<Vec<f64>> = Vec::new();
        while another_pass(cfg, start, &pass_s) {
            if setup_due(cfg, start, &setup_s) {
                drop(bench);
                bench = timed_setup(cfg, &mut setup_s)?;
            }
            let t0 = Instant::now();
            let mut log = OpLog::calibrated();
            bench.pass(&mut log);
            log.flush();
            pass_s.push(t0.elapsed().as_secs_f64());
            report.absorb(&log, true);
            norm_pass_s.push(log.norm_ms.iter().sum::<f64>() / 1e3);
            cal_ms.extend_from_slice(&log.cal_ms);
            passes_ms.push(log.norm_ms);
        }
        let op_ms = per_op_medians(&passes_ms);
        let tail = stats::tail(&op_ms);
        let values = [
            stats::median(&norm_pass_s),
            stats::median(&op_ms),
            tail.value,
            stats::peak_rss_mb(),
            stats::median(&setup_s),
        ];
        report.pass_s = pass_s;
        report.norm_pass_s = norm_pass_s;
        report.host_speed = calib::REF_SLICE_MS / stats::median(&cal_ms);
        report.tail = Some(tail);
        report.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric {
                name: name.into(),
                value,
                unit,
            })
            .collect();
        return Ok(report);
    }

    // Untraced and traced passes alternate, so a drift in host speed falls
    // on both alike; the tracing overhead compares the two.
    let mut rec = spans::Spans::new();
    let mut pass_s = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut per_pass: Vec<(std::collections::BTreeMap<String, f64>, Exact)> = Vec::new();
    let mut counted = Counted::default();
    let start = Instant::now();
    while another_pass(cfg, start, &pass_s) {
        if setup_due(cfg, start, &setup_s) {
            drop(bench);
            bench = timed_setup(cfg, &mut setup_s)?;
        }
        let t0 = Instant::now();
        let mut log = OpLog::default();
        bench.pass(&mut log);
        untraced_ms.push(log.ms.iter().sum::<f64>());
        report.absorb(&log, true);
        let cursor = rec.len();
        let mut log = OpLog::default();
        let mut exact = Exact::default();
        let count = if per_pass.is_empty() {
            Some(&mut counted)
        } else {
            None
        };
        bench.traced_pass(&mut rec, &mut log, &mut exact, count);
        report.absorb(&log, false);
        per_pass.push((spans::self_ms(rec.since(cursor)), exact));
        pass_s.push(t0.elapsed().as_secs_f64());
    }
    report.pass_s = pass_s;
    report.repeatable &= per_pass.iter().all(|(_, e)| *e == per_pass[0].1);
    report.digest = per_pass[0].1.digest();

    let traced_ms: Vec<f64> = per_pass
        .iter()
        .map(|(m, _)| {
            m.iter()
                .filter(|(name, _)| bench.is_op_span(name))
                .map(|(_, ms)| ms)
                .sum()
        })
        .collect();
    let untraced = stats::median(&untraced_ms);
    let overhead_pct = (stats::median(&traced_ms) - untraced) / untraced.max(1e-9) * 100.0;
    let layer: Vec<Vec<f64>> = per_pass
        .iter()
        .map(|(m, e)| layer_values(m, e, &counted, overhead_pct))
        .collect();
    let names = per_layer();
    report.metrics = names
        .iter()
        .enumerate()
        .map(|(i, (name, unit))| Metric {
            name: name.clone(),
            value: stats::median(&layer.iter().map(|v| v[i]).collect::<Vec<_>>()),
            unit,
        })
        .collect();
    let mut span_names: Vec<&String> = per_pass.iter().flat_map(|(m, _)| m.keys()).collect();
    span_names.sort();
    span_names.dedup();
    report.self_ms = span_names
        .into_iter()
        .map(|n| {
            let v: Vec<f64> = per_pass
                .iter()
                .map(|(m, _)| m.get(n).copied().unwrap_or(0.0))
                .collect();
            (n.clone(), stats::median(&v))
        })
        .collect();
    report.spans = rec.into_spans();
    Ok(report)
}

/// Every pass runs the same ops in the same order. Each op's latency is
/// the median of its repetitions, which keeps a burst of host noise out of
/// the percentiles; the percentiles are then taken over ops.
fn per_op_medians(passes_ms: &[Vec<f64>]) -> Vec<f64> {
    let ops = passes_ms.first().map_or(0, Vec::len);
    (0..ops)
        .map(|i| stats::median(&passes_ms.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// Set the workload up, appending the time it took, rescaled to the
/// reference host speed, to `setup_s`.
fn timed_setup(cfg: &Config, setup_s: &mut Vec<f64>) -> Result<Box<dyn workloads::Bench>, String> {
    let before = calib::measure();
    let t0 = Instant::now();
    let bench = workloads::setup(cfg)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = calib::measure();
    setup_s.push(calib::normalize(ms, before, after) / 1e3);
    Ok(bench)
}

/// Set-up is repeated at evenly spaced points of the measuring time (the
/// first before it starts), so `setup_s` samples the same host conditions
/// as the passes rather than one moment at the start.
fn setup_due(cfg: &Config, start: Instant, setup_s: &[f64]) -> bool {
    let due = setup_s.len() as f64 * cfg.seconds / SETUP_REPS as f64;
    setup_s.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due
}

/// Start another pass while one more fits in the measuring time; the first
/// pass always runs.
fn another_pass(cfg: &Config, start: Instant, pass_s: &[f64]) -> bool {
    pass_s.is_empty() || cfg.seconds - start.elapsed().as_secs_f64() >= stats::median(pass_s)
}

impl Report {
    /// Fold one pass's op log in. With `digested`, the pass's result digest
    /// must repeat the first such pass's exactly.
    fn absorb(&mut self, log: &OpLog, digested: bool) {
        if digested {
            let digest = log.digest.finish();
            match self.first_digest {
                None => self.first_digest = Some(digest),
                Some(first) => self.repeatable &= digest == first,
            }
            self.digest = digest;
        }
        self.attempted += log.attempted;
        self.failed += log.failed;
        for f in &log.failures {
            if self.failures.len() < 5 {
                self.failures.push(f.clone());
            }
        }
    }
}

/// One pass's op latencies, failures and result digest.
#[derive(Default)]
pub(crate) struct OpLog {
    ms: Vec<f64>,
    /// Calibrate the host speed between timed ops (untraced end-to-end
    /// passes).
    calibrated: bool,
    /// Calibration results: one before the first op, then one after every
    /// [`calib::EVERY_MS`] of op time and one at the end of the pass.
    cal_ms: Vec<f64>,
    /// Latencies of the ops since the last calibration.
    pending_ms: Vec<f64>,
    /// Op latencies rescaled to the reference host speed.
    norm_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: stats::Digest,
}

impl OpLog {
    /// A log that calibrates the host speed between timed ops and rescales
    /// each op's latency to the reference host speed. Call
    /// [`OpLog::flush`] after the pass's last op.
    fn calibrated() -> Self {
        Self {
            calibrated: true,
            cal_ms: vec![calib::measure()],
            ..Self::default()
        }
    }

    /// Calibrate, and rescale the ops since the last calibration by the
    /// mean host speed of the two.
    fn flush(&mut self) {
        if self.pending_ms.is_empty() {
            return;
        }
        let before = self.cal_ms[self.cal_ms.len() - 1];
        let after = calib::measure();
        self.cal_ms.push(after);
        let norm = self
            .pending_ms
            .drain(..)
            .map(|ms| calib::normalize(ms, before, after));
        self.norm_ms.extend(norm);
    }

    /// Time one op. A returned error counts it as failed.
    pub(crate) fn op<R, E: fmt::Display>(
        &mut self,
        what: impl FnOnce() -> String,
        f: impl FnOnce() -> Result<R, E>,
    ) -> Option<R> {
        let t0 = Instant::now();
        let r = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.ms.push(ms);
        if self.calibrated {
            self.pending_ms.push(ms);
            if self.pending_ms.iter().sum::<f64>() >= calib::EVERY_MS {
                self.flush();
            }
        }
        self.checked(what, r)
    }

    /// Record the outcome of a call timed elsewhere (traced runs time calls
    /// with spans), counting it as an op. A returned error fails it.
    pub(crate) fn checked<R, E: fmt::Display>(
        &mut self,
        what: impl FnOnce() -> String,
        r: Result<R, E>,
    ) -> Option<R> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.note(format!("{}: {e}", what()));
                None
            }
        }
    }

    /// A benchmark-side check of an op that already succeeded: a
    /// divergence turns the op into a failure.
    pub(crate) fn verify(&mut self, what: impl FnOnce() -> String, divergence: Option<String>) {
        if let Some(d) = divergence {
            self.failed += 1;
            self.note(format!("{}: {d}", what()));
        }
    }

    /// Ops that could not run because an op they depend on failed.
    pub(crate) fn skipped(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    pub(crate) fn digest(&mut self, line: String) {
        self.digest.add(line);
    }

    fn note(&mut self, detail: String) {
        if self.failures.len() < 5 {
            self.failures.push(detail);
        }
    }
}

/// Exact counts of one traced pass, as the layers return them.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Exact {
    profile_steps: u64,
    regions: u64,
    sync_loads: u64,
    groups: u64,
    clones: u64,
    static_before: u64,
    static_after: u64,
    sim_runs: u64,
    instructions: u64,
    cycles: u64,
    epochs: u64,
    violations: u64,
    seq_instructions: u64,
    trace_events: u64,
    sim_lines: Vec<String>,
}

impl Exact {
    pub(crate) fn add_profile(&mut self, r: &tls_profile::ExecResult) {
        self.profile_steps += r.steps;
    }

    pub(crate) fn add_compile(&mut self, r: &tls_core::CompileReport, regions: usize) {
        self.regions += regions as u64;
        self.sync_loads += r.sync_loads as u64;
        self.groups += r.groups as u64;
        self.clones += r.clones as u64;
        self.static_before += r.static_before as u64;
        self.static_after += r.static_after as u64;
    }

    /// Count one simulation of `program` under `mode`; `seq_instructions`
    /// is the sequential baseline's instruction count for the same program.
    pub(crate) fn add_sim(
        &mut self,
        program: &str,
        mode: &str,
        r: &tls_sim::SimResult,
        seq_instructions: u64,
    ) {
        let epochs: u64 = r.regions.values().map(|s| s.epochs).sum();
        self.sim_runs += 1;
        self.instructions += r.instructions;
        self.cycles += r.total_cycles;
        self.epochs += epochs;
        self.violations += r.total_violations;
        self.seq_instructions += seq_instructions;
        self.sim_lines.push(sim_line(program, mode, r));
    }

    fn digest(&self) -> u64 {
        let mut d = stats::Digest::default();
        for l in &self.sim_lines {
            d.add(l.clone());
        }
        d.finish()
    }

    pub(crate) fn add_events(&mut self, n: usize) {
        self.trace_events += n as u64;
    }
}

/// The digest line of one simulation: cycles, instructions, committed
/// epochs and violations.
pub(crate) fn sim_line(program: &str, mode: &str, r: &tls_sim::SimResult) -> String {
    let epochs: u64 = r.regions.values().map(|s| s.epochs).sum();
    format!(
        "{program}/{mode}:{},{},{epochs},{}",
        r.total_cycles, r.instructions, r.total_violations
    )
}

/// Machine-counter totals from the separate counted runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Counted {
    l1_hits: u64,
    l2_hits: u64,
    mem_fetches: u64,
    spec_stores: u64,
    spec_loads_exposed: u64,
    commit_writes: u64,
}

impl Counted {
    pub(crate) fn add(&mut self, r: &tls_sim::SimResult) {
        if let Some(c) = &r.counters {
            self.l1_hits += c.l1_hits;
            self.l2_hits += c.l2_hits;
            self.mem_fetches += c.mem_fetches;
            self.spec_stores += c.spec_stores;
            self.spec_loads_exposed += c.spec_loads_exposed;
            self.commit_writes += c.commit_writes;
        }
    }
}

/// The per-layer values of one traced pass, in [`per_layer`] order.
fn layer_values(
    self_ms: &std::collections::BTreeMap<String, f64>,
    e: &Exact,
    c: &Counted,
    overhead_pct: f64,
) -> Vec<f64> {
    let ms = |n: &str| self_ms.get(n).copied().unwrap_or(0.0);
    let sim_ms: f64 = self_ms
        .iter()
        .filter(|(n, _)| n.starts_with("sim."))
        .map(|(_, v)| v)
        .sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let fuzz_other = if self_ms.contains_key("fuzz.check_seed") {
        ms("fuzz.check_seed") - ms("ir.generate") - ms("profile.seq") - ms("harness.prep") - sim_ms
    } else {
        0.0
    };
    let trace_record = if self_ms.contains_key("trace.run") {
        ms("trace.run") - sim_ms
    } else {
        0.0
    };
    let mut v = vec![
        ms("workloads.build"),
        ms("ir.generate"),
        ms("profile.profile"),
        ms("profile.seq"),
        e.profile_steps as f64,
        ratio(e.profile_steps as f64, ms("profile.profile") * 1e3),
        ms("core.compile_all"),
        e.regions as f64,
        e.sync_loads as f64,
        e.groups as f64,
        e.clones as f64,
        ratio(e.static_after as f64, e.static_before as f64),
        ms("harness.prep"),
        fuzz_other,
        sim_ms,
    ];
    for m in MODES {
        v.push(ms(&format!("sim.{}", mode_key(&m.label()))));
    }
    v.extend([
        ratio(e.instructions as f64, sim_ms * 1e3),
        ratio(sim_ms * 1e3, e.sim_runs as f64),
        e.instructions as f64,
        e.cycles as f64,
        e.epochs as f64,
        e.violations as f64,
        ratio(e.epochs as f64, (e.epochs + e.violations) as f64),
        ratio(e.seq_instructions as f64, e.instructions as f64),
        c.l1_hits as f64,
        c.l2_hits as f64,
        c.mem_fetches as f64,
        c.spec_stores as f64,
        c.spec_loads_exposed as f64,
        c.commit_writes as f64,
        e.trace_events as f64,
        trace_record,
        ms("model.check"),
        overhead_pct,
        // One worker thread: nothing ever queues for a layer.
        0.0,
    ]);
    v
}
