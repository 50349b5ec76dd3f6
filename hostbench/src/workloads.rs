//! The three workloads: what each sets up, what one pass of ops is, and how
//! a traced pass splits each op into calls to the layers' public functions.
//!
//! A traced pass makes, next to each op's own call, standalone calls to the
//! layer functions that call is built from (`compile_all` on the inputs the
//! harness compiles, `profile_module` on the module `compile_all` profiles,
//! and so on). Those calls sit beside the op's call in the span tree, so a
//! layer's figure is the time of its own public function on the same
//! inputs, and the op's call still measures what the untraced run times.

use tls_core::{compile_all, CompileOptions};
use tls_experiments::conform::conform_run;
use tls_experiments::fuzz::{check_seed, FuzzConfig};
use tls_experiments::{spec_modes, Harness, Mode, MODES};
use tls_ir::{generate, validate, validate_epochs, Module, SplitMix64};
use tls_profile::{profile_module, run_sequential, ArchOutcome, InterpConfig};
use tls_sim::RecordingTracer;
use tls_workloads::InputSet;

use crate::spans::Spans;
use crate::{mode_key, Config, Counted, Exact, OpLog, Workload};

/// Generated programs per `fuzz_diff` pass.
pub(crate) const FUZZ_SEEDS: u64 = 400;

/// One workload, set up and ready to run passes.
pub(crate) trait Bench {
    /// One untraced pass: every op timed and checked.
    fn pass(&self, log: &mut OpLog);
    /// One traced pass: a span around every public call, exact counts into
    /// `exact`, and — when `counted` is given — machine counters from
    /// separate counted runs outside every span.
    fn traced_pass(
        &self,
        t: &mut Spans,
        log: &mut OpLog,
        exact: &mut Exact,
        counted: Option<&mut Counted>,
    );
    /// The span names that wrap the same calls an untraced op makes.
    fn is_op_span(&self, name: &str) -> bool;
}

/// Build a workload's inputs (and references), ready to run passes.
pub(crate) fn setup(cfg: &Config) -> Result<Box<dyn Bench>, String> {
    Ok(match cfg.workload {
        Workload::PaperRef => Box::new(PaperRef {
            programs: programs(cfg.seed)?,
        }),
        Workload::FuzzDiff => Box::new(FuzzDiff::setup(cfg)?),
        Workload::ConformTraced => Box::new(ConformTraced::setup(cfg.seed)?),
    })
}

/// `v` in a seed-chosen order (Fisher–Yates over `SplitMix64`).
fn shuffled<T>(seed: u64, mut v: Vec<T>) -> Vec<T> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.pick(i + 1));
    }
    v
}

/// A workload program with its measurement (ref) input, its train input
/// and the sequential interpreter's outcome on the measurement input.
struct Program {
    workload: tls_workloads::Workload,
    measure: Module,
    train: Module,
    reference: ArchOutcome,
}

fn programs(seed: u64) -> Result<Vec<Program>, String> {
    shuffled(seed, tls_workloads::all())
        .into_iter()
        .map(|w| {
            let measure = w.module(InputSet::Ref);
            let reference = ArchOutcome::of(&measure, InterpConfig::default())
                .map_err(|e| format!("{}: sequential interpreter: {e}", w.name))?;
            Ok(Program {
                workload: w,
                train: w.module(InputSet::Train),
                measure,
                reference,
            })
        })
        .collect()
}

impl Program {
    fn name(&self) -> &'static str {
        self.workload.name
    }

    fn prepare(&self) -> Result<Harness, tls_experiments::ExperimentError> {
        Harness::from_modules(
            self.name(),
            &self.measure,
            Some(&self.train),
            &CompileOptions::default(),
        )
    }

    /// The simulator's sequential baseline against the interpreter.
    fn check_baseline(&self, h: &Harness) -> Option<String> {
        self.reference
            .diff_outside(&h.seq.output, h.seq.ret, &h.seq.memory, &h.scratch)
    }

    /// The layer calls `prepare` is built from, each in its own span.
    fn traced_layers(&self, t: &mut Spans, op: u64, log: &mut OpLog, exact: &mut Exact) {
        let w = self.workload;
        t.span("workloads.build", op, |_| {
            (w.module(InputSet::Train), w.module(InputSet::Ref))
        });
        let name = self.name();
        if let Some(r) = log.checked(
            || format!("{name}: interpreter"),
            t.span("profile.seq", op, |_| run_sequential(&self.measure)),
        ) {
            exact.add_profile(&r);
        }
        log.checked(
            || format!("{name}: profile"),
            t.span("profile.profile", op, |_| profile_module(&self.measure)),
        );
        let opts = CompileOptions::default();
        for profile_input in [&self.measure, &self.train] {
            let set = t.span("core.compile_all", op, |_| {
                compile_all(&self.measure, profile_input, &opts)
            });
            if let Some(set) = log.checked(|| format!("{name}: compile"), set) {
                exact.add_compile(&set.report, set.regions.len());
            }
        }
    }
}

/// `paper_ref`: the work behind `repro all` at ref scale.
struct PaperRef {
    programs: Vec<Program>,
}

impl Bench for PaperRef {
    fn pass(&self, log: &mut OpLog) {
        for p in &self.programs {
            let Some(h) = log.op(|| format!("{}: prepare", p.name()), || p.prepare()) else {
                log.skipped(MODES.len() as u64);
                continue;
            };
            log.verify(|| format!("{}: baseline", p.name()), p.check_baseline(&h));
            for mode in MODES {
                let label = mode.label();
                if let Some(r) = log.op(|| format!("{}/{label}", p.name()), || h.run(mode)) {
                    log.digest(crate::sim_line(p.name(), &label, &r));
                }
            }
        }
    }

    fn traced_pass(
        &self,
        t: &mut Spans,
        log: &mut OpLog,
        exact: &mut Exact,
        mut counted: Option<&mut Counted>,
    ) {
        let mut op = 0;
        for p in &self.programs {
            let h = t.span("op", op, |t| {
                p.traced_layers(t, op, log, exact);
                let h = t.span("harness.prep", op, |_| p.prepare());
                log.checked(|| format!("{}: prepare", p.name()), h)
            });
            op += 1;
            let Some(h) = h else { continue };
            log.verify(|| format!("{}: baseline", p.name()), p.check_baseline(&h));
            for mode in MODES {
                let label = mode.label();
                let r = t.span("op", op, |t| {
                    t.span(format!("sim.{}", mode_key(&label)), op, |_| h.run(mode))
                });
                op += 1;
                if let Some(r) = log.checked(|| format!("{}/{label}", p.name()), r) {
                    exact.add_sim(p.name(), &label, &r, h.seq.instructions);
                }
                if let Some(c) = counted.as_deref_mut() {
                    if let Some(r) = log.checked(
                        || format!("{}/{label} counted", p.name()),
                        h.run_counted(mode),
                    ) {
                        c.add(&r);
                    }
                }
            }
        }
    }

    fn is_op_span(&self, name: &str) -> bool {
        name == "harness.prep" || name.starts_with("sim.")
    }
}

/// `fuzz_diff`: the differential fuzzer over many tiny generated programs.
struct FuzzDiff {
    seeds: Vec<u64>,
    cfg: FuzzConfig,
}

impl FuzzDiff {
    /// Generate and validate every program of the seed range, so a
    /// generator fault shows before any timing starts.
    fn setup(cfg: &Config) -> Result<Self, String> {
        let fuzz = FuzzConfig {
            break_forwarded_recovery: cfg.break_forwarding,
            ..FuzzConfig::default()
        };
        let seeds: Vec<u64> = (0..cfg.fuzz_seeds)
            .map(|i| cfg.seed.wrapping_add(i))
            .collect();
        for &s in &seeds {
            for salt in [0, 1] {
                let m = generate(s, &fuzz.gen, salt);
                validate(&m).map_err(|e| format!("seed {s}: {e}"))?;
                validate_epochs(&m).map_err(|e| format!("seed {s}: {e}"))?;
            }
        }
        Ok(Self { seeds, cfg: fuzz })
    }
}

impl Bench for FuzzDiff {
    fn pass(&self, log: &mut OpLog) {
        for &s in &self.seeds {
            if let Some(st) = log.op(|| format!("seed {s}"), || check_seed(s, &self.cfg)) {
                log.digest(format!(
                    "{s}:{},{},{},{}",
                    st.regions, st.sync_loads, st.violations, st.oracle_steps
                ));
            }
        }
    }

    fn traced_pass(
        &self,
        t: &mut Spans,
        log: &mut OpLog,
        exact: &mut Exact,
        mut counted: Option<&mut Counted>,
    ) {
        let cfg = &self.cfg;
        let opts = cfg.compile_options();
        for (op, &s) in (0u64..).zip(&self.seeds) {
            let prog = s.to_string();
            let h = t.span("op", op, |t| {
                let r = t.span("fuzz.check_seed", op, |_| check_seed(s, cfg));
                log.checked(|| format!("seed {s}"), r);
                // The calls `check_seed` is built from, each on its own.
                let measure = t.span("ir.generate", op, |_| generate(s, &cfg.gen, 0));
                let train = t.span("ir.generate", op, |_| generate(s, &cfg.gen, 1));
                let seq = t.span("profile.seq", op, |_| run_sequential(&measure));
                if let Some(seq) = log.checked(|| format!("seed {s}: interpreter"), seq) {
                    exact.add_profile(&seq);
                }
                let prof = t.span("profile.profile", op, |_| profile_module(&measure));
                log.checked(|| format!("seed {s}: profile"), prof);
                for profile_input in [&measure, &train] {
                    let set = t.span("core.compile_all", op, |_| {
                        compile_all(&measure, profile_input, &opts)
                    });
                    if let Some(set) = log.checked(|| format!("seed {s}: compile"), set) {
                        exact.add_compile(&set.report, set.regions.len());
                    }
                }
                let h = t.span("harness.prep", op, |_| {
                    Harness::from_modules("fuzz", &measure, Some(&train), &opts)
                });
                let mut h = log.checked(|| format!("seed {s}: prepare"), h)?;
                h.base.max_steps = cfg.max_sim_steps;
                h.base.break_forwarded_recovery = cfg.break_forwarded_recovery;
                for mode in MODES {
                    let label = mode.label();
                    let r = t.span(format!("sim.{}", mode_key(&label)), op, |_| h.run(mode));
                    if let Some(r) = log.checked(|| format!("seed {s}/{label}"), r) {
                        exact.add_sim(&prog, &label, &r, h.seq.instructions);
                    }
                }
                Some(h)
            });
            if let (Some(h), Some(c)) = (h, counted.as_deref_mut()) {
                for mode in MODES {
                    let r = h.run_counted(mode);
                    if let Some(r) = log.checked(|| format!("seed {s}/{} counted", mode.label()), r)
                    {
                        c.add(&r);
                    }
                }
            }
        }
    }

    fn is_op_span(&self, name: &str) -> bool {
        name == "fuzz.check_seed"
    }
}

/// `conform_traced`: quick-scale programs × speculative modes, each run
/// recorded and checked against the protocol model.
struct ConformTraced {
    harnesses: Vec<(tls_workloads::Workload, Harness)>,
}

impl ConformTraced {
    fn setup(seed: u64) -> Result<Self, String> {
        let harnesses = shuffled(seed, tls_workloads::all())
            .into_iter()
            .map(|w| {
                let m = w.module(InputSet::Train);
                Harness::from_modules(w.name, &m, None, &CompileOptions::default())
                    .map(|h| (w, h))
                    .map_err(|e| format!("{}: {e}", w.name))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { harnesses })
    }
}

impl Bench for ConformTraced {
    fn pass(&self, log: &mut OpLog) {
        for (w, h) in &self.harnesses {
            for &mode in spec_modes() {
                let label = mode.label();
                if let Some(st) = log.op(|| format!("{}/{label}", w.name), || conform_run(h, mode))
                {
                    log.digest(format!("{}/{label}:{st:?}", w.name));
                }
            }
        }
    }

    fn traced_pass(
        &self,
        t: &mut Spans,
        log: &mut OpLog,
        exact: &mut Exact,
        mut counted: Option<&mut Counted>,
    ) {
        let mut op = 0;
        for (w, h) in &self.harnesses {
            t.span("workloads.build", op, |_| w.module(InputSet::Train));
            for &mode in spec_modes() {
                let label = mode.label();
                t.span("op", op, |t| {
                    let r = t.span("conform.conform_run", op, |_| conform_run(h, mode));
                    log.checked(|| format!("{}/{label}", w.name), r);
                    // The calls `conform_run` is built from, each on its own.
                    traced_conform(t, op, h, mode, w.name, log, exact);
                });
                op += 1;
                if let Some(c) = counted.as_deref_mut() {
                    let r = h.run_counted(mode);
                    if let Some(r) = log.checked(|| format!("{}/{label} counted", w.name), r) {
                        c.add(&r);
                    }
                }
            }
        }
    }

    fn is_op_span(&self, name: &str) -> bool {
        name == "conform.conform_run"
    }
}

/// An untraced run, a recorded run and the model check of one mode.
fn traced_conform(
    t: &mut Spans,
    op: u64,
    h: &Harness,
    mode: Mode,
    program: &str,
    log: &mut OpLog,
    exact: &mut Exact,
) {
    let label = mode.label();
    let r = t.span(format!("sim.{}", mode_key(&label)), op, |_| h.run(mode));
    if let Some(r) = log.checked(|| format!("{program}/{label}"), r) {
        exact.add_sim(program, &label, &r, h.seq.instructions);
    }
    let events = t.span("trace.run", op, |_| {
        let mut rec = RecordingTracer::default();
        h.run_traced(mode, &mut rec).map(|_| rec.events)
    });
    let Some(events) = log.checked(|| format!("{program}/{label} traced"), events) else {
        return;
    };
    exact.add_events(events.len());
    let checked = t.span("model.check", op, |_| h.check_conformance(mode, &events));
    log.checked(|| format!("{program}/{label} model"), checked);
}
