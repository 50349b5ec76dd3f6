//! Sequential IR interpreter with observation hooks.
//!
//! Defines the *architectural semantics* of the IR: the simulator in
//! `tls-sim` must produce exactly the output stream this interpreter
//! produces (TLS is invisible to the program). The TLS intrinsics have
//! well-defined sequential semantics so that *transformed* modules can also
//! be executed here and checked against the original:
//!
//! * `WaitScalar`/`SignalScalar` read/write a per-channel register, so
//!   iteration *k*'s wait sees the value signaled in iteration *k−1* (or in
//!   the preheader for the first iteration) — the same value TLS forwards;
//! * `SyncLoad` behaves as a plain load (sequentially the forwarded value
//!   and the memory value coincide, and on a mismatch the hardware falls
//!   back to memory anyway);
//! * `SignalMem`/`SignalMemNull` are no-ops sequentially.

use std::error::Error;
use std::fmt;

use tls_analysis::{Cfg, Dominators};
use tls_ir::{
    BlockId, FuncId, Instr, Module, Operand, RegionId, Sid, Terminator, Var,
};

use crate::memory::Memory;

/// Limits for one sequential run.
#[derive(Clone, Copy, Debug)]
pub struct InterpConfig {
    /// Maximum dynamic instructions (terminators included) before aborting.
    pub max_steps: u64,
    /// Maximum call depth before aborting.
    pub max_call_depth: usize,
}

impl Default for InterpConfig {
    fn default() -> Self {
        Self {
            max_steps: 2_000_000_000,
            max_call_depth: 256,
        }
    }
}

/// Why a run aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The step limit was exceeded (likely an unintended infinite loop).
    StepLimit(u64),
    /// The call-depth limit was exceeded.
    CallDepth(usize),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::StepLimit(n) => write!(f, "exceeded step limit of {n} instructions"),
            ExecError::CallDepth(n) => write!(f, "exceeded call depth of {n} frames"),
        }
    }
}

impl Error for ExecError {}

/// What a completed sequential run produced.
#[derive(Clone, Debug)]
pub struct ExecResult {
    /// The observable output stream (every `Output` value, in order).
    pub output: Vec<i64>,
    /// Value returned by the entry function (0 if it returned nothing).
    pub ret: i64,
    /// Dynamic instructions executed, terminators included.
    pub steps: u64,
    /// Final memory state.
    pub memory: Memory,
}

/// Dense index of a static natural loop within a module (all functions).
pub type LoopUid = usize;

/// One dynamic loop instance on the loop stack.
#[derive(Clone, Debug)]
pub struct LoopInstance {
    /// Which static loop this is an instance of.
    pub lu: LoopUid,
    /// Globally unique instance number (increasing).
    pub inst_seq: u64,
    /// Current iteration, starting at 0.
    pub iter: u64,
    /// Call depth at which the instance lives.
    pub frame_depth: usize,
    /// Length of the call-sid stack when the instance was entered; the call
    /// stack *rooted at this loop* is `trace.call_sids[base..]` (§2.3).
    pub call_base: usize,
}

/// Static description of one natural loop, precomputed per module.
#[derive(Clone, Debug)]
pub struct LoopMeta {
    /// Function containing the loop.
    pub func: FuncId,
    /// Header block.
    pub header: BlockId,
    /// Membership bitmap over the function's blocks.
    pub blocks: tls_analysis::BitSet,
    /// The speculative region this loop is, if any.
    pub region: Option<RegionId>,
}

/// Execution trace state visible to observers.
#[derive(Clone, Debug, Default)]
pub struct TraceState {
    /// Stack of call-site sids from the entry function to the current frame.
    pub call_sids: Vec<Sid>,
    /// Stack of active loop instances, outermost first (across frames).
    pub loops: Vec<LoopInstance>,
}

/// Hooks invoked by the interpreter as execution proceeds.
///
/// All methods default to no-ops; implement only what you need. Each hook
/// fires *after* the instruction's architectural effect.
#[allow(unused_variables)]
pub trait ExecObserver {
    /// Every dynamic instruction (not terminators).
    fn on_instr(&mut self, trace: &TraceState, func: FuncId, instr: &Instr) {}
    /// A load (or sync-load) read `value` from `addr`.
    fn on_load(&mut self, trace: &TraceState, sid: Sid, addr: i64, value: i64) {}
    /// A store wrote `value` to `addr`.
    fn on_store(&mut self, trace: &TraceState, sid: Sid, addr: i64, value: i64) {}
    /// A new loop instance was entered (it is now the top of `trace.loops`).
    fn on_loop_enter(&mut self, trace: &TraceState) {}
    /// The top loop instance advanced one iteration (back edge taken).
    fn on_loop_iter(&mut self, trace: &TraceState) {}
    /// The given instance (just removed from the stack) exited.
    fn on_loop_exit(&mut self, trace: &TraceState, closed: &LoopInstance) {}
}

/// Observer that records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl ExecObserver for NullObserver {}

struct Frame {
    func: FuncId,
    regs: Vec<i64>,
    block: BlockId,
    idx: usize,
    ret_to: Option<Var>,
    loop_base: usize,
    call_base: usize,
}

/// The sequential interpreter. Create one per run.
pub struct Interp<'m> {
    module: &'m Module,
    config: InterpConfig,
    /// Per function, per block: the loop the block heads, if any.
    headers: Vec<Vec<Option<LoopUid>>>,
    loop_meta: Vec<LoopMeta>,
    memory: Memory,
    chans: Vec<i64>,
    output: Vec<i64>,
    trace: TraceState,
    steps: u64,
    next_inst_seq: u64,
}

impl<'m> Interp<'m> {
    /// Prepare an interpreter for `module` (loads globals into memory and
    /// precomputes loop structure).
    pub fn new(module: &'m Module, config: InterpConfig) -> Self {
        let mut headers: Vec<Vec<Option<LoopUid>>> = module
            .funcs
            .iter()
            .map(|f| vec![None; f.blocks.len()])
            .collect();
        let mut loop_meta = Vec::new();
        for (fi, func) in module.funcs.iter().enumerate() {
            let fid = FuncId(fi as u32);
            let cfg = Cfg::new(func);
            let dom = Dominators::new(func, &cfg);
            for lp in tls_analysis::loops::find_loops(func, &cfg, &dom) {
                let lu = loop_meta.len();
                let mut blocks = tls_analysis::BitSet::new(func.blocks.len());
                for b in &lp.blocks {
                    blocks.insert(b.index());
                }
                let region = module.region_at(fid, lp.header).map(|r| r.id);
                headers[fi][lp.header.index()] = Some(lu);
                loop_meta.push(LoopMeta {
                    func: fid,
                    header: lp.header,
                    blocks,
                    region,
                });
            }
        }
        Self {
            memory: Memory::with_globals(module),
            module,
            config,
            headers,
            loop_meta,
            chans: vec![0; module.next_chan as usize],
            output: Vec::new(),
            trace: TraceState::default(),
            steps: 0,
            next_inst_seq: 0,
        }
    }

    /// Static loop metadata, indexed by [`LoopUid`].
    pub fn loop_meta(&self) -> &[LoopMeta] {
        &self.loop_meta
    }

    /// The module being executed.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Run the module's entry function to completion.
    ///
    /// # Errors
    /// [`ExecError::StepLimit`] / [`ExecError::CallDepth`] when the
    /// configured limits are exceeded.
    ///
    /// # Panics
    /// Panics if the entry function takes parameters (validated modules from
    /// workloads never do).
    pub fn run(&mut self, obs: &mut dyn ExecObserver) -> Result<ExecResult, ExecError> {
        let entry = self.module.func(self.module.entry);
        assert_eq!(entry.num_params, 0, "entry function must take no parameters");
        let mut frames = vec![Frame {
            func: self.module.entry,
            regs: vec![0; entry.num_vars],
            block: entry.entry(),
            idx: 0,
            ret_to: None,
            loop_base: 0,
            call_base: 0,
        }];
        // The entry block of the entry function could itself be a loop header
        // only in degenerate CFGs our builder can't produce; no bookkeeping
        // needed on entry.
        let mut final_ret = 0i64;
        'outer: while !frames.is_empty() {
            let cur_depth = frames.len();
            let frame = frames.last_mut().expect("nonempty");
            self.steps += 1;
            if self.steps > self.config.max_steps {
                return Err(ExecError::StepLimit(self.config.max_steps));
            }
            let func = self.module.func(frame.func);
            let block = func.block(frame.block);
            if frame.idx < block.instrs.len() {
                let instr = &block.instrs[frame.idx];
                frame.idx += 1;
                let fid = frame.func;
                // Evaluate and apply.
                match instr {
                    Instr::Assign { dst, src } => {
                        let v = eval(self.module, &frame.regs, *src);
                        frame.regs[dst.index()] = v;
                    }
                    Instr::Bin { dst, op, a, b } => {
                        let va = eval(self.module, &frame.regs, *a);
                        let vb = eval(self.module, &frame.regs, *b);
                        frame.regs[dst.index()] = op.eval(va, vb);
                    }
                    Instr::Load { dst, addr, off, sid }
                    | Instr::SyncLoad { dst, addr, off, sid, .. } => {
                        let a = eval(self.module, &frame.regs, *addr).wrapping_add(*off);
                        let v = self.memory.read(a);
                        frame.regs[dst.index()] = v;
                        obs.on_load(&self.trace, *sid, a, v);
                    }
                    Instr::Store { val, addr, off, sid } => {
                        let a = eval(self.module, &frame.regs, *addr).wrapping_add(*off);
                        let v = eval(self.module, &frame.regs, *val);
                        self.memory.write(a, v);
                        obs.on_store(&self.trace, *sid, a, v);
                    }
                    Instr::Call { dst, func: callee, args, sid } => {
                        if cur_depth >= self.config.max_call_depth {
                            return Err(ExecError::CallDepth(self.config.max_call_depth));
                        }
                        let cf = self.module.func(*callee);
                        let mut regs = vec![0i64; cf.num_vars];
                        for (i, a) in args.iter().enumerate() {
                            regs[i] = eval(self.module, &frame.regs, *a);
                        }
                        let instr_ref = instr.clone();
                        let new_frame = Frame {
                            func: *callee,
                            regs,
                            block: cf.entry(),
                            idx: 0,
                            ret_to: *dst,
                            loop_base: self.trace.loops.len(),
                            call_base: self.trace.call_sids.len(),
                        };
                        self.trace.call_sids.push(*sid);
                        obs.on_instr(&self.trace, fid, &instr_ref);
                        frames.push(new_frame);
                        continue 'outer;
                    }
                    Instr::Output { val } => {
                        let v = eval(self.module, &frame.regs, *val);
                        self.output.push(v);
                    }
                    Instr::EpochId { dst } => {
                        let iter = self
                            .trace
                            .loops
                            .iter()
                            .rev()
                            .find(|li| self.loop_meta[li.lu].region.is_some())
                            .map_or(0, |li| li.iter);
                        frame.regs[dst.index()] = iter as i64;
                    }
                    Instr::WaitScalar { dst, chan } => {
                        frame.regs[dst.index()] = self.chans[chan.index()];
                    }
                    Instr::SignalScalar { chan, val } => {
                        self.chans[chan.index()] = eval(self.module, &frame.regs, *val);
                    }
                    Instr::SignalMem { .. } | Instr::SignalMemNull { .. } => {}
                }
                obs.on_instr(&self.trace, fid, instr);
            } else {
                // Terminator.
                let term = block.term.as_ref().expect("validated module");
                match term {
                    Terminator::Jump(b) => {
                        let to = *b;
                        let depth = frames.len();
                        self.transfer(frames.last_mut().expect("frame"), to, depth, obs);
                    }
                    Terminator::Br { cond, t, f } => {
                        let c = eval(self.module, &frame.regs, *cond);
                        let to = if c != 0 { *t } else { *f };
                        let depth = frames.len();
                        self.transfer(frames.last_mut().expect("frame"), to, depth, obs);
                    }
                    Terminator::Ret(v) => {
                        let rv = v.map_or(0, |op| eval(self.module, &frame.regs, op));
                        let depth = frames.len();
                        let done = frames.pop().expect("frame");
                        // Close loop instances belonging to the popped frame.
                        while self.trace.loops.len() > done.loop_base {
                            let closed = self.trace.loops.pop().expect("loop instance");
                            debug_assert_eq!(closed.frame_depth, depth);
                            obs.on_loop_exit(&self.trace, &closed);
                        }
                        self.trace.call_sids.truncate(done.call_base);
                        match frames.last_mut() {
                            Some(caller) => {
                                if let Some(dst) = done.ret_to {
                                    caller.regs[dst.index()] = rv;
                                }
                            }
                            None => final_ret = rv,
                        }
                    }
                }
            }
        }
        Ok(ExecResult {
            output: std::mem::take(&mut self.output),
            ret: final_ret,
            steps: self.steps,
            memory: std::mem::replace(&mut self.memory, Memory::new()),
        })
    }

    /// Move `frame` to block `to`, maintaining the loop-instance stack.
    fn transfer(&mut self, frame: &mut Frame, to: BlockId, depth: usize, obs: &mut dyn ExecObserver) {
        // Close loops (of this frame) that do not contain the target.
        while let Some(top) = self.trace.loops.last() {
            if top.frame_depth == depth
                && self.trace.loops.len() > frame.loop_base
                && !self.loop_meta[top.lu].blocks.contains(to.index())
            {
                let closed = self.trace.loops.pop().expect("loop instance");
                obs.on_loop_exit(&self.trace, &closed);
            } else {
                break;
            }
        }
        // Entering (or iterating) a loop headed at `to`?
        if let Some(lu) = self.headers[frame.func.index()][to.index()] {
            let top_is_same = self
                .trace
                .loops
                .last()
                .is_some_and(|top| top.frame_depth == depth && top.lu == lu);
            if top_is_same {
                self.trace.loops.last_mut().expect("loop instance").iter += 1;
                obs.on_loop_iter(&self.trace);
            } else {
                let inst_seq = self.next_inst_seq;
                self.next_inst_seq += 1;
                self.trace.loops.push(LoopInstance {
                    lu,
                    inst_seq,
                    iter: 0,
                    frame_depth: depth,
                    call_base: self.trace.call_sids.len(),
                });
                obs.on_loop_enter(&self.trace);
            }
        }
        frame.block = to;
        frame.idx = 0;
    }
}

#[inline]
fn eval(module: &Module, regs: &[i64], op: Operand) -> i64 {
    match op {
        Operand::Var(v) => regs[v.index()],
        Operand::Const(c) => c,
        Operand::Global(g) => module.global(g).addr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tls_ir::{BinOp, ModuleBuilder, Operand};

    /// Sum 0..n via a loop, n passed through a global.
    fn sum_module(n: i64) -> tls_ir::Module {
        let mut mb = ModuleBuilder::new();
        let gn = mb.add_global("n", 1, vec![n]);
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (nv, i, sum, c) = (fb.var("n"), fb.var("i"), fb.var("sum"), fb.var("c"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.load(nv, gn, 0);
        fb.assign(i, 0);
        fb.assign(sum, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, nv);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.bin(sum, BinOp::Add, sum, i);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.output(sum);
        fb.ret(Some(Operand::Var(sum)));
        fb.finish();
        mb.set_entry(f);
        mb.build().expect("valid")
    }

    #[test]
    fn computes_triangular_numbers() {
        let m = sum_module(10);
        let r = crate::run_sequential(&m).expect("runs");
        assert_eq!(r.output, vec![45]);
        assert_eq!(r.ret, 45);
        assert!(r.steps > 10);
    }

    #[test]
    fn step_limit_aborts_infinite_loops() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let b = fb.block("spin");
        fb.jump(b);
        fb.switch_to(b);
        fb.jump(b);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let mut interp = Interp::new(
            &m,
            InterpConfig {
                max_steps: 1000,
                max_call_depth: 8,
            },
        );
        let err = interp.run(&mut NullObserver).expect_err("must abort");
        assert_eq!(err, ExecError::StepLimit(1000));
    }

    #[test]
    fn call_depth_aborts_runaway_recursion() {
        let mut mb = ModuleBuilder::new();
        let r = mb.declare("r", 0);
        let main = mb.declare("main", 0);
        let mut fb = mb.define(r);
        fb.call(None, r, vec![]);
        fb.ret(None);
        fb.finish();
        let mut fb = mb.define(main);
        fb.call(None, r, vec![]);
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        let m = mb.build().expect("valid");
        let mut interp = Interp::new(
            &m,
            InterpConfig {
                max_steps: 1_000_000,
                max_call_depth: 16,
            },
        );
        let err = interp.run(&mut NullObserver).expect_err("must abort");
        assert_eq!(err, ExecError::CallDepth(16));
    }

    #[test]
    fn calls_pass_arguments_and_return_values() {
        let mut mb = ModuleBuilder::new();
        let add = mb.declare("add", 2);
        let main = mb.declare("main", 0);
        let mut fb = mb.define(add);
        let s = fb.var("s");
        fb.bin(s, BinOp::Add, fb.param(0), fb.param(1));
        fb.ret(Some(Operand::Var(s)));
        fb.finish();
        let mut fb = mb.define(main);
        let r = fb.var("r");
        fb.call(Some(r), add, vec![Operand::Const(40), Operand::Const(2)]);
        fb.output(r);
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        let m = mb.build().expect("valid");
        let r = crate::run_sequential(&m).expect("runs");
        assert_eq!(r.output, vec![42]);
        assert_eq!(r.ret, 0);
    }

    #[test]
    fn scalar_channels_carry_values_between_iterations() {
        // Loop where each iteration waits for the previous iteration's value
        // and adds 1; the preheader signals the initial value 100.
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let chan = mb.fresh_chan();
        let mut fb = mb.define(f);
        let (i, v, c) = (fb.var("i"), fb.var("v"), fb.var("c"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.signal_scalar(chan, 100);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, 3);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.wait_scalar(v, chan);
        fb.bin(v, BinOp::Add, v, 1);
        fb.signal_scalar(chan, v);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.wait_scalar(v, chan);
        fb.output(v);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().expect("valid");
        let r = crate::run_sequential(&m).expect("runs");
        assert_eq!(r.output, vec![103]);
    }

    /// Observer that records loop events as strings.
    #[derive(Default)]
    struct LoopLog(Vec<String>);

    impl ExecObserver for LoopLog {
        fn on_loop_enter(&mut self, trace: &TraceState) {
            let top = trace.loops.last().expect("entered loop");
            self.0.push(format!("enter {} seq {}", top.lu, top.inst_seq));
        }
        fn on_loop_iter(&mut self, trace: &TraceState) {
            let top = trace.loops.last().expect("iterating loop");
            self.0.push(format!("iter {} -> {}", top.lu, top.iter));
        }
        fn on_loop_exit(&mut self, _trace: &TraceState, closed: &LoopInstance) {
            self.0.push(format!("exit {} iters {}", closed.lu, closed.iter));
        }
    }

    #[test]
    fn loop_events_track_instances_and_iterations() {
        let m = sum_module(3);
        let mut interp = Interp::new(&m, InterpConfig::default());
        let mut log = LoopLog::default();
        interp.run(&mut log).expect("runs");
        assert_eq!(
            log.0,
            vec![
                "enter 0 seq 0",
                "iter 0 -> 1",
                "iter 0 -> 2",
                "iter 0 -> 3",
                "exit 0 iters 3",
            ]
        );
    }

    #[test]
    fn epoch_id_reads_region_iteration() {
        // Mark the loop as a region, then output epoch ids 0,1,2.
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let (i, e, c) = (fb.var("i"), fb.var("e"), fb.var("c"));
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.assign(i, 0);
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, i, 3);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.epoch_id(e);
        fb.output(e);
        fb.bin(i, BinOp::Add, i, 1);
        fb.jump(head);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let module_mut = mb.module_mut();
        module_mut.regions.push(tls_ir::SpecRegion {
            id: tls_ir::RegionId(0),
            func: tls_ir::FuncId(0),
            header: BlockId(1),
            blocks: vec![BlockId(1), BlockId(2)],
            unroll: 1,
        });
        let m = mb.build().expect("valid");
        let r = crate::run_sequential(&m).expect("runs");
        assert_eq!(r.output, vec![0, 1, 2]);
    }
}
