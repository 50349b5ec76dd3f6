//! Structural validation of modules.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::ids::{BlockId, ChanId, FuncId, GroupId, Sid, Var};
use crate::instr::{Instr, Operand, Terminator};
use crate::module::{Function, Module};

/// A structural defect found in a module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// The entry function id is out of range.
    BadEntry(FuncId),
    /// A block has no terminator.
    Unterminated {
        /// The offending function.
        func: String,
        /// The unterminated block.
        block: BlockId,
    },
    /// A terminator or region names a block that does not exist.
    BadBlock {
        /// The offending function.
        func: String,
        /// The nonexistent block.
        block: BlockId,
    },
    /// An instruction names a register `>= num_vars`.
    BadVar {
        /// The offending function.
        func: String,
        /// The out-of-range register.
        var: Var,
    },
    /// A call site names a function that does not exist.
    BadCallee {
        /// The offending function.
        func: String,
        /// The nonexistent callee id.
        callee: FuncId,
    },
    /// A call passes the wrong number of arguments.
    BadArity {
        /// The calling function.
        func: String,
        /// The callee's name.
        callee: String,
        /// The callee's parameter count.
        expected: usize,
        /// The number of arguments passed.
        got: usize,
    },
    /// An operand names a global that does not exist.
    BadGlobal {
        /// The offending function.
        func: String,
    },
    /// Two instructions share a static id.
    DuplicateSid {
        /// The function holding the second occurrence.
        func: String,
    },
    /// An instruction carries a static id at or above the module's
    /// `next_sid`; executors size their per-sid tables by that count.
    SidOutOfRange {
        /// The offending function.
        func: String,
        /// The out-of-range id.
        sid: Sid,
        /// The module's `next_sid`.
        next_sid: u32,
    },
    /// A scalar wait or signal names a channel at or above `next_chan`.
    ChanOutOfRange {
        /// The offending function.
        func: String,
        /// The out-of-range channel.
        chan: ChanId,
        /// The module's `next_chan`.
        next_chan: u32,
    },
    /// A memory wait or signal names a group at or above `next_group`.
    GroupOutOfRange {
        /// The offending function.
        func: String,
        /// The out-of-range group.
        group: GroupId,
        /// The module's `next_group`.
        next_group: u32,
    },
    /// The entry function takes parameters; execution starts it with none.
    EntryHasParams {
        /// The entry function's name.
        func: String,
        /// Its parameter count.
        params: usize,
    },
    /// A region's header is not in its block list, or a region block does
    /// not exist.
    BadRegion {
        /// The malformed region's id.
        region: u32,
    },
    /// The entry function contains no loop (no backward control edge), so
    /// the program has zero epochs and every TLS mode trivially agrees.
    /// Raised only by [`validate_epochs`].
    NoEpochs,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadEntry(id) => write!(f, "entry function {id} does not exist"),
            ValidateError::Unterminated { func, block } => {
                write!(f, "block {block} of `{func}` has no terminator")
            }
            ValidateError::BadBlock { func, block } => {
                write!(f, "`{func}` references nonexistent block {block}")
            }
            ValidateError::BadVar { func, var } => {
                write!(f, "`{func}` references out-of-range register {var}")
            }
            ValidateError::BadCallee { func, callee } => {
                write!(f, "`{func}` calls nonexistent function {callee}")
            }
            ValidateError::BadArity {
                func,
                callee,
                expected,
                got,
            } => write!(
                f,
                "`{func}` calls `{callee}` with {got} arguments, expected {expected}"
            ),
            ValidateError::BadGlobal { func } => {
                write!(f, "`{func}` references a nonexistent global")
            }
            ValidateError::DuplicateSid { func } => {
                write!(f, "duplicate static instruction id in `{func}`")
            }
            ValidateError::SidOutOfRange {
                func,
                sid,
                next_sid,
            } => write!(
                f,
                "`{func}` uses static instruction id {sid}, but the module counts only {next_sid}"
            ),
            ValidateError::ChanOutOfRange {
                func,
                chan,
                next_chan,
            } => write!(
                f,
                "`{func}` uses scalar channel {chan}, but the module counts only {next_chan}"
            ),
            ValidateError::GroupOutOfRange {
                func,
                group,
                next_group,
            } => write!(
                f,
                "`{func}` uses memory group {group}, but the module counts only {next_group}"
            ),
            ValidateError::EntryHasParams { func, params } => write!(
                f,
                "entry function `{func}` takes {params} parameters, expected none"
            ),
            ValidateError::BadRegion { region } => write!(f, "region {region} is malformed"),
            ValidateError::NoEpochs => {
                write!(f, "entry function has no loop: the program has zero epochs")
            }
        }
    }
}

impl Error for ValidateError {}

/// Check the structural invariants of a module, including what the
/// profiler, the compiler and the simulator assume of their input: ids
/// below the module's counts and an entry function without parameters.
///
/// # Errors
/// Returns the first defect found.
pub fn validate(m: &Module) -> Result<(), ValidateError> {
    if m.entry.index() >= m.funcs.len() {
        return Err(ValidateError::BadEntry(m.entry));
    }
    let entry = &m.funcs[m.entry.index()];
    if entry.num_params != 0 {
        return Err(ValidateError::EntryHasParams {
            func: entry.name.clone(),
            params: entry.num_params,
        });
    }
    let mut sids = HashSet::new();
    for func in &m.funcs {
        validate_func(m, func, &mut sids)?;
    }
    for r in &m.regions {
        if r.func.index() >= m.funcs.len() {
            return Err(ValidateError::BadRegion { region: r.id.0 });
        }
        let nblocks = m.funcs[r.func.index()].blocks.len();
        if !r.blocks.contains(&r.header)
            || r.blocks.iter().any(|b| b.index() >= nblocks)
            || r.unroll == 0
        {
            return Err(ValidateError::BadRegion { region: r.id.0 });
        }
    }
    Ok(())
}

/// Check that the entry function contains at least one loop — i.e. at
/// least one terminator targeting an earlier (or the same) block. Builder
/// output lays blocks out in creation order, so a backward edge is exactly
/// a loop. Modules without one have zero epochs: nothing speculates, every
/// mode agrees trivially, and a fuzz run over them tests nothing — the
/// fuzzer rejects them up front with this check.
///
/// Kept separate from [`validate`] because legitimately loop-free modules
/// exist (tiny hand-built test programs); only epoch-oriented pipelines
/// should insist on epochs.
///
/// # Errors
/// [`ValidateError::NoEpochs`] if the entry function has no backward edge.
pub fn validate_epochs(m: &Module) -> Result<(), ValidateError> {
    if m.entry.index() >= m.funcs.len() {
        return Err(ValidateError::BadEntry(m.entry));
    }
    let func = &m.funcs[m.entry.index()];
    for (bi, block) in func.blocks.iter().enumerate() {
        let mut targets: Vec<BlockId> = Vec::new();
        match &block.term {
            Some(Terminator::Jump(t)) => targets.push(*t),
            Some(Terminator::Br { t, f, .. }) => {
                targets.push(*t);
                targets.push(*f);
            }
            _ => {}
        }
        if targets.iter().any(|t| t.index() <= bi) {
            return Ok(());
        }
    }
    Err(ValidateError::NoEpochs)
}

fn validate_func(
    m: &Module,
    func: &Function,
    sids: &mut HashSet<u32>,
) -> Result<(), ValidateError> {
    let name = || func.name.clone();
    let check_var = |v: Var| {
        if v.index() >= func.num_vars {
            Err(ValidateError::BadVar {
                func: name(),
                var: v,
            })
        } else {
            Ok(())
        }
    };
    let check_operand = |op: &Operand| match op {
        Operand::Var(v) => check_var(*v),
        Operand::Global(g) => {
            if g.index() >= m.globals.len() {
                Err(ValidateError::BadGlobal { func: name() })
            } else {
                Ok(())
            }
        }
        Operand::Const(_) => Ok(()),
    };
    let check_block = |b: BlockId| {
        if b.index() >= func.blocks.len() {
            Err(ValidateError::BadBlock {
                func: name(),
                block: b,
            })
        } else {
            Ok(())
        }
    };

    for (bid, block) in func.iter_blocks() {
        for instr in &block.instrs {
            if let Some(v) = instr.def() {
                check_var(v)?;
            }
            let mut res = Ok(());
            instr.visit_operands(|op| {
                if res.is_ok() {
                    res = check_operand(op);
                }
            });
            res?;
            if let Some(sid) = instr.sid() {
                if sid.0 >= m.next_sid {
                    return Err(ValidateError::SidOutOfRange {
                        func: name(),
                        sid,
                        next_sid: m.next_sid,
                    });
                }
                if !sids.insert(sid.0) {
                    return Err(ValidateError::DuplicateSid { func: name() });
                }
            }
            match *instr {
                Instr::WaitScalar { chan, .. } | Instr::SignalScalar { chan, .. }
                    if chan.0 >= m.next_chan =>
                {
                    return Err(ValidateError::ChanOutOfRange {
                        func: name(),
                        chan,
                        next_chan: m.next_chan,
                    });
                }
                Instr::SyncLoad { group, .. }
                | Instr::SignalMem { group, .. }
                | Instr::SignalMemNull { group }
                    if group.0 >= m.next_group =>
                {
                    return Err(ValidateError::GroupOutOfRange {
                        func: name(),
                        group,
                        next_group: m.next_group,
                    });
                }
                _ => {}
            }
            if let Instr::Call { func: callee, args, .. } = instr {
                let Some(cf) = m.funcs.get(callee.index()) else {
                    return Err(ValidateError::BadCallee {
                        func: name(),
                        callee: *callee,
                    });
                };
                if cf.num_params != args.len() {
                    return Err(ValidateError::BadArity {
                        func: name(),
                        callee: cf.name.clone(),
                        expected: cf.num_params,
                        got: args.len(),
                    });
                }
            }
        }
        match &block.term {
            None => {
                return Err(ValidateError::Unterminated {
                    func: name(),
                    block: bid,
                })
            }
            Some(Terminator::Jump(b)) => check_block(*b)?,
            Some(Terminator::Br { cond, t, f }) => {
                check_operand(cond)?;
                check_block(*t)?;
                check_block(*f)?;
            }
            Some(Terminator::Ret(v)) => {
                if let Some(op) = v {
                    check_operand(op)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ids::{RegionId, Sid};
    use crate::module::SpecRegion;

    fn tiny() -> ModuleBuilder {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        fb.ret(None);
        fb.finish();
        mb
    }

    #[test]
    fn valid_module_passes() {
        assert!(tiny().build().is_ok());
    }

    #[test]
    fn unterminated_block_is_rejected() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let fb = mb.define(f);
        fb.finish(); // entry block never terminated
        let m = mb.build_unchecked();
        assert!(matches!(
            validate(&m),
            Err(ValidateError::Unterminated { .. })
        ));
    }

    #[test]
    fn out_of_range_var_is_rejected() {
        let mut mb = tiny();
        mb.module_mut().funcs[0].blocks[0]
            .instrs
            .push(Instr::Assign {
                dst: Var(99),
                src: Operand::Const(0),
            });
        assert!(matches!(
            validate(&mb.build_unchecked()),
            Err(ValidateError::BadVar { .. })
        ));
    }

    #[test]
    fn bad_callee_and_arity_are_rejected() {
        let mut mb = ModuleBuilder::new();
        let callee = mb.declare("callee", 2);
        let main = mb.declare("main", 0);
        let mut fb = mb.define(callee);
        fb.ret(None);
        fb.finish();
        let mut fb = mb.define(main);
        fb.call(None, callee, vec![Operand::Const(1)]); // wrong arity
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        assert!(matches!(
            mb.build(),
            Err(ValidateError::BadArity { expected: 2, got: 1, .. })
        ));
    }

    #[test]
    fn duplicate_sid_is_rejected() {
        let mut mb = tiny();
        let g = mb.add_global("g", 1, vec![]);
        let m = mb.module_mut();
        m.next_sid = 1;
        let instrs = &mut m.funcs[0].blocks[0].instrs;
        for _ in 0..2 {
            instrs.push(Instr::Store {
                val: Operand::Const(1),
                addr: Operand::Global(g),
                off: 0,
                sid: Sid(0),
            });
        }
        assert!(matches!(
            validate(&mb.build_unchecked()),
            Err(ValidateError::DuplicateSid { .. })
        ));
    }

    #[test]
    fn ids_past_the_module_counts_are_rejected() {
        let mut mb = tiny();
        let g = mb.add_global("g", 1, vec![]);
        let m = mb.module_mut();
        m.funcs[0].blocks[0].instrs.push(Instr::Store {
            val: Operand::Const(1),
            addr: Operand::Global(g),
            off: 0,
            sid: Sid(0),
        });
        assert_eq!(
            validate(m),
            Err(ValidateError::SidOutOfRange {
                func: "main".into(),
                sid: Sid(0),
                next_sid: 0,
            })
        );
        m.next_sid = 1;
        assert_eq!(validate(m), Ok(()));

        m.funcs[0].blocks[0].instrs.push(Instr::SignalScalar {
            chan: ChanId(2),
            val: Operand::Const(0),
        });
        m.next_chan = 2;
        assert!(matches!(
            validate(m),
            Err(ValidateError::ChanOutOfRange { chan: ChanId(2), next_chan: 2, .. })
        ));
        m.next_chan = 3;
        assert_eq!(validate(m), Ok(()));

        m.funcs[0].blocks[0]
            .instrs
            .push(Instr::SignalMemNull { group: GroupId(0) });
        assert!(matches!(
            validate(m),
            Err(ValidateError::GroupOutOfRange { group: GroupId(0), next_group: 0, .. })
        ));
        m.next_group = 1;
        assert_eq!(validate(m), Ok(()));
    }

    #[test]
    fn entry_with_parameters_is_rejected() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 1);
        let mut fb = mb.define(f);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        assert_eq!(
            mb.build(),
            Err(ValidateError::EntryHasParams {
                func: "main".into(),
                params: 1,
            })
        );
    }

    #[test]
    fn malformed_region_is_rejected() {
        let mut mb = tiny();
        mb.module_mut().regions.push(SpecRegion {
            id: RegionId(0),
            func: FuncId(0),
            header: BlockId(0),
            blocks: vec![], // header missing from blocks
            unroll: 1,
        });
        assert!(matches!(
            validate(&mb.build_unchecked()),
            Err(ValidateError::BadRegion { region: 0 })
        ));
    }

    #[test]
    fn validate_epochs_rejects_straight_line_modules() {
        let m = tiny().build().unwrap();
        assert_eq!(validate_epochs(&m), Err(ValidateError::NoEpochs));
    }

    #[test]
    fn validate_epochs_accepts_a_loop() {
        use crate::instr::BinOp;
        let mut mb = ModuleBuilder::new();
        let f = mb.declare("main", 0);
        let mut fb = mb.define(f);
        let i = fb.var("i");
        let c = fb.var("c");
        fb.assign(i, 0);
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.jump(head);
        fb.switch_to(head);
        fb.bin(c, BinOp::Lt, Operand::Var(i), 4);
        fb.br(c, body, exit);
        fb.switch_to(body);
        fb.bin(i, BinOp::Add, Operand::Var(i), 1);
        fb.jump(head); // backward edge
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish();
        mb.set_entry(f);
        let m = mb.build().unwrap();
        assert_eq!(validate_epochs(&m), Ok(()));
    }

    #[test]
    fn errors_display_readably() {
        let e = ValidateError::BadArity {
            func: "main".into(),
            callee: "callee".into(),
            expected: 2,
            got: 1,
        };
        assert_eq!(
            e.to_string(),
            "`main` calls `callee` with 1 arguments, expected 2"
        );
    }
}
