#![warn(missing_docs)]

//! Dataflow and control-flow analyses over [`tls_ir`].
//!
//! This crate is the stand-in for the analysis layer of the paper's SUIF
//! infrastructure. It provides what the synchronization-insertion passes in
//! `tls-core` need:
//!
//! * [`Cfg`] — predecessor/successor maps and reverse postorder;
//! * [`Dominators`] — immediate-dominator tree (Cooper–Harvey–Kennedy);
//! * [`loops::find_loops`] — natural loops with exits and nesting, used for
//!   region selection;
//! * [`Liveness`] — backward liveness of virtual registers, used to find the
//!   communicating scalars of §2.1;
//! * [`induction::induction_vars`] — simple induction variables, which are
//!   privatized rather than synchronized;
//! * [`CallGraph`] — call edges and reachability, used for procedure cloning
//!   (§2.3) and for rejecting dynamically-nested speculative regions;
//! * [`UnionFind`] — connected components of the frequent-dependence graph
//!   (§2.3 "Identifying frequently occurring dependences").

mod bitset;
mod callgraph;
mod cfg;
mod dom;
pub mod induction;
mod liveness;
pub mod loops;
mod unionfind;

/// Finish a test fixture whose analysed function `f` (declared first, so
/// `FuncId(0)`) takes `params` arguments: add a parameterless `main` that
/// calls it with zeros and make that the entry, since `validate` rejects a
/// parameterized entry.
#[cfg(test)]
pub(crate) fn with_entry_caller(
    mut mb: tls_ir::ModuleBuilder,
    f: tls_ir::FuncId,
    params: usize,
) -> tls_ir::Module {
    let main = mb.declare("main", 0);
    let mut fb = mb.define(main);
    fb.call(None, f, vec![tls_ir::Operand::Const(0); params]);
    fb.ret(None);
    fb.finish();
    mb.set_entry(main);
    mb.build().expect("valid")
}

pub use bitset::BitSet;
pub use callgraph::CallGraph;
pub use cfg::Cfg;
pub use dom::Dominators;
pub use liveness::Liveness;
pub use loops::NaturalLoop;
pub use unionfind::UnionFind;
