//! The Forth VM instruction set and its native-code model.
//!
//! Instruction shapes follow Gforth's character: simple stack words compile
//! to 2–4 native x86 instructions with the top of stack cached in a register
//! (paper §7.2.2 — Gforth's dispatch-to-work ratio is high, ≈16.5% of
//! retired instructions are indirect branches). The `.`/`emit` words call
//! into the runtime and are therefore non-relocatable (paper §5.2 —
//! infrequent words may be non-relocatable without affecting the dynamic
//! techniques much).

use std::sync::OnceLock;

use ivm_core::{InstKind, NativeSpec, OpId, VmSpec};

macro_rules! forth_ops {
    ($(($field:ident, $op:ident, $name:literal, $instrs:literal, $bytes:literal, $kind:ident $(, $nr:ident)?)),+ $(,)?) => {
        /// Opcode ids of every Forth VM instruction.
        #[derive(Debug, Clone)]
        #[allow(missing_docs)]
        pub struct ForthOps {
            $(pub $field: OpId,)+
            /// The instruction-set description shared with `ivm-core`.
            pub spec: VmSpec,
            /// What each opcode does, indexed by [`OpId`].
            ops: Vec<Op>,
        }

        fn build() -> ForthOps {
            let mut b = VmSpec::builder("forth");
            let mut ops = Vec::new();
            $(
                #[allow(unused_mut)]
                let mut native = NativeSpec::new($instrs, $bytes, InstKind::$kind);
                $(native = native.$nr();)?
                let $field = b.inst($name, native);
                assert_eq!(usize::from($field), ops.len(), "opcode ids are dense");
                ops.push(Op::$op);
            )+
            ForthOps { $($field,)+ spec: b.build(), ops }
        }
    };
}

/// What a Forth instruction does: the interpreter's `match` key.
///
/// Opcode ids are assigned at run time by the [`VmSpec`] builder, so the
/// interpreter cannot match on them directly; [`ForthOps::op`] maps an id
/// to its dense kind through a table built once with the ids. Opcodes
/// with the same semantics share a kind (`@`/`c@`, `!`/`c!`: memory is
/// cell-addressed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    Lit,
    Fetch,
    Store,
    PlusStore,
    Dup,
    Drop,
    Swap,
    Over,
    Rot,
    Nip,
    Tuck,
    QDup,
    TwoDup,
    TwoDrop,
    Depth,
    ToR,
    RFrom,
    RFetch,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Negate,
    Abs,
    Min,
    Max,
    And,
    Or,
    Xor,
    Invert,
    Lshift,
    Rshift,
    OnePlus,
    OneMinus,
    TwoStar,
    TwoSlash,
    Cells,
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    ZeroEq,
    ZeroLt,
    ZeroGt,
    Do,
    Loop,
    PlusLoop,
    Pick,
    I,
    J,
    Unloop,
    LeaveCheck,
    ZBranch,
    Branch,
    Call,
    Exit,
    Halt,
    Emit,
    Dot,
    Cr,
}

impl ForthOps {
    /// The kind of opcode `op`.
    #[inline]
    pub(crate) fn op(&self, op: OpId) -> Op {
        self.ops[usize::from(op)]
    }
}

forth_ops![
    // Literals and memory.
    (lit, Lit, "lit", 3, 10, Plain),
    (fetch, Fetch, "@", 2, 6, Plain),
    (store, Store, "!", 3, 9, Plain),
    (cfetch, Fetch, "c@", 2, 7, Plain),
    (cstore, Store, "c!", 3, 10, Plain),
    (plus_store, PlusStore, "+!", 4, 12, Plain),
    // Data stack.
    (dup, Dup, "dup", 2, 6, Plain),
    (drop, Drop, "drop", 1, 4, Plain),
    (swap, Swap, "swap", 3, 8, Plain),
    (over, Over, "over", 2, 7, Plain),
    (rot, Rot, "rot", 4, 11, Plain),
    (nip, Nip, "nip", 2, 6, Plain),
    (tuck, Tuck, "tuck", 3, 9, Plain),
    (qdup, QDup, "?dup", 3, 11, Plain),
    (two_dup, TwoDup, "2dup", 4, 12, Plain),
    (two_drop, TwoDrop, "2drop", 2, 7, Plain),
    (depth, Depth, "depth", 3, 9, Plain),
    // Return stack.
    (to_r, ToR, ">r", 3, 8, Plain),
    (r_from, RFrom, "r>", 3, 8, Plain),
    (r_fetch, RFetch, "r@", 2, 6, Plain),
    // Arithmetic and logic.
    (add, Add, "+", 2, 6, Plain),
    (sub, Sub, "-", 2, 6, Plain),
    (mul, Mul, "*", 3, 8, Plain),
    (div, Div, "/", 6, 14, Plain),
    (mod_, Mod, "mod", 6, 14, Plain),
    (negate, Negate, "negate", 2, 6, Plain),
    (abs_, Abs, "abs", 3, 9, Plain),
    (min_, Min, "min", 4, 10, Plain),
    (max_, Max, "max", 4, 10, Plain),
    (and_, And, "and", 2, 6, Plain),
    (or_, Or, "or", 2, 6, Plain),
    (xor_, Xor, "xor", 2, 6, Plain),
    (invert, Invert, "invert", 2, 5, Plain),
    (lshift, Lshift, "lshift", 3, 8, Plain),
    (rshift, Rshift, "rshift", 3, 8, Plain),
    (one_plus, OnePlus, "1+", 1, 4, Plain),
    (one_minus, OneMinus, "1-", 1, 4, Plain),
    (two_star, TwoStar, "2*", 1, 4, Plain),
    (two_slash, TwoSlash, "2/", 1, 4, Plain),
    (cells, Cells, "cells", 1, 4, Plain),
    // Comparisons (Forth flags: -1 true, 0 false).
    (eq, Eq, "=", 3, 9, Plain),
    (ne, Ne, "<>", 3, 9, Plain),
    (lt, Lt, "<", 3, 9, Plain),
    (gt, Gt, ">", 3, 9, Plain),
    (le, Le, "<=", 3, 9, Plain),
    (ge, Ge, ">=", 3, 9, Plain),
    (zero_eq, ZeroEq, "0=", 2, 7, Plain),
    (zero_lt, ZeroLt, "0<", 2, 7, Plain),
    (zero_gt, ZeroGt, "0>", 2, 7, Plain),
    // Counted loops.
    (do_, Do, "(do)", 4, 12, Plain),
    (loop_, Loop, "(loop)", 5, 16, CondBranch),
    (plus_loop, PlusLoop, "(+loop)", 6, 18, CondBranch),
    (pick, Pick, "pick", 4, 11, Plain),
    (i_, I, "i", 2, 6, Plain),
    (j_, J, "j", 2, 7, Plain),
    (unloop, Unloop, "unloop", 2, 7, Plain),
    (leave_check, LeaveCheck, "(leave?)", 4, 13, CondBranch),
    // Control flow.
    (zbranch, ZBranch, "(0branch)", 4, 14, CondBranch),
    (branch, Branch, "(branch)", 2, 8, Jump),
    (call, Call, "(call)", 4, 12, Call),
    (exit, Exit, "exit", 3, 10, Return),
    (halt, Halt, "(halt)", 1, 4, Return),
    // Runtime services (call into libc-style helpers: non-relocatable).
    (emit, Emit, "emit", 12, 30, Plain, non_relocatable),
    (dot, Dot, ".", 30, 60, Plain, non_relocatable),
    (cr, Cr, "cr", 10, 26, Plain, non_relocatable),
];

/// The process-wide Forth instruction set.
///
/// # Examples
///
/// ```
/// use ivm_forth::ops;
///
/// let o = ops();
/// assert_eq!(o.spec.name(o.add), "+");
/// assert_eq!(o.spec.vm_name(), "forth");
/// ```
pub fn ops() -> &'static ForthOps {
    static OPS: OnceLock<ForthOps> = OnceLock::new();
    OPS.get_or_init(build)
}

/// The same instruction set compiled *without* top-of-stack register
/// caching: every data-stack access costs one extra memory instruction.
///
/// The paper (§7.2.2) names Gforth's TOS caching as one of the three
/// reasons its speedups exceed the JVM's; translating a program against
/// this spec instead of [`ops`]`().spec` quantifies that reason. Opcode ids
/// are identical, so images compiled with the normal front end translate
/// unchanged.
pub fn spec_without_tos_caching() -> VmSpec {
    let cached = &ops().spec;
    let mut b = VmSpec::builder("forth-no-tos");
    for (_, def) in cached.iter() {
        let mut native = def.native;
        if native.kind != InstKind::Return || def.name == "exit" {
            native.work_instrs += 1;
            native.work_bytes += 3;
        }
        b.inst(def.name.clone(), native);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_consistent() {
        let o = ops();
        assert!(o.spec.len() > 50, "Gforth-like VMs have a rich instruction set");
        assert_eq!(o.spec.find("+"), Some(o.add));
        assert_eq!(o.spec.find("(0branch)"), Some(o.zbranch));
    }

    #[test]
    fn op_table_covers_every_opcode() {
        let o = ops();
        assert_eq!(o.ops.len(), o.spec.len());
        assert_eq!(o.op(o.add), Op::Add);
        assert_eq!(o.op(o.fetch), o.op(o.cfetch), "@ and c@ share semantics");
        assert_eq!(o.op(o.store), o.op(o.cstore), "! and c! share semantics");
        assert_eq!(o.op(o.cr), Op::Cr);
    }

    #[test]
    fn kinds_are_correct() {
        let o = ops();
        assert_eq!(o.spec.native(o.zbranch).kind, InstKind::CondBranch);
        assert_eq!(o.spec.native(o.branch).kind, InstKind::Jump);
        assert_eq!(o.spec.native(o.call).kind, InstKind::Call);
        assert_eq!(o.spec.native(o.exit).kind, InstKind::Return);
        assert_eq!(o.spec.native(o.loop_).kind, InstKind::CondBranch);
        assert_eq!(o.spec.native(o.add).kind, InstKind::Plain);
    }

    #[test]
    fn runtime_words_are_non_relocatable() {
        let o = ops();
        assert!(!o.spec.native(o.dot).relocatable);
        assert!(!o.spec.native(o.emit).relocatable);
        assert!(o.spec.native(o.add).relocatable);
    }

    #[test]
    fn no_tos_spec_is_uniformly_heavier() {
        let cached = &ops().spec;
        let uncached = spec_without_tos_caching();
        assert_eq!(cached.len(), uncached.len());
        for (op, def) in cached.iter() {
            assert_eq!(uncached.name(op), def.name, "opcode ids must align");
            assert!(uncached.native(op).work_instrs >= def.native.work_instrs);
        }
        let o = ops();
        assert_eq!(uncached.native(o.add).work_instrs, o.spec.native(o.add).work_instrs + 1);
    }

    #[test]
    fn simple_words_are_cheap() {
        let o = ops();
        // Paper §2.1: simple VM instructions take as few as 3 native
        // instructions including dispatch (work of 1-3 + 3 dispatch).
        assert!(o.spec.native(o.drop).work_instrs <= 2);
        assert!(o.spec.native(o.add).work_instrs <= 3);
    }
}
