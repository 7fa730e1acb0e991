//! The calculator VM instruction set and its native-code model.
//!
//! Shapes are in the same family as the Forth VM's: short stack
//! operations of a few native instructions each, with `print` calling
//! into the runtime and therefore non-relocatable (paper §5.2).

use std::sync::OnceLock;

use ivm_core::{InstKind, NativeSpec, OpId, VmSpec};

/// Opcode ids of every calculator VM instruction.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub struct CalcOps {
    pub push: OpId,
    pub add: OpId,
    pub sub: OpId,
    pub mul: OpId,
    pub div: OpId,
    pub mod_: OpId,
    pub neg: OpId,
    pub dup: OpId,
    pub drop: OpId,
    pub swap: OpId,
    pub over: OpId,
    pub lt: OpId,
    pub eq: OpId,
    pub load: OpId,
    pub store: OpId,
    pub print: OpId,
    pub jmp: OpId,
    pub jz: OpId,
    pub jnz: OpId,
    pub call: OpId,
    pub ret: OpId,
    pub halt: OpId,
    /// The instruction-set description shared with `ivm-core`.
    pub spec: VmSpec,
    /// What each opcode does, indexed by [`OpId`].
    ops: Vec<Op>,
}

/// What a calculator instruction does: the interpreter's `match` key.
///
/// Opcode ids are assigned at run time by the [`VmSpec`] builder, so the
/// interpreter cannot match on them directly; [`CalcOps::op`] maps an id
/// to its dense kind through a table built once with the ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    Push,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Neg,
    Dup,
    Drop,
    Swap,
    Over,
    Lt,
    Eq,
    Load,
    Store,
    Print,
    Jmp,
    Jz,
    Jnz,
    Call,
    Ret,
    Halt,
}

impl CalcOps {
    /// The kind of opcode `op`.
    #[inline]
    pub(crate) fn op(&self, op: OpId) -> Op {
        self.ops[usize::from(op)]
    }
}

fn build() -> CalcOps {
    let mut b = VmSpec::builder("calc");
    // Each opcode's kind is recorded where the opcode is defined.
    let mut ops = Vec::new();
    let mut inst = |name: &str, native, op| {
        let id = b.inst(name, native);
        assert_eq!(usize::from(id), ops.len(), "opcode ids are dense");
        ops.push(op);
        id
    };
    let push = inst("push", NativeSpec::new(3, 10, InstKind::Plain), Op::Push);
    let add = inst("add", NativeSpec::new(2, 6, InstKind::Plain), Op::Add);
    let sub = inst("sub", NativeSpec::new(2, 6, InstKind::Plain), Op::Sub);
    let mul = inst("mul", NativeSpec::new(3, 8, InstKind::Plain), Op::Mul);
    let div = inst("div", NativeSpec::new(6, 14, InstKind::Plain), Op::Div);
    let mod_ = inst("mod", NativeSpec::new(6, 14, InstKind::Plain), Op::Mod);
    let neg = inst("neg", NativeSpec::new(2, 6, InstKind::Plain), Op::Neg);
    let dup = inst("dup", NativeSpec::new(2, 6, InstKind::Plain), Op::Dup);
    let drop = inst("drop", NativeSpec::new(1, 4, InstKind::Plain), Op::Drop);
    let swap = inst("swap", NativeSpec::new(3, 8, InstKind::Plain), Op::Swap);
    let over = inst("over", NativeSpec::new(2, 7, InstKind::Plain), Op::Over);
    let lt = inst("lt", NativeSpec::new(4, 10, InstKind::Plain), Op::Lt);
    let eq = inst("eq", NativeSpec::new(4, 10, InstKind::Plain), Op::Eq);
    let load = inst("load", NativeSpec::new(2, 7, InstKind::Plain), Op::Load);
    let store = inst("store", NativeSpec::new(3, 9, InstKind::Plain), Op::Store);
    let print = inst("print", NativeSpec::new(5, 15, InstKind::Plain).non_relocatable(), Op::Print);
    let jmp = inst("jmp", NativeSpec::new(1, 5, InstKind::Jump), Op::Jmp);
    let jz = inst("jz", NativeSpec::new(3, 9, InstKind::CondBranch), Op::Jz);
    let jnz = inst("jnz", NativeSpec::new(3, 9, InstKind::CondBranch), Op::Jnz);
    let call = inst("call", NativeSpec::new(4, 12, InstKind::Call), Op::Call);
    let ret = inst("ret", NativeSpec::new(3, 9, InstKind::Return), Op::Ret);
    let halt = inst("halt", NativeSpec::new(1, 4, InstKind::Return), Op::Halt);
    let spec = b.build();
    CalcOps {
        push,
        add,
        sub,
        mul,
        div,
        mod_,
        neg,
        dup,
        drop,
        swap,
        over,
        lt,
        eq,
        load,
        store,
        print,
        jmp,
        jz,
        jnz,
        call,
        ret,
        halt,
        spec,
        ops,
    }
}

/// The calculator instruction set (built once per process).
pub fn ops() -> &'static CalcOps {
    static OPS: OnceLock<CalcOps> = OnceLock::new();
    OPS.get_or_init(build)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_is_consistent() {
        let o = ops();
        assert_eq!(o.spec.name(o.push), "push");
        assert_eq!(o.spec.native(o.jz).kind, InstKind::CondBranch);
        assert_eq!(o.spec.native(o.ret).kind, InstKind::Return);
        assert!(!o.spec.native(o.print).relocatable);
        assert!(o.spec.native(o.add).relocatable);
    }

    #[test]
    fn op_table_covers_every_opcode() {
        let o = ops();
        assert_eq!(o.ops.len(), o.spec.len());
        assert_eq!(o.op(o.push), Op::Push);
        assert_eq!(o.op(o.mod_), Op::Mod);
        assert_eq!(o.op(o.halt), Op::Halt);
    }
}
