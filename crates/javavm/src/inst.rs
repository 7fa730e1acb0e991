//! The mini-JVM instruction set and its native-code model.
//!
//! Shapes follow the paper's characterization of its CVM-based interpreter
//! (§7.2.2): JVM instructions are more complex than Forth's, there is no
//! top-of-stack register caching, and a handful of instructions (`getfield`,
//! `putfield`, `invokevirtual`, `new`, statics) are *quickable*: their first
//! execution resolves symbolic information and rewrites the site into a
//! quick variant (§5.4). `getfield`/`putfield` have two quick variants of
//! different code sizes (word and byte accesses), exercising the paper's
//! variable-length patch gaps.

use std::sync::OnceLock;

use ivm_core::{InstKind, NativeSpec, OpId, VmSpec};

/// Opcode ids of every mini-JVM instruction.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub struct JavaOps {
    // Constants and locals.
    pub ldc: OpId,
    pub iload: OpId,
    pub iload_0: OpId,
    pub iload_1: OpId,
    pub iload_2: OpId,
    pub iload_3: OpId,
    pub istore: OpId,
    pub istore_0: OpId,
    pub istore_1: OpId,
    pub istore_2: OpId,
    pub istore_3: OpId,
    pub iinc: OpId,
    // Operand stack.
    pub pop: OpId,
    pub dup: OpId,
    pub dup_x1: OpId,
    pub swap: OpId,
    // Arithmetic.
    pub iadd: OpId,
    pub isub: OpId,
    pub imul: OpId,
    pub idiv: OpId,
    pub irem: OpId,
    pub ineg: OpId,
    pub ishl: OpId,
    pub ishr: OpId,
    pub iand: OpId,
    pub ior: OpId,
    pub ixor: OpId,
    // Branches.
    pub ifeq: OpId,
    pub ifne: OpId,
    pub iflt: OpId,
    pub ifge: OpId,
    pub ifgt: OpId,
    pub ifle: OpId,
    pub if_icmpeq: OpId,
    pub if_icmpne: OpId,
    pub if_icmplt: OpId,
    pub if_icmpge: OpId,
    pub if_icmpgt: OpId,
    pub if_icmple: OpId,
    pub goto_: OpId,
    // Calls and returns.
    pub invokestatic: OpId,
    pub ireturn: OpId,
    pub return_: OpId,
    pub halt: OpId,
    // Arrays.
    pub newarray: OpId,
    pub iaload: OpId,
    pub iastore: OpId,
    pub arraylength: OpId,
    // Runtime services.
    pub print_int: OpId,
    /// Throws the exception object on top of the stack (paper §5.3: made
    /// relocatable by replacing the relative branch to the throw helper
    /// with an indirect branch).
    pub athrow: OpId,
    /// Multi-way branch through a jump table — the bytecode that motivates
    /// Kaeli & Emma's case block table (paper §8). Its dispatch branch is
    /// inherently polymorphic, like a VM return.
    pub tableswitch: OpId,
    // Quick variants (defined before their quickable originals).
    pub getfield_quick_w: OpId,
    pub getfield_quick_b: OpId,
    pub putfield_quick_w: OpId,
    pub putfield_quick_b: OpId,
    pub getstatic_quick: OpId,
    pub putstatic_quick: OpId,
    pub invokevirtual_quick: OpId,
    pub new_quick: OpId,
    // Quickable originals.
    pub getfield: OpId,
    pub putfield: OpId,
    pub getstatic: OpId,
    pub putstatic: OpId,
    pub invokevirtual: OpId,
    pub new_: OpId,
    /// The instruction-set description shared with `ivm-core`.
    pub spec: VmSpec,
    /// What each opcode does, indexed by [`OpId`].
    ops: Vec<Op>,
}

/// What a mini-JVM instruction does: the interpreter's `match` key.
///
/// Opcode ids are assigned at run time by the [`VmSpec`] builder, so the
/// interpreter cannot match on them directly; [`JavaOps::op`] maps an id
/// to its dense kind through a table built once with the ids. Opcodes
/// with the same semantics share a kind (`iload_<n>` carries its index
/// as the operand; the word and byte quick field forms differ only in
/// native code size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    Ldc,
    Iload,
    Istore,
    Iinc,
    Pop,
    Dup,
    DupX1,
    Swap,
    Iadd,
    Isub,
    Imul,
    Idiv,
    Irem,
    Ineg,
    Ishl,
    Ishr,
    Iand,
    Ior,
    Ixor,
    Ifeq,
    Ifne,
    Iflt,
    Ifge,
    Ifgt,
    Ifle,
    IfIcmpeq,
    IfIcmpne,
    IfIcmplt,
    IfIcmpge,
    IfIcmpgt,
    IfIcmple,
    Goto,
    Invokestatic,
    Ireturn,
    Return,
    Halt,
    Newarray,
    Iaload,
    Iastore,
    Arraylength,
    PrintInt,
    Athrow,
    Tableswitch,
    GetfieldQuick,
    PutfieldQuick,
    GetstaticQuick,
    PutstaticQuick,
    InvokevirtualQuick,
    NewQuick,
    Getfield,
    Putfield,
    Getstatic,
    Putstatic,
    Invokevirtual,
    New,
}

impl JavaOps {
    /// The kind of opcode `op`.
    #[inline]
    pub(crate) fn op(&self, op: OpId) -> Op {
        self.ops[usize::from(op)]
    }
}

/// Records `op` as the kind of the opcode `id` just defined.
fn dense(ops: &mut Vec<Op>, id: OpId, op: Op) -> OpId {
    assert_eq!(usize::from(id), ops.len(), "opcode ids are dense");
    ops.push(op);
    id
}

fn build() -> JavaOps {
    let mut b = VmSpec::builder("java");
    // Each opcode's kind is recorded where the opcode is defined.
    let mut ops = Vec::new();
    let mut inst = |name: &str, native, op| {
        let id = b.inst(name, native);
        dense(&mut ops, id, op)
    };
    // No TOS register caching (paper §7.2.2), so even simple instructions
    // touch memory: slightly heavier than the Forth equivalents.
    let ldc = inst("ldc", NativeSpec::new(6, 18, InstKind::Plain), Op::Ldc);
    let iload = inst("iload", NativeSpec::new(7, 20, InstKind::Plain), Op::Iload);
    let iload_0 = inst("iload_0", NativeSpec::new(6, 16, InstKind::Plain), Op::Iload);
    let iload_1 = inst("iload_1", NativeSpec::new(6, 16, InstKind::Plain), Op::Iload);
    let iload_2 = inst("iload_2", NativeSpec::new(6, 16, InstKind::Plain), Op::Iload);
    let iload_3 = inst("iload_3", NativeSpec::new(6, 16, InstKind::Plain), Op::Iload);
    let istore = inst("istore", NativeSpec::new(7, 20, InstKind::Plain), Op::Istore);
    let istore_0 = inst("istore_0", NativeSpec::new(6, 16, InstKind::Plain), Op::Istore);
    let istore_1 = inst("istore_1", NativeSpec::new(6, 16, InstKind::Plain), Op::Istore);
    let istore_2 = inst("istore_2", NativeSpec::new(6, 16, InstKind::Plain), Op::Istore);
    let istore_3 = inst("istore_3", NativeSpec::new(6, 16, InstKind::Plain), Op::Istore);
    let iinc = inst("iinc", NativeSpec::new(8, 24, InstKind::Plain), Op::Iinc);
    let pop = inst("pop", NativeSpec::new(3, 8, InstKind::Plain), Op::Pop);
    let dup = inst("dup", NativeSpec::new(5, 14, InstKind::Plain), Op::Dup);
    let dup_x1 = inst("dup_x1", NativeSpec::new(8, 22, InstKind::Plain), Op::DupX1);
    let swap = inst("swap", NativeSpec::new(7, 18, InstKind::Plain), Op::Swap);
    let iadd = inst("iadd", NativeSpec::new(6, 16, InstKind::Plain), Op::Iadd);
    let isub = inst("isub", NativeSpec::new(6, 16, InstKind::Plain), Op::Isub);
    let imul = inst("imul", NativeSpec::new(7, 18, InstKind::Plain), Op::Imul);
    let idiv = inst("idiv", NativeSpec::new(14, 30, InstKind::Plain), Op::Idiv);
    let irem = inst("irem", NativeSpec::new(14, 30, InstKind::Plain), Op::Irem);
    let ineg = inst("ineg", NativeSpec::new(5, 12, InstKind::Plain), Op::Ineg);
    let ishl = inst("ishl", NativeSpec::new(7, 16, InstKind::Plain), Op::Ishl);
    let ishr = inst("ishr", NativeSpec::new(7, 16, InstKind::Plain), Op::Ishr);
    let iand = inst("iand", NativeSpec::new(6, 16, InstKind::Plain), Op::Iand);
    let ior = inst("ior", NativeSpec::new(6, 16, InstKind::Plain), Op::Ior);
    let ixor = inst("ixor", NativeSpec::new(6, 16, InstKind::Plain), Op::Ixor);
    let ifeq = inst("ifeq", NativeSpec::new(8, 24, InstKind::CondBranch), Op::Ifeq);
    let ifne = inst("ifne", NativeSpec::new(8, 24, InstKind::CondBranch), Op::Ifne);
    let iflt = inst("iflt", NativeSpec::new(8, 24, InstKind::CondBranch), Op::Iflt);
    let ifge = inst("ifge", NativeSpec::new(8, 24, InstKind::CondBranch), Op::Ifge);
    let ifgt = inst("ifgt", NativeSpec::new(8, 24, InstKind::CondBranch), Op::Ifgt);
    let ifle = inst("ifle", NativeSpec::new(8, 24, InstKind::CondBranch), Op::Ifle);
    let if_icmpeq = inst("if_icmpeq", NativeSpec::new(9, 26, InstKind::CondBranch), Op::IfIcmpeq);
    let if_icmpne = inst("if_icmpne", NativeSpec::new(9, 26, InstKind::CondBranch), Op::IfIcmpne);
    let if_icmplt = inst("if_icmplt", NativeSpec::new(9, 26, InstKind::CondBranch), Op::IfIcmplt);
    let if_icmpge = inst("if_icmpge", NativeSpec::new(9, 26, InstKind::CondBranch), Op::IfIcmpge);
    let if_icmpgt = inst("if_icmpgt", NativeSpec::new(9, 26, InstKind::CondBranch), Op::IfIcmpgt);
    let if_icmple = inst("if_icmple", NativeSpec::new(9, 26, InstKind::CondBranch), Op::IfIcmple);
    let goto_ = inst("goto", NativeSpec::new(4, 12, InstKind::Jump), Op::Goto);
    let invokestatic =
        inst("invokestatic", NativeSpec::new(34, 70, InstKind::Call), Op::Invokestatic);
    let ireturn = inst("ireturn", NativeSpec::new(22, 48, InstKind::Return), Op::Ireturn);
    let return_ = inst("return", NativeSpec::new(20, 44, InstKind::Return), Op::Return);
    let halt = inst("(halt)", NativeSpec::new(1, 4, InstKind::Return), Op::Halt);
    // Array allocation calls the runtime through a function pointer, which
    // keeps it relocatable (paper §5.3); the work includes amortized GC.
    let newarray = inst("newarray", NativeSpec::new(180, 160, InstKind::Plain), Op::Newarray);
    let iaload = inst("iaload", NativeSpec::new(11, 28, InstKind::Plain), Op::Iaload);
    let iastore = inst("iastore", NativeSpec::new(12, 30, InstKind::Plain), Op::Iastore);
    let arraylength = inst("arraylength", NativeSpec::new(7, 16, InstKind::Plain), Op::Arraylength);
    let print_int = inst(
        "print_int",
        NativeSpec::new(260, 220, InstKind::Plain).non_relocatable(),
        Op::PrintInt,
    );
    // athrow's unwinding work runs in the runtime; the routine itself is
    // kept relocatable via an indirect branch to the throw code (§5.3).
    let athrow = inst("athrow", NativeSpec::new(90, 120, InstKind::Return), Op::Athrow);
    // tableswitch: bounds check + table load + indirect jump; the targets
    // are dynamic per execution, so it is modeled like a return (no static
    // target, never falls through).
    let tableswitch =
        inst("tableswitch", NativeSpec::new(9, 26, InstKind::Return), Op::Tableswitch);
    // Quick variants first (so the quickable originals can reference them).
    let getfield_quick_w =
        inst("getfield_quick_w", NativeSpec::new(10, 26, InstKind::Plain), Op::GetfieldQuick);
    let getfield_quick_b =
        inst("getfield_quick_b", NativeSpec::new(12, 32, InstKind::Plain), Op::GetfieldQuick);
    let putfield_quick_w =
        inst("putfield_quick_w", NativeSpec::new(11, 28, InstKind::Plain), Op::PutfieldQuick);
    let putfield_quick_b =
        inst("putfield_quick_b", NativeSpec::new(13, 34, InstKind::Plain), Op::PutfieldQuick);
    let getstatic_quick =
        inst("getstatic_quick", NativeSpec::new(8, 20, InstKind::Plain), Op::GetstaticQuick);
    let putstatic_quick =
        inst("putstatic_quick", NativeSpec::new(9, 22, InstKind::Plain), Op::PutstaticQuick);
    let invokevirtual_quick = inst(
        "invokevirtual_quick",
        NativeSpec::new(48, 90, InstKind::Call),
        Op::InvokevirtualQuick,
    );
    let new_quick = inst("new_quick", NativeSpec::new(220, 180, InstKind::Plain), Op::NewQuick);
    // Quickable originals: heavy resolution work, executed once per site,
    // never copied (treated as non-relocatable, paper §5.4).
    let q = |i, by| NativeSpec::new(i, by, InstKind::Plain).non_relocatable();
    let mut quickable = |name: &str, native, variants, op| {
        let id = b.quickable(name, native, variants);
        dense(&mut ops, id, op)
    };
    let getfield =
        quickable("getfield", q(200, 300), vec![getfield_quick_w, getfield_quick_b], Op::Getfield);
    let putfield =
        quickable("putfield", q(200, 300), vec![putfield_quick_w, putfield_quick_b], Op::Putfield);
    let getstatic = quickable("getstatic", q(150, 240), vec![getstatic_quick], Op::Getstatic);
    let putstatic = quickable("putstatic", q(150, 240), vec![putstatic_quick], Op::Putstatic);
    let invokevirtual =
        quickable("invokevirtual", q(260, 380), vec![invokevirtual_quick], Op::Invokevirtual);
    let new_ = quickable("new", q(300, 420), vec![new_quick], Op::New);

    let spec = b.build();

    JavaOps {
        ldc,
        iload,
        iload_0,
        iload_1,
        iload_2,
        iload_3,
        istore,
        istore_0,
        istore_1,
        istore_2,
        istore_3,
        iinc,
        pop,
        dup,
        dup_x1,
        swap,
        iadd,
        isub,
        imul,
        idiv,
        irem,
        ineg,
        ishl,
        ishr,
        iand,
        ior,
        ixor,
        ifeq,
        ifne,
        iflt,
        ifge,
        ifgt,
        ifle,
        if_icmpeq,
        if_icmpne,
        if_icmplt,
        if_icmpge,
        if_icmpgt,
        if_icmple,
        goto_,
        invokestatic,
        ireturn,
        return_,
        halt,
        newarray,
        iaload,
        iastore,
        arraylength,
        print_int,
        athrow,
        tableswitch,
        getfield_quick_w,
        getfield_quick_b,
        putfield_quick_w,
        putfield_quick_b,
        getstatic_quick,
        putstatic_quick,
        invokevirtual_quick,
        new_quick,
        getfield,
        putfield,
        getstatic,
        putstatic,
        invokevirtual,
        new_,
        spec,
        ops,
    }
}

/// The process-wide mini-JVM instruction set.
///
/// # Examples
///
/// ```
/// use ivm_java::ops;
///
/// let o = ops();
/// assert_eq!(o.spec.name(o.iadd), "iadd");
/// assert_eq!(o.spec.def(o.getfield).quick_variants.len(), 2);
/// ```
pub fn ops() -> &'static JavaOps {
    static OPS: OnceLock<JavaOps> = OnceLock::new();
    OPS.get_or_init(build)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_shape() {
        let o = ops();
        assert!(o.spec.len() > 60);
        assert_eq!(o.spec.vm_name(), "java");
    }

    #[test]
    fn quickables_declare_variants() {
        let o = ops();
        assert_eq!(o.spec.native(o.getfield).kind, InstKind::Quickable);
        assert_eq!(
            o.spec.def(o.getfield).quick_variants,
            vec![o.getfield_quick_w, o.getfield_quick_b]
        );
        assert_eq!(o.spec.def(o.new_).quick_variants, vec![o.new_quick]);
        // Gap sizing uses the largest variant (the byte form).
        assert_eq!(
            o.spec.max_quick_bytes(o.getfield),
            o.spec.native(o.getfield_quick_b).work_bytes
        );
    }

    #[test]
    fn op_table_separates_quick_forms() {
        let o = ops();
        assert_eq!(o.ops.len(), o.spec.len());
        assert_eq!(o.op(o.getfield), Op::Getfield);
        assert_eq!(o.op(o.getfield_quick_w), Op::GetfieldQuick);
        assert_eq!(o.op(o.getfield_quick_b), Op::GetfieldQuick);
        assert_eq!(o.op(o.invokevirtual_quick), Op::InvokevirtualQuick);
        assert_eq!(o.op(o.iload_3), Op::Iload);
        assert_eq!(o.op(o.new_), Op::New);
    }

    #[test]
    fn virtual_calls_are_calls() {
        let o = ops();
        assert_eq!(o.spec.native(o.invokevirtual_quick).kind, InstKind::Call);
        assert_eq!(o.spec.native(o.invokestatic).kind, InstKind::Call);
        assert_eq!(o.spec.native(o.ireturn).kind, InstKind::Return);
    }

    #[test]
    fn jvm_ops_are_heavier_than_forth() {
        // Paper §7.2.2: the JVM's dispatch-to-work ratio is much lower.
        let j = ops();
        let f = ivm_forth_like_add();
        assert!(j.spec.native(j.iadd).work_instrs >= f);
    }

    fn ivm_forth_like_add() -> u32 {
        2 // Forth `+` with TOS caching is ~2 instructions
    }
}
