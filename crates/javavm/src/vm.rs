//! The mini-JVM interpreter: executes a [`JavaImage`] with frames, a heap,
//! quickening, and full dispatch reporting through [`VmEvents`], plus the
//! [`GuestVm`] impl that plugs JVM programs into the generic measurement
//! pipeline.

use ivm_core::{GuestVm, OpId, ProgramCode, SuperSelection, VmError, VmEvents, VmOutput, VmSpec};

use crate::asm::{ClassId, JavaImage};
use crate::inst::{ops, Op};

/// Default fuel for benchmark runs (VM instructions).
pub const DEFAULT_FUEL: u64 = 200_000_000;

impl GuestVm for JavaImage {
    fn spec(&self) -> &VmSpec {
        &ops().spec
    }

    fn program(&self) -> &ProgramCode {
        &self.program
    }

    fn super_selection(&self) -> SuperSelection {
        // JVM policy (paper §7.1): favour statically frequent short
        // sequences.
        SuperSelection::jvm()
    }

    fn default_fuel(&self) -> u64 {
        DEFAULT_FUEL
    }

    fn execute(&self, events: &mut dyn VmEvents, fuel: u64) -> Result<VmOutput, VmError> {
        run(self, events, fuel)
    }
}

#[derive(Debug, Clone)]
enum HeapObj {
    Object { class: ClassId, fields: Vec<i64> },
    Array(Vec<i64>),
}

#[derive(Debug, Clone)]
struct Frame {
    locals: Vec<i64>,
    ret_ip: usize,
}

enum Flow {
    Next,
    Taken(usize),
    Halt,
}

fn as_i32(v: i64) -> i64 {
    v as i32 as i64
}

/// Interprets `image`, reporting control transfers and quickenings to
/// `events`.
///
/// # Errors
///
/// Returns a [`VmError`] on runtime failures or fuel exhaustion.
///
/// # Examples
///
/// ```
/// use ivm_core::NullEvents;
/// use ivm_java::Asm;
///
/// let mut a = Asm::new();
/// a.class("Main", None, &[]);
/// a.begin_static("Main", "main", 0, 0);
/// a.ldc(6);
/// a.ldc(7);
/// a.imul();
/// a.print_int();
/// a.ret();
/// a.end_method();
/// let image = a.link();
/// let out = ivm_java::run(&image, &mut NullEvents, 1_000).unwrap();
/// assert_eq!(out.text, "42\n");
/// ```
pub fn run(image: &JavaImage, events: &mut dyn VmEvents, fuel: u64) -> Result<VmOutput, VmError> {
    let o = ops();
    let program = &image.program;
    // Current (quickened) opcode per instance, plus the cached quick
    // operand written by resolution (field offset, method id, class id).
    let mut cur_ops: Vec<OpId> = program.ops().to_vec();
    let mut quick_operand: Vec<i64> = vec![0; program.len()];

    let mut heap: Vec<HeapObj> = Vec::new();
    let mut statics = vec![0i64; image.n_statics.max(1)];
    let mut stack: Vec<i64> = Vec::with_capacity(256);
    let mut frames: Vec<Frame> = vec![Frame { locals: Vec::new(), ret_ip: usize::MAX }];
    let mut text = String::new();
    let mut steps = 0u64;
    let mut allocations = 0u64;
    let mut quickenings = 0u64;

    let mut ip = image.entry;
    events.begin(ip);

    macro_rules! pop {
        () => {
            match stack.pop() {
                Some(v) => v,
                None => return Err(VmError::StackUnderflow(ip)),
            }
        };
    }
    macro_rules! obj {
        ($r:expr) => {{
            let r = $r;
            if r <= 0 || r as usize > heap.len() {
                return Err(VmError::BadReference(ip, r));
            }
            (r - 1) as usize
        }};
    }
    macro_rules! binop {
        ($f:expr) => {{
            let b = pop!();
            let a = pop!();
            #[allow(clippy::redundant_closure_call)]
            stack.push(as_i32(($f)(a, b)));
            Flow::Next
        }};
    }
    macro_rules! cmp0 {
        ($f:expr) => {{
            let a = pop!();
            #[allow(clippy::redundant_closure_call)]
            if ($f)(a) {
                Flow::Taken(program.target(ip).expect("branch target"))
            } else {
                Flow::Next
            }
        }};
    }
    macro_rules! cmp2 {
        ($f:expr) => {{
            let b = pop!();
            let a = pop!();
            #[allow(clippy::redundant_closure_call)]
            if ($f)(a, b) {
                Flow::Taken(program.target(ip).expect("branch target"))
            } else {
                Flow::Next
            }
        }};
    }

    /// Pops `argc` arguments plus (for virtual calls) the receiver into a
    /// fresh frame's locals.
    macro_rules! push_frame {
        ($method:expr, $ret:expr) => {{
            let m = &image.methods[$method as usize];
            let slots = m.nargs + usize::from(!m.is_static);
            if stack.len() < slots {
                return Err(VmError::StackUnderflow(ip));
            }
            let mut locals = vec![0i64; m.nlocals.max(slots)];
            for k in (0..slots).rev() {
                locals[k] = pop!();
            }
            frames.push(Frame { locals, ret_ip: $ret });
            m.entry as usize
        }};
    }

    loop {
        steps += 1;
        if steps > fuel {
            return Err(VmError::FuelExhausted(fuel));
        }
        let operand = image.operands[ip];
        let op = o.op(cur_ops[ip]);

        let flow = match op {
            Op::Ldc => {
                stack.push(operand);
                Flow::Next
            }
            Op::Iload => {
                let frame = frames.last().expect("frame");
                let idx = operand as usize;
                if idx >= frame.locals.len() {
                    return Err(VmError::BadIndex(ip, operand));
                }
                stack.push(frame.locals[idx]);
                Flow::Next
            }
            Op::Istore => {
                let v = pop!();
                let frame = frames.last_mut().expect("frame");
                let idx = operand as usize;
                if idx >= frame.locals.len() {
                    return Err(VmError::BadIndex(ip, operand));
                }
                frame.locals[idx] = v;
                Flow::Next
            }
            Op::Iinc => {
                let idx = (operand >> 32) as usize;
                let delta = i64::from(operand as u32 as i32);
                let frame = frames.last_mut().expect("frame");
                if idx >= frame.locals.len() {
                    return Err(VmError::BadIndex(ip, operand));
                }
                frame.locals[idx] = as_i32(frame.locals[idx].wrapping_add(delta));
                Flow::Next
            }
            Op::Pop => {
                pop!();
                Flow::Next
            }
            Op::Dup => {
                let a = pop!();
                stack.push(a);
                stack.push(a);
                Flow::Next
            }
            Op::DupX1 => {
                let b = pop!();
                let a = pop!();
                stack.push(b);
                stack.push(a);
                stack.push(b);
                Flow::Next
            }
            Op::Swap => {
                let b = pop!();
                let a = pop!();
                stack.push(b);
                stack.push(a);
                Flow::Next
            }
            Op::Iadd => binop!(|a: i64, b: i64| a.wrapping_add(b)),
            Op::Isub => binop!(|a: i64, b: i64| a.wrapping_sub(b)),
            Op::Imul => binop!(|a: i64, b: i64| a.wrapping_mul(b)),
            Op::Idiv => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(VmError::DivisionByZero(ip));
                }
                stack.push(as_i32(a.wrapping_div(b)));
                Flow::Next
            }
            Op::Irem => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(VmError::DivisionByZero(ip));
                }
                stack.push(as_i32(a.wrapping_rem(b)));
                Flow::Next
            }
            Op::Ineg => {
                let a = pop!();
                stack.push(as_i32(a.wrapping_neg()));
                Flow::Next
            }
            Op::Ishl => binop!(|a: i64, b: i64| a.wrapping_shl(b as u32 & 31)),
            Op::Ishr => binop!(|a: i64, b: i64| a >> (b as u32 & 31)),
            Op::Iand => binop!(|a: i64, b: i64| a & b),
            Op::Ior => binop!(|a: i64, b: i64| a | b),
            Op::Ixor => binop!(|a: i64, b: i64| a ^ b),
            Op::Ifeq => cmp0!(|a: i64| a == 0),
            Op::Ifne => cmp0!(|a: i64| a != 0),
            Op::Iflt => cmp0!(|a: i64| a < 0),
            Op::Ifge => cmp0!(|a: i64| a >= 0),
            Op::Ifgt => cmp0!(|a: i64| a > 0),
            Op::Ifle => cmp0!(|a: i64| a <= 0),
            Op::IfIcmpeq => cmp2!(|a: i64, b: i64| a == b),
            Op::IfIcmpne => cmp2!(|a: i64, b: i64| a != b),
            Op::IfIcmplt => cmp2!(|a: i64, b: i64| a < b),
            Op::IfIcmpge => cmp2!(|a: i64, b: i64| a >= b),
            Op::IfIcmpgt => cmp2!(|a: i64, b: i64| a > b),
            Op::IfIcmple => cmp2!(|a: i64, b: i64| a <= b),
            Op::Goto => Flow::Taken(program.target(ip).expect("goto target")),
            Op::Invokestatic => {
                let target = program.target(ip).expect("static call target");
                let m = image
                    .methods
                    .iter()
                    .position(|m| m.entry as usize == target)
                    .expect("method at target");
                let entry = push_frame!(m as u16, ip + 1);
                Flow::Taken(entry)
            }
            Op::Invokevirtual | Op::InvokevirtualQuick => {
                // Resolve by receiver class; the quick form uses the cached
                // name's method resolution path but still dispatches on the
                // receiver (a vtable access).
                let name_id = operand as usize;
                // Peek the receiver: it sits below the arguments.
                // We must resolve the method first to know the arity.
                // Try all classes' methods with this name: resolution requires
                // the receiver, so scan the stack using each candidate's arity.
                // Candidates with the same name share an arity in well-formed
                // programs; take it from any method with that name.
                let name = &image.names[name_id];
                let nargs = image
                    .methods
                    .iter()
                    .find(|m| !m.is_static && &m.name == name)
                    .map(|m| m.nargs)
                    .ok_or_else(|| VmError::ResolutionFailure(ip, name.clone()))?;
                if stack.len() < nargs + 1 {
                    return Err(VmError::StackUnderflow(ip));
                }
                let receiver = stack[stack.len() - nargs - 1];
                let h = obj!(receiver);
                let class = match &heap[h] {
                    HeapObj::Object { class, .. } => *class,
                    HeapObj::Array(_) => return Err(VmError::BadReference(ip, receiver)),
                };
                let m = image
                    .resolve_virtual(class, name_id)
                    .ok_or_else(|| VmError::ResolutionFailure(ip, name.clone()))?;
                if op == Op::Invokevirtual {
                    quick_operand[ip] = i64::from(m);
                    cur_ops[ip] = o.invokevirtual_quick;
                    quickenings += 1;
                    events.quicken(ip, o.invokevirtual_quick);
                }
                let entry = push_frame!(m, ip + 1);
                Flow::Taken(entry)
            }
            Op::Ireturn => {
                let v = pop!();
                let frame = frames.pop().expect("frame");
                stack.push(v);
                Flow::Taken(frame.ret_ip)
            }
            Op::Return => {
                let frame = frames.pop().expect("frame");
                Flow::Taken(frame.ret_ip)
            }
            Op::Halt => Flow::Halt,
            Op::Newarray => {
                let len = pop!();
                if !(0..=1 << 24).contains(&len) {
                    return Err(VmError::BadIndex(ip, len));
                }
                heap.push(HeapObj::Array(vec![0; len as usize]));
                allocations += 1;
                stack.push(heap.len() as i64);
                Flow::Next
            }
            Op::Iaload => {
                let idx = pop!();
                let r = pop!();
                let h = obj!(r);
                match &heap[h] {
                    HeapObj::Array(a) => {
                        if idx < 0 || idx as usize >= a.len() {
                            return Err(VmError::BadIndex(ip, idx));
                        }
                        stack.push(a[idx as usize]);
                    }
                    HeapObj::Object { .. } => return Err(VmError::BadReference(ip, r)),
                }
                Flow::Next
            }
            Op::Iastore => {
                let v = pop!();
                let idx = pop!();
                let r = pop!();
                let h = obj!(r);
                match &mut heap[h] {
                    HeapObj::Array(a) => {
                        if idx < 0 || idx as usize >= a.len() {
                            return Err(VmError::BadIndex(ip, idx));
                        }
                        a[idx as usize] = as_i32(v);
                    }
                    HeapObj::Object { .. } => return Err(VmError::BadReference(ip, r)),
                }
                Flow::Next
            }
            Op::Arraylength => {
                let r = pop!();
                let h = obj!(r);
                match &heap[h] {
                    HeapObj::Array(a) => stack.push(a.len() as i64),
                    HeapObj::Object { .. } => return Err(VmError::BadReference(ip, r)),
                }
                Flow::Next
            }
            Op::Tableswitch => {
                let sel = pop!();
                let table = &image.switch_tables[operand as usize];
                let t = if (0..table.targets.len() as i64).contains(&sel) {
                    table.targets[sel as usize]
                } else {
                    table.default
                };
                Flow::Taken(t as usize)
            }
            Op::Athrow => {
                let exn = pop!();
                // Unwind: innermost (last-registered) handler covering the
                // throwing site wins; otherwise pop a frame and retry at the
                // call site, exactly like the JVM's per-frame handler search.
                let mut site = ip;
                let handler = loop {
                    let found = image
                        .handlers
                        .iter()
                        .rev()
                        .find(|h| (h.from as usize) <= site && site < (h.to as usize));
                    match found {
                        Some(h) => break Some(h.handler as usize),
                        None => {
                            if frames.len() > 1 {
                                let frame = frames.pop().expect("non-empty");
                                // The call site is the instruction before the
                                // return address.
                                site = frame.ret_ip.saturating_sub(1);
                            } else {
                                break None;
                            }
                        }
                    }
                };
                match handler {
                    Some(h) => {
                        stack.push(exn);
                        Flow::Taken(h)
                    }
                    None => return Err(VmError::UncaughtException(ip, exn)),
                }
            }
            Op::PrintInt => {
                let v = pop!();
                text.push_str(&v.to_string());
                text.push('\n');
                Flow::Next
            }
            Op::Getfield | Op::GetfieldQuick => {
                let r = pop!();
                let h = obj!(r);
                let off = if op == Op::Getfield {
                    let class = match &heap[h] {
                        HeapObj::Object { class, .. } => *class,
                        HeapObj::Array(_) => return Err(VmError::BadReference(ip, r)),
                    };
                    let off = image.resolve_field(class, operand as usize).ok_or_else(|| {
                        VmError::ResolutionFailure(ip, image.names[operand as usize].clone())
                    })?;
                    quick_operand[ip] = off as i64;
                    // Word fields and "byte" fields get different quick forms
                    // (modeling the paper's multiple quick getfield variants).
                    let quick = if off % 2 == 0 { o.getfield_quick_w } else { o.getfield_quick_b };
                    cur_ops[ip] = quick;
                    quickenings += 1;
                    events.quicken(ip, quick);
                    off
                } else {
                    quick_operand[ip] as usize
                };
                match &heap[h] {
                    HeapObj::Object { fields, .. } => {
                        if off >= fields.len() {
                            return Err(VmError::BadIndex(ip, off as i64));
                        }
                        stack.push(fields[off]);
                    }
                    HeapObj::Array(_) => return Err(VmError::BadReference(ip, r)),
                }
                Flow::Next
            }
            Op::Putfield | Op::PutfieldQuick => {
                let v = pop!();
                let r = pop!();
                let h = obj!(r);
                let off = if op == Op::Putfield {
                    let class = match &heap[h] {
                        HeapObj::Object { class, .. } => *class,
                        HeapObj::Array(_) => return Err(VmError::BadReference(ip, r)),
                    };
                    let off = image.resolve_field(class, operand as usize).ok_or_else(|| {
                        VmError::ResolutionFailure(ip, image.names[operand as usize].clone())
                    })?;
                    quick_operand[ip] = off as i64;
                    let quick = if off % 2 == 0 { o.putfield_quick_w } else { o.putfield_quick_b };
                    cur_ops[ip] = quick;
                    quickenings += 1;
                    events.quicken(ip, quick);
                    off
                } else {
                    quick_operand[ip] as usize
                };
                match &mut heap[h] {
                    HeapObj::Object { fields, .. } => {
                        if off >= fields.len() {
                            return Err(VmError::BadIndex(ip, off as i64));
                        }
                        fields[off] = v;
                    }
                    HeapObj::Array(_) => return Err(VmError::BadReference(ip, r)),
                }
                Flow::Next
            }
            Op::Getstatic | Op::GetstaticQuick => {
                if op == Op::Getstatic {
                    cur_ops[ip] = o.getstatic_quick;
                    quickenings += 1;
                    events.quicken(ip, o.getstatic_quick);
                }
                stack.push(statics[operand as usize]);
                Flow::Next
            }
            Op::Putstatic | Op::PutstaticQuick => {
                if op == Op::Putstatic {
                    cur_ops[ip] = o.putstatic_quick;
                    quickenings += 1;
                    events.quicken(ip, o.putstatic_quick);
                }
                let v = pop!();
                statics[operand as usize] = v;
                Flow::Next
            }
            Op::New | Op::NewQuick => {
                if op == Op::New {
                    cur_ops[ip] = o.new_quick;
                    quickenings += 1;
                    events.quicken(ip, o.new_quick);
                }
                let class = operand as ClassId;
                let size = image.instance_size(class);
                heap.push(HeapObj::Object { class, fields: vec![0; size] });
                allocations += 1;
                stack.push(heap.len() as i64);
                Flow::Next
            }
        };

        match flow {
            Flow::Next => {
                events.transfer(ip, ip + 1, false);
                ip += 1;
            }
            Flow::Taken(t) => {
                events.transfer(ip, t, true);
                ip = t;
            }
            Flow::Halt => break,
        }
    }

    Ok(VmOutput { text, steps, allocations, quickenings, ..VmOutput::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use ivm_core::NullEvents;

    fn eval(build: impl FnOnce(&mut Asm)) -> VmOutput {
        let mut a = Asm::new();
        build(&mut a);
        let image = a.link();
        run(&image, &mut NullEvents, 10_000_000).expect("runs")
    }

    fn simple_main(body: impl FnOnce(&mut Asm)) -> VmOutput {
        eval(|a| {
            a.class("Main", None, &[]);
            a.begin_static("Main", "main", 0, 8);
            body(a);
            a.ret();
            a.end_method();
        })
    }

    #[test]
    fn arithmetic() {
        let out = simple_main(|a| {
            a.ldc(10);
            a.ldc(3);
            a.isub();
            a.print_int();
            a.ldc(7);
            a.ldc(6);
            a.imul();
            a.print_int();
            a.ldc(20);
            a.ldc(6);
            a.idiv();
            a.print_int();
            a.ldc(20);
            a.ldc(6);
            a.irem();
            a.print_int();
        });
        assert_eq!(out.text, "7\n42\n3\n2\n");
    }

    #[test]
    fn int_overflow_wraps_like_java() {
        let out = simple_main(|a| {
            a.ldc(i64::from(i32::MAX));
            a.ldc(1);
            a.iadd();
            a.print_int();
        });
        assert_eq!(out.text, format!("{}\n", i32::MIN));
    }

    #[test]
    fn locals_and_iinc() {
        let out = simple_main(|a| {
            a.ldc(5);
            a.istore(0);
            a.iinc(0, 37);
            a.iload(0);
            a.print_int();
            a.iinc(0, -2);
            a.iload(0);
            a.print_int();
        });
        assert_eq!(out.text, "42\n40\n");
    }

    #[test]
    fn loops_via_branches() {
        // sum 0..10
        let out = simple_main(|a| {
            a.ldc(0);
            a.istore(0); // i
            a.ldc(0);
            a.istore(1); // sum
            a.label("head");
            a.iload(0);
            a.ldc(10);
            a.if_icmpge("done");
            a.iload(1);
            a.iload(0);
            a.iadd();
            a.istore(1);
            a.iinc(0, 1);
            a.goto("head");
            a.label("done");
            a.iload(1);
            a.print_int();
        });
        assert_eq!(out.text, "45\n");
    }

    #[test]
    fn static_calls() {
        let out = eval(|a| {
            a.class("Main", None, &[]);
            a.begin_static("Main", "square", 1, 1);
            a.iload(0);
            a.iload(0);
            a.imul();
            a.ireturn();
            a.end_method();
            a.begin_static("Main", "main", 0, 0);
            a.ldc(9);
            a.invokestatic("Main.square");
            a.print_int();
            a.ret();
            a.end_method();
        });
        assert_eq!(out.text, "81\n");
    }

    #[test]
    fn objects_fields_and_quickening() {
        let out = eval(|a| {
            a.class("Point", None, &["x", "y"]);
            a.class("Main", None, &[]);
            a.begin_static("Main", "main", 0, 1);
            a.new_object("Point");
            a.istore(0);
            a.iload(0);
            a.ldc(11);
            a.putfield("x");
            a.iload(0);
            a.ldc(31);
            a.putfield("y");
            a.iload(0);
            a.getfield("x");
            a.iload(0);
            a.getfield("y");
            a.iadd();
            a.print_int();
            a.ret();
            a.end_method();
        });
        assert_eq!(out.text, "42\n");
        // new + 2 putfields + 2 getfields quickened.
        assert_eq!(out.quickenings, 5);
        assert_eq!(out.allocations, 1);
    }

    #[test]
    fn virtual_dispatch_with_override() {
        let out = eval(|a| {
            a.class("A", None, &[]);
            a.class("B", Some("A"), &[]);
            a.class("Main", None, &[]);
            a.begin_virtual("A", "f", 0, 1);
            a.ldc(1);
            a.ireturn();
            a.end_method();
            a.begin_virtual("B", "f", 0, 1);
            a.ldc(2);
            a.ireturn();
            a.end_method();
            a.begin_static("Main", "main", 0, 2);
            a.new_object("A");
            a.invokevirtual("f");
            a.print_int();
            a.new_object("B");
            a.invokevirtual("f");
            a.print_int();
            a.ret();
            a.end_method();
        });
        assert_eq!(out.text, "1\n2\n");
    }

    #[test]
    fn arrays() {
        let out = simple_main(|a| {
            a.ldc(10);
            a.newarray();
            a.istore(0);
            a.iload(0);
            a.ldc(3);
            a.ldc(99);
            a.iastore();
            a.iload(0);
            a.ldc(3);
            a.iaload();
            a.print_int();
            a.iload(0);
            a.arraylength();
            a.print_int();
        });
        assert_eq!(out.text, "99\n10\n");
    }

    #[test]
    fn statics() {
        let out = simple_main(|a| {
            a.ldc(17);
            a.putstatic("Main.counter");
            a.getstatic("Main.counter");
            a.ldc(25);
            a.iadd();
            a.print_int();
        });
        assert_eq!(out.text, "42\n");
        assert_eq!(out.quickenings, 2);
    }

    #[test]
    fn second_execution_uses_quick_form() {
        // A getfield in a loop quickens once, then runs quick.
        let out = eval(|a| {
            a.class("Box", None, &["v"]);
            a.class("Main", None, &[]);
            a.begin_static("Main", "main", 0, 2);
            a.new_object("Box");
            a.istore(0);
            a.iload(0);
            a.ldc(5);
            a.putfield("v");
            a.ldc(0);
            a.istore(1);
            a.label("head");
            a.iload(0);
            a.getfield("v");
            a.pop();
            a.iinc(1, 1);
            a.iload(1);
            a.ldc(100);
            a.if_icmplt("head");
            a.ret();
            a.end_method();
        });
        // getfield quickens exactly once despite 100 executions.
        assert_eq!(out.quickenings, 3); // new + putfield + getfield
    }

    #[test]
    fn runtime_errors() {
        let image = {
            let mut a = Asm::new();
            a.class("Main", None, &[]);
            a.begin_static("Main", "main", 0, 0);
            a.ldc(1);
            a.ldc(0);
            a.idiv();
            a.pop();
            a.ret();
            a.end_method();
            a.link()
        };
        assert!(matches!(run(&image, &mut NullEvents, 1000), Err(VmError::DivisionByZero(_))));
    }

    #[test]
    fn null_reference_fails() {
        let image = {
            let mut a = Asm::new();
            a.class("Box", None, &["v"]);
            a.class("Main", None, &[]);
            a.begin_static("Main", "main", 0, 0);
            a.ldc(0); // null
            a.getfield("v");
            a.pop();
            a.ret();
            a.end_method();
            a.link()
        };
        assert!(matches!(run(&image, &mut NullEvents, 1000), Err(VmError::BadReference(_, 0))));
    }
}

#[cfg(test)]
mod exception_tests {
    use super::*;
    use crate::asm::Asm;
    use ivm_core::NullEvents;

    #[test]
    fn throw_and_catch_in_same_method() {
        let mut a = Asm::new();
        a.class("Exn", None, &["code"]);
        a.class("Main", None, &[]);
        a.begin_static("Main", "main", 0, 1);
        a.label("try");
        a.new_object("Exn");
        a.istore(0);
        a.iload(0);
        a.ldc(42);
        a.putfield("code");
        a.iload(0);
        a.athrow();
        a.ldc(0);
        a.print_int(); // skipped
        a.label("after");
        a.ret(); // skipped
        a.label("catch");
        a.getfield("code");
        a.print_int();
        a.ret();
        a.protect("try", "after", "catch");
        a.end_method();
        let image = a.link();
        let out = run(&image, &mut NullEvents, 10_000).expect("runs");
        assert_eq!(out.text, "42\n");
    }

    #[test]
    fn unwinding_crosses_frames() {
        let mut a = Asm::new();
        a.class("Exn", None, &[]);
        a.class("Main", None, &[]);
        a.begin_static("Main", "boom", 0, 0);
        a.new_object("Exn");
        a.athrow();
        a.ldc(0);
        a.ireturn(); // never reached
        a.end_method();
        a.begin_static("Main", "middle", 0, 0);
        a.invokestatic("Main.boom");
        a.ireturn();
        a.end_method();
        a.begin_static("Main", "main", 0, 0);
        a.label("try");
        a.invokestatic("Main.middle");
        a.print_int(); // skipped: the exception unwinds two frames
        a.label("after");
        a.ret();
        a.label("catch");
        a.pop(); // the exception ref
        a.ldc(7);
        a.print_int();
        a.ret();
        a.protect("try", "after", "catch");
        a.end_method();
        let image = a.link();
        let out = run(&image, &mut NullEvents, 10_000).expect("runs");
        assert_eq!(out.text, "7\n");
    }

    #[test]
    fn uncaught_exception_is_an_error() {
        let mut a = Asm::new();
        a.class("Exn", None, &[]);
        a.class("Main", None, &[]);
        a.begin_static("Main", "main", 0, 0);
        a.new_object("Exn");
        a.athrow();
        a.ret();
        a.end_method();
        let image = a.link();
        assert!(matches!(
            run(&image, &mut NullEvents, 10_000),
            Err(VmError::UncaughtException(_, _))
        ));
    }

    #[test]
    fn inner_handler_wins() {
        let mut a = Asm::new();
        a.class("Exn", None, &[]);
        a.class("Main", None, &[]);
        a.begin_static("Main", "main", 0, 0);
        a.label("outer_try");
        a.label("inner_try");
        a.new_object("Exn");
        a.athrow();
        a.label("inner_end");
        a.ret();
        a.label("inner_catch");
        a.pop();
        a.ldc(1);
        a.print_int();
        a.ret();
        a.label("outer_catch");
        a.pop();
        a.ldc(2);
        a.print_int();
        a.ret();
        // Outer registered first; inner (registered later) must win.
        a.protect("outer_try", "inner_end", "outer_catch");
        a.protect("inner_try", "inner_end", "inner_catch");
        a.end_method();
        let image = a.link();
        let out = run(&image, &mut NullEvents, 10_000).expect("runs");
        assert_eq!(out.text, "1\n");
    }

    #[test]
    fn exceptions_survive_every_technique() {
        use ivm_cache::CpuSpec;
        use ivm_core::Technique;
        let build = || {
            let mut a = Asm::new();
            a.class("Exn", None, &["code"]);
            a.class("Main", None, &[]);
            a.begin_static("Main", "risky", 1, 1);
            a.iload(0);
            a.ldc(3);
            a.irem();
            a.ifne("ok");
            a.new_object("Exn");
            a.istore(0);
            a.iload(0);
            a.ldc(5);
            a.putfield("code");
            a.iload(0);
            a.athrow();
            a.label("ok");
            a.iload(0);
            a.ireturn();
            a.end_method();
            a.begin_static("Main", "main", 0, 2);
            a.ldc(0);
            a.istore(1);
            a.ldc(0);
            a.istore(0);
            a.label("head");
            a.label("try");
            a.iload(0);
            a.invokestatic("Main.risky");
            a.iload(1);
            a.iadd();
            a.istore(1);
            a.goto("join");
            a.label("try_end");
            a.label("catch");
            a.getfield("code");
            a.iload(1);
            a.iadd();
            a.istore(1);
            a.label("join");
            a.iinc(0, 1);
            a.iload(0);
            a.ldc(12);
            a.if_icmplt("head");
            a.iload(1);
            a.print_int();
            a.ret();
            a.protect("try", "try_end", "catch");
            a.end_method();
            a.link()
        };
        let image = build();
        let prof = ivm_core::profile(&image).unwrap();
        let mut texts = Vec::new();
        for tech in Technique::jvm_suite() {
            let image = build();
            let (_, out) =
                ivm_core::measure(&image, tech, &CpuSpec::pentium4_northwood(), Some(&prof))
                    .unwrap_or_else(|e| panic!("{tech}: {e}"));
            texts.push(out.text);
        }
        assert!(texts.windows(2).all(|w| w[0] == w[1]), "{texts:?}");
    }
}

#[cfg(test)]
mod tableswitch_tests {
    use super::*;
    use crate::asm::Asm;
    use ivm_core::NullEvents;

    fn dispatcher_image(n: i64) -> crate::asm::JavaImage {
        // A loop dispatching selectors 0..4 through a tableswitch — the
        // shape of a bytecode interpreter written in bytecode.
        let mut a = Asm::new();
        a.class("Main", None, &[]);
        a.begin_static("Main", "main", 0, 2);
        a.ldc(0);
        a.istore(0); // i
        a.ldc(0);
        a.istore(1); // acc
        a.label("head");
        a.iload(0);
        a.ldc(5);
        a.irem();
        a.tableswitch(&["c0", "c1", "c2", "c3"], "cdef");
        a.label("c0");
        a.iinc(1, 1);
        a.goto("join");
        a.label("c1");
        a.iinc(1, 10);
        a.goto("join");
        a.label("c2");
        a.iinc(1, 100);
        a.goto("join");
        a.label("c3");
        a.iinc(1, 1000);
        a.goto("join");
        a.label("cdef");
        a.iinc(1, 10000);
        a.label("join");
        a.iinc(0, 1);
        a.iload(0);
        a.ldc(n);
        a.if_icmplt("head");
        a.iload(1);
        a.print_int();
        a.ret();
        a.end_method();
        a.link()
    }

    #[test]
    fn selects_cases_and_default() {
        let out = run(&dispatcher_image(10), &mut NullEvents, 100_000).expect("runs");
        // selectors 0..4 repeat twice over 10 iterations:
        // 2*(1 + 10 + 100 + 1000 + 10000) = 22222.
        assert_eq!(out.text, "22222\n");
    }

    #[test]
    fn negative_selector_goes_to_default() {
        let mut a = Asm::new();
        a.class("Main", None, &[]);
        a.begin_static("Main", "main", 0, 0);
        a.ldc(-3);
        a.tableswitch(&["zero"], "dflt");
        a.label("zero");
        a.ldc(0);
        a.print_int();
        a.ret();
        a.label("dflt");
        a.ldc(9);
        a.print_int();
        a.ret();
        a.end_method();
        let out = run(&a.link(), &mut NullEvents, 1_000).expect("runs");
        assert_eq!(out.text, "9\n");
    }

    #[test]
    fn tableswitch_survives_every_technique_and_thrashes_a_btb() {
        use ivm_cache::CpuSpec;
        use ivm_core::Technique;
        let image = dispatcher_image(60);
        let prof = ivm_core::profile(&image).unwrap();
        let mut texts = Vec::new();
        let mut plain_mispred = 0;
        for tech in Technique::jvm_suite() {
            let image = dispatcher_image(60);
            let (r, out) =
                ivm_core::measure(&image, tech, &CpuSpec::pentium4_northwood(), Some(&prof))
                    .unwrap_or_else(|e| panic!("{tech}: {e}"));
            if tech == Technique::Threaded {
                plain_mispred = r.counters.indirect_mispredicted;
            }
            texts.push(out.text);
        }
        assert!(texts.windows(2).all(|w| w[0] == w[1]), "{texts:?}");
        // The switch's 5 rotating targets defeat a BTB: at least one
        // misprediction per iteration survives even with replication
        // (paper: "some instructions may have more than one target").
        assert!(plain_mispred >= 60, "plain mispredictions: {plain_mispred}");
    }
}
