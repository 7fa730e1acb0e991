//! Event-stream goldens for the three guest interpreters.
//!
//! The live-grid goldens (`tests/fixtures/perf_goldens.txt`) pin counters
//! for five programs only, and only after translation. This test pins the
//! interpreters themselves on every bundled program of every frontend
//! (suite and extras): the step count, the quickening count, the printed
//! output, an FNV-1a hash of the final data stack, and an FNV-1a hash of
//! the recorded [`ExecutionTrace`] event stream (every begin, transfer and
//! quickening, in order). An interpreter rewrite that sends one transfer
//! to the wrong instance, or quickens a site into the wrong variant,
//! fails here even when every aggregate count stays the same.
//!
//! The fixture was generated from the compare-chain interpreters and must
//! not be edited to make a rewrite pass. Regenerate it only for an
//! intended behaviour change, with
//! `cargo test --release -p ivm-bench --test interp_goldens -- --ignored`.

use ivm_core::{ExecutionTrace, GuestVm, OpId, VmEvents};

const FIXTURE: &str = include_str!("fixtures/interp_goldens.tsv");

const HEADER: &str =
    "frontend\tprogram\tsteps\tquickenings\tstack_fnv1a\tevents\tevents_fnv1a\toutput";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Streaming 64-bit FNV-1a.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Hashes a replayed event stream: a tag byte per event, then its fields
/// little-endian at their recorded widths.
struct EventHash {
    hash: u64,
    events: u64,
}

impl EventHash {
    fn feed(&mut self, bytes: &[u8]) {
        self.hash = fnv1a(self.hash, bytes);
        self.events += 1;
    }
}

impl VmEvents for EventHash {
    fn begin(&mut self, entry: usize) {
        let mut b = [0u8; 5];
        b[1..].copy_from_slice(&(entry as u32).to_le_bytes());
        self.feed(&b);
    }

    fn transfer(&mut self, from: usize, to: usize, taken: bool) {
        let mut b = [1u8; 10];
        b[1..5].copy_from_slice(&(from as u32).to_le_bytes());
        b[5..9].copy_from_slice(&(to as u32).to_le_bytes());
        b[9] = u8::from(taken);
        self.feed(&b);
    }

    fn quicken(&mut self, instance: usize, quick_op: OpId) {
        let mut b = [2u8; 7];
        b[1..5].copy_from_slice(&(instance as u32).to_le_bytes());
        b[5..].copy_from_slice(&quick_op.to_le_bytes());
        self.feed(&b);
    }
}

/// Escapes the output text into one TSV field.
fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n").replace('\t', "\\t")
}

/// Every bundled program as `(frontend, name, image)`, in suite order
/// with the extras last.
fn programs() -> Vec<(&'static str, &'static str, Box<dyn GuestVm>)> {
    let mut out: Vec<(&'static str, &'static str, Box<dyn GuestVm>)> = Vec::new();
    for b in ivm_forth::programs::SUITE.iter().chain([&ivm_forth::programs::MICRO]) {
        out.push(("forth", b.name, Box::new(b.image())));
    }
    for b in &ivm_java::programs::SUITE {
        out.push(("java", b.name, Box::new((b.build)())));
    }
    for b in &ivm_calc::programs::SUITE {
        out.push(("calc", b.name, Box::new(b.image())));
    }
    out
}

/// The golden line of one program: record a run, then hash its replay.
fn golden_line(frontend: &str, name: &str, vm: &dyn GuestVm) -> String {
    let (trace, out): (ExecutionTrace, _) = ivm_core::record(vm).expect("bundled program runs");
    let mut events = EventHash { hash: FNV_OFFSET, events: 0 };
    trace.replay(&mut events);
    let stack = out.stack.iter().fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()));
    format!(
        "{frontend}\t{name}\t{}\t{}\t{stack:016x}\t{}\t{:016x}\t{}",
        out.steps,
        out.quickenings,
        events.events,
        events.hash,
        escape(&out.text)
    )
}

fn check(frontend: &str) {
    let prefix = format!("{frontend}\t");
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| l.starts_with(&prefix)).collect();
    let actual: Vec<String> = programs()
        .iter()
        .filter(|(f, _, _)| *f == frontend)
        .map(|(f, n, vm)| golden_line(f, n, &**vm))
        .collect();
    assert_eq!(expected.len(), actual.len(), "{frontend}: golden program count drifted");
    for (e, a) in expected.iter().zip(&actual) {
        assert_eq!(*e, a.as_str(), "interpreter event stream drifted from the golden");
    }
}

#[test]
fn fixture_header_is_current() {
    assert_eq!(FIXTURE.lines().next(), Some(HEADER));
}

#[test]
fn forth_programs_match_goldens() {
    check("forth");
}

#[test]
fn java_programs_match_goldens() {
    check("java");
}

#[test]
fn calc_programs_match_goldens() {
    check("calc");
}

/// Rewrites the fixture from the current interpreters. Ignored: run it by
/// hand, and only for an intended behaviour change.
#[test]
#[ignore]
fn regenerate_fixture() {
    let mut out = format!("{HEADER}\n");
    for (frontend, name, vm) in programs() {
        out.push_str(&golden_line(frontend, name, &*vm));
        out.push('\n');
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/interp_goldens.tsv");
    std::fs::write(path, out).expect("write fixture");
}
