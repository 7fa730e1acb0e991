//! Untimed set-up: guest images, training profiles, recorded executions
//! and, for the sweep workloads, captured and encoded dispatch traces.
//!
//! Everything is built fresh on each call (nothing is memoized across
//! calls), so repeated set-ups each pay the full cost and `setup_s` can
//! be reported as a median.

use std::cell::RefCell;
use std::rc::Rc;

use ivm_cache::CpuSpec;
use ivm_core::{
    dispatch_spec_hash, DispatchTrace, Engine, ExecutionTrace, GuestVm, Profile, SharedObserver,
    Technique,
};

use crate::probe::Probe;

/// One guest program with the training profile it is measured under.
pub struct Bench {
    /// Frontend registry name (`forth`, `java`, `calc`).
    pub frontend: &'static str,
    /// Frontend display name, as report titles print it.
    pub display: &'static str,
    /// Benchmark name.
    pub name: &'static str,
    /// The built image.
    pub vm: Box<dyn GuestVm>,
    /// Training profile for static techniques.
    pub training: Profile,
}

/// A benchmark plus one recorded execution of it.
pub struct Recorded {
    /// The benchmark.
    pub bench: Bench,
    /// Its recorded event stream.
    pub exec: ExecutionTrace,
}

/// One captured dispatch trace, encoded to bytes.
pub struct Captured {
    /// `frontend/bench/technique-id`, the key the references use.
    pub label: String,
    /// Index into [`Setup::zoo`].
    pub bench: usize,
    /// The technique the trace was captured under.
    pub technique: Technique,
    /// The `.dtrace` encoding.
    pub encoded: Vec<u8>,
    /// Dispatch events in the trace.
    pub events: u64,
}

/// The sweep benchmarks: the heaviest program of each frontend, as
/// `modern_zoo`, `sampling` and `figure14_16` use them.
pub const ZOO_BENCHES: [(&str, &str); 3] =
    [("forth", "bench-gc"), ("java", "mpeg"), ("calc", "gcd")];

/// The techniques the sweep workloads capture: the plain and
/// dynamic-replication rows of `results/modern_zoo.txt`.
pub const ZOO_TECHNIQUES: [Technique; 2] = [Technique::Threaded, Technique::DynamicRepl];

/// The live-grid benchmarks: the programs of `tests/fixtures/perf_goldens.txt`.
pub const LIVE_BENCHES: [(&str, &str); 5] = [
    ("forth", "micro"),
    ("forth", "gray"),
    ("forth", "bench-gc"),
    ("java", "db"),
    ("java", "mpeg"),
];

/// Which parts of the set-up a workload needs.
#[derive(Debug, Clone, Copy)]
pub struct Parts {
    /// Recorded sweep benchmarks.
    pub zoo: bool,
    /// Captured and encoded sweep traces (implies `zoo`).
    pub captures: bool,
    /// Live-grid benchmarks and trainings.
    pub live: bool,
}

/// Everything the timed phases read.
#[derive(Default)]
pub struct Setup {
    /// Recorded sweep benchmarks, in [`ZOO_BENCHES`] order.
    pub zoo: Vec<Recorded>,
    /// Captured traces: every zoo benchmark × [`ZOO_TECHNIQUES`].
    pub traces: Vec<Captured>,
    /// Live-grid benchmarks, in [`LIVE_BENCHES`] order.
    pub live: Vec<Bench>,
}

fn display(frontend: &str) -> &'static str {
    match frontend {
        "forth" => "Gforth",
        "java" => "Java",
        _ => "Calc",
    }
}

/// Builds a fresh image of a bundled benchmark.
///
/// # Panics
///
/// Panics if the benchmark is not bundled.
pub fn build_vm(frontend: &str, name: &str) -> Box<dyn GuestVm> {
    let vm: Option<Box<dyn GuestVm>> = match frontend {
        "forth" => ivm_forth::programs::find(name).map(|b| Box::new(b.image()) as _),
        "java" => ivm_java::programs::find(name).map(|b| Box::new((b.build)()) as _),
        _ => ivm_calc::programs::find(name).map(|b| Box::new(b.image()) as _),
    };
    vm.unwrap_or_else(|| panic!("{frontend}/{name} is not a bundled benchmark"))
}

fn profile(vm: &dyn GuestVm) -> Profile {
    ivm_core::profile(vm).expect("training run of a bundled benchmark")
}

/// The training profile `modern_zoo` measures a sweep benchmark under:
/// Gforth trains on brainless, calc on gcd, and Java cross-validated on
/// the merged profiles of every other suite program.
fn sweep_training(frontend: &str, name: &str) -> Profile {
    match frontend {
        "forth" => profile(&*build_vm("forth", "brainless")),
        "java" => {
            let mut merged = Profile::new();
            for b in ivm_java::programs::SUITE.iter().filter(|b| b.name != name) {
                merged.merge(&profile(&(b.build)()));
            }
            merged
        }
        _ => profile(&*build_vm("calc", "gcd")),
    }
}

/// Records one execution of `vm` (the `record` layer).
pub fn record(vm: &dyn GuestVm, probe: &mut Probe) -> ExecutionTrace {
    probe.time("record", || ivm_core::record(vm).expect("recording run").0, |t| t.len() as u64)
}

/// Captures the dispatch stream of `exec` under `technique`, exactly as
/// the trace store does: a Celeron replay with a capturing observer.
pub fn capture(bench: &Bench, exec: &ExecutionTrace, technique: Technique) -> DispatchTrace {
    let vm = &*bench.vm;
    let hash = dispatch_spec_hash(vm.spec(), vm.program(), technique, Some(&bench.training));
    let observer = Rc::new(RefCell::new(DispatchTrace::new(hash, technique.id())));
    let engine =
        Engine::for_cpu(&CpuSpec::celeron800()).with_observer(observer.clone() as SharedObserver);
    ivm_core::measure_trace_with(vm, exec, technique, engine, Some(&bench.training));
    Rc::try_unwrap(observer).expect("engine released its observer").into_inner()
}

/// Builds the requested parts of the set-up.
pub fn setup(parts: Parts, probe: &mut Probe) -> Setup {
    let mut s = Setup::default();
    if parts.zoo || parts.captures {
        for (frontend, name) in ZOO_BENCHES {
            let vm = build_vm(frontend, name);
            let exec = record(&*vm, probe);
            let training = sweep_training(frontend, name);
            let bench = Bench { frontend, display: display(frontend), name, vm, training };
            s.zoo.push(Recorded { bench, exec });
        }
    }
    if parts.captures {
        for (bi, r) in s.zoo.iter().enumerate() {
            for technique in ZOO_TECHNIQUES {
                let trace = capture(&r.bench, &r.exec, technique);
                let encoded =
                    probe.time("dtrace.encode", || trace.to_bytes(), |_| trace.len() as u64);
                s.traces.push(Captured {
                    label: format!("{}/{}/{}", r.bench.frontend, r.bench.name, technique.id()),
                    bench: bi,
                    technique,
                    events: trace.len() as u64,
                    encoded,
                });
            }
        }
    }
    if parts.live {
        let brainless = profile(&*build_vm("forth", "brainless"));
        for (frontend, name) in LIVE_BENCHES {
            let vm = build_vm(frontend, name);
            // The goldens train Gforth on brainless and each Java
            // program on its own profile.
            let training = if frontend == "forth" { brainless.clone() } else { profile(&*vm) };
            s.live.push(Bench { frontend, display: display(frontend), name, vm, training });
        }
    }
    s
}
