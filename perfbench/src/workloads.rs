//! The four timed workloads, plus the extra layer calls of the traced
//! run and the generator of the committed sweep references.
//!
//! Each workload is one *pass* over its cells; a run repeats passes
//! for the measuring window. A workload seed permutes the cell order
//! only — program inputs, and so every checked output, are independent
//! of it.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

use ivm_bench::pipeline;
use ivm_bench::{predictor_registry, trace_meta, TraceStore};
use ivm_bpred::{IdealBtb, PredStats};
use ivm_cache::{CpuSpec, PerfectIcache};
use ivm_core::{
    dispatch_spec_hash, simulate_many, translate, CoverAlgorithm, DispatchTrace, Engine,
    Measurement, NullEvents, ReplicaSelection, RunResult, Runner, SpecHasher, Technique,
    DEFAULT_INTERVAL_LEN,
};
use ivm_harness::Xoshiro256StarStar;

use crate::inputs::{self, Captured, Setup, ZOO_TECHNIQUES};
use crate::probe::{Checks, Probe};
use crate::refs::Refs;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Decode + full 13-predictor sweep of the six sweep traces.
    ZooSweep,
    /// Live `measure` over the 72 golden cells.
    LiveGrid,
    /// Cold capture + warm reload of the 33-trace technique ladder.
    CaptureLadder,
    /// Decode + sampled sweep at the two ROADMAP sampling points.
    SampledSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::ZooSweep, Workload::LiveGrid, Workload::CaptureLadder, Workload::SampledSweep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZooSweep => "zoo-sweep",
            Workload::LiveGrid => "live-grid",
            Workload::CaptureLadder => "capture-ladder",
            Workload::SampledSweep => "sampled-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The set-up this workload reads.
    pub fn parts(self) -> inputs::Parts {
        let sweep = matches!(self, Workload::ZooSweep | Workload::SampledSweep);
        inputs::Parts {
            zoo: self == Workload::CaptureLadder,
            captures: sweep,
            live: self == Workload::LiveGrid,
        }
    }
}

/// The `(interval, K)` points ROADMAP item 3 cites.
pub const SAMPLING_POINTS: [(u64, usize); 2] = [(4096, 4), (16384, 8)];

/// The predictors `results/modern_zoo.txt` prints rates for.
const PRINTED_PREDICTORS: [&str; 10] = [
    "btb-celeron",
    "btb-p4",
    "btb-2bit",
    "two-level-pentium-m",
    "cascaded",
    "path-hybrid",
    "ittage-small",
    "ittage-medium",
    "ittage-firestorm",
    "ittage-64kb",
];

/// `modern_zoo`'s replication / superinstruction ladder.
pub fn ladder() -> Vec<Technique> {
    let repl = |budget| Technique::StaticRepl { budget, selection: ReplicaSelection::RoundRobin };
    let sup = |budget| Technique::StaticSuper { budget, algo: CoverAlgorithm::Greedy };
    vec![
        Technique::Threaded,
        repl(25),
        repl(100),
        repl(400),
        repl(1600),
        Technique::DynamicRepl,
        sup(25),
        sup(100),
        sup(400),
        Technique::DynamicSuper,
        Technique::AcrossBb,
    ]
}

/// `bpred.<registry-name>` span names, one per registry predictor.
pub fn bpred_spans() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        predictor_registry()
            .iter()
            .map(|(n, _)| &*Box::leak(format!("bpred.{n}").into_boxed_str()))
            .collect()
    })
}

/// `0..n` in a seed-determined order.
pub fn shuffled(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below_usize(i + 1));
    }
    order
}

/// What one pass produced besides its checks.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Work units of the pass: predictor-events for the sweeps,
    /// dispatches for the live grid, captured events for the ladder.
    pub events: u64,
    /// Per-registry-predictor mispredictions summed over the traces
    /// (sweep only).
    pub mispredicted: Vec<u64>,
    /// Largest |sampled − full| over all estimates, pp (sampled only).
    pub max_err_pp: f64,
    /// Estimates within their own error bar, and estimates made.
    pub within_bar: (u64, u64),
    /// Events the sampled runs fed, and what full sweeps would feed.
    pub simulated: (u64, u64),
}

/// Runs one pass of `w`.
pub fn pass(
    w: Workload,
    s: &Setup,
    refs: &Refs,
    scratch: &Path,
    rng: &mut Xoshiro256StarStar,
    probe: &mut Probe,
    checks: &mut Checks,
) -> PassOut {
    match w {
        Workload::ZooSweep => zoo_sweep(s, refs, rng, probe, checks),
        Workload::LiveGrid => live_grid(s, refs, rng, probe, checks),
        Workload::CaptureLadder => capture_ladder(s, scratch, rng, probe, checks),
        Workload::SampledSweep => sampled_sweep(s, refs, rng, probe, checks),
    }
}

fn decode(c: &Captured, probe: &mut Probe, checks: &mut Checks) -> Option<DispatchTrace> {
    let decoded = probe.time(
        "dtrace.decode",
        || DispatchTrace::from_bytes(&c.encoded),
        |r| r.as_ref().map_or(0, |t| t.len() as u64),
    );
    checks.check(decoded.is_ok(), || format!("{}: decode failed: {decoded:?}", c.label));
    decoded.ok()
}

fn zoo_sweep(
    s: &Setup,
    refs: &Refs,
    rng: &mut Xoshiro256StarStar,
    probe: &mut Probe,
    checks: &mut Checks,
) -> PassOut {
    let registry = predictor_registry();
    let spans = bpred_spans();
    let mut out = PassOut { mispredicted: vec![0; registry.len()], ..PassOut::default() };
    let n = s.traces.len();
    for ti in shuffled(n, rng) {
        let c = &s.traces[ti];
        let Some(trace) = probe.cell(ti, |p| decode(c, p, checks)) else { continue };
        let len = trace.len() as u64;
        for pj in shuffled(registry.len(), rng) {
            let (name, build) = registry[pj];
            let stats = probe.cell(n + ti * registry.len() + pj, |p| {
                p.time(spans[pj], || simulate_many(&trace, &mut [build()])[0], |_| len)
            });
            check_sweep(s, refs, c, name, stats, checks);
            out.events += stats.executed;
            out.mispredicted[pj] += stats.mispredicted;
        }
    }
    out
}

/// Checks one full-sweep result: the event count, the exact committed
/// misprediction count, and the `modern_zoo` rate at printed precision.
fn check_sweep(
    s: &Setup,
    refs: &Refs,
    c: &Captured,
    pred: &str,
    stats: PredStats,
    checks: &mut Checks,
) {
    checks.eq(&format!("{}/{pred} executed", c.label), stats.executed, c.events);
    let counts = refs.counts.get(&(c.label.clone(), pred.to_owned())).copied();
    checks.eq(
        &format!("{}/{pred} (executed, mispredicted)", c.label),
        Some((stats.executed, stats.mispredicted)),
        counts,
    );
    if PRINTED_PREDICTORS.contains(&pred) {
        let bench = &s.zoo[c.bench].bench;
        let key = (
            format!("{} {}", bench.display, bench.name),
            c.technique.paper_name().to_owned(),
            pred.to_owned(),
        );
        let printed = refs.printed.get(&key).map(String::as_str);
        let rate = format!("{:.1}", 100.0 * stats.misprediction_rate());
        checks.eq(&format!("{}/{pred} printed rate", c.label), Some(rate.as_str()), printed);
    }
}

/// The golden-fixture line of one live-grid cell.
fn golden_line(tag: &str, cpu: &CpuSpec, r: &RunResult) -> String {
    let c = &r.counters;
    format!(
        "{tag}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        cpu.name,
        c.instructions,
        c.indirect_branches,
        c.indirect_mispredicted,
        c.icache_misses,
        c.icache_accesses,
        c.code_bytes,
        c.dispatches,
        r.cycles,
    )
}

/// The 72 golden cells as `(live bench, cpu, technique)`.
fn live_cells(s: &Setup) -> Vec<(usize, CpuSpec, Technique)> {
    let mut cells = Vec::new();
    for (bi, b) in s.live.iter().enumerate() {
        let (cpus, techniques) = if b.frontend == "forth" {
            (vec![CpuSpec::celeron800(), CpuSpec::pentium4_northwood()], Technique::gforth_suite())
        } else {
            (vec![CpuSpec::pentium4_northwood()], Technique::jvm_suite())
        };
        for cpu in cpus {
            for &t in &techniques {
                cells.push((bi, cpu.clone(), t));
            }
        }
    }
    cells
}

/// Live `measure` over the golden cells. A recording probe splits each
/// `measure` into `record` (once per program), `translate` and the
/// engine replay of the recorded stream, which must reproduce the same
/// counters.
fn live_grid(
    s: &Setup,
    refs: &Refs,
    rng: &mut Xoshiro256StarStar,
    probe: &mut Probe,
    checks: &mut Checks,
) -> PassOut {
    let cells = live_cells(s);
    checks.eq("live-grid cell count", cells.len(), refs.goldens.len());
    let mut execs = vec![None; s.live.len()];
    let mut out = PassOut::default();
    for ci in shuffled(cells.len(), rng) {
        let (bi, ref cpu, t) = cells[ci];
        let b = &s.live[bi];
        let vm = &*b.vm;
        let training = Some(&b.training);
        let exec = &mut execs[bi];
        let r = probe.cell(ci, |p| {
            if !p.is_on() {
                return ivm_core::measure(vm, t, cpu, training).map(|(r, _)| r);
            }
            let exec = exec.get_or_insert_with(|| inputs::record(vm, p));
            let translation = p.time(
                "translate",
                || translate(vm.spec(), vm.program(), t, training, vm.super_selection()),
                |_| 1,
            );
            p.count("translate.code_bytes", translation.code_bytes());
            Ok(p.time(
                "engine.replay",
                || {
                    let mut m = Measurement::new(translation, Runner::new(Engine::for_cpu(cpu)));
                    exec.replay(&mut m);
                    m.finish()
                },
                |r| r.counters.dispatches,
            ))
        });
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                checks.check(false, || format!("{}/{}/{t}: {e}", b.frontend, b.name));
                continue;
            }
        };
        let tag = format!("{}/{}/{t}", b.frontend, b.name);
        let golden = refs.goldens.get(&format!("{tag}\t{}", cpu.name)).map(String::as_str);
        checks.eq(
            &format!("{tag} on {}", cpu.name),
            Some(golden_line(&tag, cpu, &r).as_str()),
            golden,
        );
        out.events += r.counters.dispatches;
    }
    out
}

/// Cold capture of the ladder into a fresh directory, each trace
/// followed by a warm reload through a second store.
fn capture_ladder(
    s: &Setup,
    dir: &Path,
    rng: &mut Xoshiro256StarStar,
    probe: &mut Probe,
    checks: &mut Checks,
) -> PassOut {
    let techniques = ladder();
    let cells: Vec<(usize, Technique)> =
        (0..s.zoo.len()).flat_map(|bi| techniques.iter().map(move |&t| (bi, t))).collect();
    let acquired = || trace_meta().map_or((0, 0), |m| (m.captured, m.cache_hits));
    let mut out = PassOut::default();
    for ci in shuffled(cells.len(), rng) {
        let (bi, t) = cells[ci];
        let r = &s.zoo[bi];
        let (b, vm) = (&r.bench, &*r.bench.vm);
        let get = |store: &TraceStore| {
            store.get_or_capture(b.frontend, b.name, vm, &r.exec, t, Some(&b.training))
        };
        let len = |st: &std::sync::Arc<ivm_bench::StoredTrace>| st.trace().len() as u64;
        let before = acquired();
        let (captured, loaded) = probe.cell(ci, |p| {
            let cold = TraceStore::with_dir(dir);
            let captured = p.time("tracestore.capture", || get(&cold), len);
            let warm = TraceStore::with_dir(dir);
            (captured, p.time("tracestore.load", || get(&warm), len))
        });
        let what = format!("{}/{}/{}", b.frontend, b.name, t.id());
        let after = acquired();
        let (fresh, hits) = (after.0 - before.0, after.1 - before.1);
        checks.eq(&format!("{what} (captures, reloads from disk)"), (fresh, hits), (1, 1));
        checks.check(loaded.trace() == captured.trace(), || format!("{what}: reload differs"));
        let expected = dispatch_spec_hash(vm.spec(), vm.program(), t, Some(&b.training));
        checks.eq(&format!("{what} dispatch_spec_hash"), loaded.trace().spec_hash(), expected);
        out.events += len(&captured);
    }
    out
}

fn sampled_sweep(
    s: &Setup,
    refs: &Refs,
    rng: &mut Xoshiro256StarStar,
    probe: &mut Probe,
    checks: &mut Checks,
) -> PassOut {
    let registry = predictor_registry();
    let mut out = PassOut::default();
    let (n, points) = (s.traces.len(), SAMPLING_POINTS.len());
    for ti in shuffled(n, rng) {
        let c = &s.traces[ti];
        let Some(trace) = probe.cell(ti, |p| decode(c, p, checks)) else { continue };
        let len = trace.len() as u64;
        for pi in shuffled(points, rng) {
            let (ival, k) = SAMPLING_POINTS[pi];
            let plan_cell = n + ti * points + pi;
            let plan = probe.cell(plan_cell, |p| {
                p.time("pipeline.plan", || pipeline::plan(&trace, ival, k), |_| len)
            });
            for pj in shuffled(registry.len(), rng) {
                let (name, build) = registry[pj];
                let sample_cell = n * (1 + points) + (ti * points + pi) * registry.len() + pj;
                let (run, est) = probe.cell(sample_cell, |p| {
                    let run = p.time(
                        "pipeline.sample",
                        || pipeline::simulate_sampled(&trace, &plan, &build),
                        |r| r.simulated_events,
                    );
                    let est = p.time("pipeline.combine", || pipeline::combine(&run), |_| 1);
                    (run, est)
                });
                let what = format!("{}/{name} at {ival}/{k}", c.label);
                let key = (c.label.clone(), ival, k, name.to_owned());
                let reference = refs.sampled.get(&key).copied();
                let actual = crate::refs::SampledRef {
                    rate_pct: est.rate_pct,
                    err_pp: est.err_pp,
                    simulated_events: est.simulated_events,
                };
                checks.eq(&what, Some(actual), reference);
                if let Some(&(executed, mispredicted)) =
                    refs.counts.get(&(c.label.clone(), name.to_owned()))
                {
                    let full_pct = 100.0 * mispredicted as f64 / executed.max(1) as f64;
                    let err = (est.rate_pct - full_pct).abs();
                    out.max_err_pp = out.max_err_pp.max(err);
                    out.within_bar.0 += u64::from(err <= est.err_pp);
                }
                out.within_bar.1 += 1;
                out.simulated.0 += est.simulated_events;
                out.simulated.1 += len;
                out.events += run.simulated_events;
            }
        }
    }
    out
}

/// Layer calls no workload makes: bare interpretation, the engine replay
/// with an ideal predictor and perfect or real fetch, the interval
/// index, and the clusterer alone.
pub fn layer_extras(s: &Setup, probe: &mut Probe) {
    let vms = s.zoo.iter().map(|r| &*r.bench.vm).chain(s.live.iter().map(|b| &*b.vm));
    for vm in vms {
        probe.time(
            "interpret",
            || vm.execute(&mut NullEvents, vm.default_fuel()).expect("bundled benchmark runs"),
            |o| o.steps,
        );
    }
    let cpu = CpuSpec::celeron800();
    for b in &s.live {
        let vm = &*b.vm;
        let exec = inputs::record(vm, probe);
        for t in ZOO_TECHNIQUES {
            let replay =
                |engine| ivm_core::measure_trace_with(vm, &exec, t, engine, Some(&b.training));
            let ideal = Engine::new(IdealBtb::new(), Box::new(PerfectIcache::default()), cpu.costs);
            probe.time("engine", || replay(ideal), |r| r.counters.dispatches);
            let fetch = Engine::new(IdealBtb::new(), cpu.fetch_cache(), cpu.costs);
            let r = probe.time("engine+fetch", || replay(fetch), |r| r.counters.dispatches);
            probe.count("cache.icache_misses", r.counters.icache_misses);
            probe.count("cache.icache_accesses", r.counters.icache_accesses);
        }
    }
    for c in &s.traces {
        let trace = DispatchTrace::from_bytes(&c.encoded).expect("set-up trace decodes");
        let len = trace.len() as u64;
        probe.time("dtrace.index", || trace.interval_index(DEFAULT_INTERVAL_LEN), |_| len);
        for (ival, k) in SAMPLING_POINTS {
            let points = trace.interval_index(ival).normalized_points();
            // The same seed `pipeline::plan` derives.
            let seed = SpecHasher::new()
                .str("ivm-sampling-plan")
                .u64(trace.spec_hash())
                .str(trace.technique())
                .u64(ival)
                .u64(k as u64)
                .finish();
            probe.time("cluster.kmeans", || ivm_harness::kmeans(&points, k, seed), |_| 1);
        }
    }
}

/// Writes `zoo_counts.tsv` and `sampled.tsv` for the current program
/// into `dir`. Run once to create the committed references.
///
/// # Errors
///
/// Returns the I/O error of a failed write.
pub fn emit_refs(s: &Setup, dir: &Path) -> std::io::Result<()> {
    let registry = predictor_registry();
    let mut counts = String::from("trace\tpredictor\texecuted\tmispredicted\n");
    let mut sampled =
        String::from("trace\tinterval\tk\tpredictor\trate_pct\terr_pp\tsimulated_events\n");
    for c in &s.traces {
        let trace = DispatchTrace::from_bytes(&c.encoded).expect("set-up trace decodes");
        let mut predictors: Vec<_> = registry.iter().map(|(_, b)| b()).collect();
        for ((name, _), st) in registry.iter().zip(simulate_many(&trace, &mut predictors)) {
            let _ = writeln!(counts, "{}\t{name}\t{}\t{}", c.label, st.executed, st.mispredicted);
        }
        for (ival, k) in SAMPLING_POINTS {
            let plan = pipeline::plan(&trace, ival, k);
            for (name, build) in &registry {
                let est = pipeline::combine(&pipeline::simulate_sampled(&trace, &plan, build));
                let _ = writeln!(
                    sampled,
                    "{}\t{ival}\t{k}\t{name}\t{:?}\t{:?}\t{}",
                    c.label, est.rate_pct, est.err_pp, est.simulated_events
                );
            }
        }
    }
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("zoo_counts.tsv"), counts)?;
    std::fs::write(dir.join("sampled.tsv"), sampled)
}
