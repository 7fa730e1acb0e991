//! End-to-end and per-layer benchmark of the reproduction over real
//! interpreter dispatch streams.
//!
//! ```text
//! ivm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (the reference files are read relative
//! to it). `--trace 0` alternates set-ups and untraced passes of the
//! workload for `--seconds` and reports the end-to-end metrics.
//! `--trace 1` sets up every workload once and reports the per-layer
//! metrics, measured by spans around each layer call. The last stdout
//! line is one JSON object; see `perfbench/README.md`.

mod inputs;
mod probe;
mod refs;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ivm_harness::{span, Xoshiro256StarStar};

use crate::inputs::Parts;
use crate::probe::{Checks, Probe};
use crate::refs::{RefPaths, Refs};
use crate::workloads::{PassOut, Workload};

/// Passes an untraced run makes at least, whatever `--seconds` says:
/// two, so every cell has a repeat to take the fastest of.
const MIN_PASSES: usize = 2;

/// Set-up time spent before each pass, at least: cheap set-ups repeat,
/// so the median `setup_s` rests on several samples everywhere.
const SETUP_SECONDS: f64 = 0.5;

/// Where the capture ladder writes, relative to the working directory.
const SCRATCH_DIR: &str = ".perfbench_scratch";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    refs: RefPaths,
    emit_refs: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ZooSweep,
        seed: 1,
        seconds: 10.0,
        trace: false,
        refs: RefPaths::default(),
        emit_refs: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--goldens" => args.refs.goldens = value()?.into(),
            "--modern-zoo" => args.refs.modern_zoo = value()?.into(),
            "--emit-refs" => args.emit_refs = Some(value()?.into()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.emit_refs.is_none() {
        args.workload = workload.ok_or("--workload is required")?;
    }
    Ok(args)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

/// Runs one pass of `w`, returning its wall time and output. `probe`
/// keeps each cell's fastest time across the passes it sees.
fn run_pass(
    w: Workload,
    setup: &inputs::Setup,
    refs: &Refs,
    rng: &mut Xoshiro256StarStar,
    probe: &mut Probe,
    checks: &mut Checks,
) -> (f64, PassOut) {
    let scratch = PathBuf::from(SCRATCH_DIR).join(format!("ladder-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let start = Instant::now();
    let out = workloads::pass(w, setup, refs, &scratch, rng, probe, checks);
    let secs = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    (secs, out)
}

/// Repeats passes of `w` for `seconds` (at least one), returning their
/// wall times and the last pass's output.
fn passes_for(
    seconds: f64,
    w: Workload,
    setup: &inputs::Setup,
    refs: &Refs,
    rng: &mut Xoshiro256StarStar,
    probe: &mut Probe,
    checks: &mut Checks,
) -> (Vec<f64>, PassOut) {
    let window = Instant::now();
    let mut times = Vec::new();
    loop {
        let (secs, out) = run_pass(w, setup, refs, rng, probe, checks);
        times.push(secs);
        if window.elapsed().as_secs_f64() >= seconds {
            return (times, out);
        }
    }
}

/// The untraced run: end-to-end metrics. Each pass is preceded by its
/// own set-ups, so set-up times spread over the whole run like the
/// passes do.
fn end_to_end(
    args: &Args,
    refs: &Refs,
    rng: &mut Xoshiro256StarStar,
    checks: &mut Checks,
) -> Metrics {
    span::set_enabled(false);
    let mut setup_times = Vec::new();
    let mut times = Vec::new();
    let mut probe = Probe::off();
    let mut out = PassOut::default();
    let mut setup = inputs::Setup::default();
    let window = Instant::now();
    while times.len() < MIN_PASSES || window.elapsed().as_secs_f64() < args.seconds {
        let spent = Instant::now();
        while setup_times.len() < times.len() + 1 || spent.elapsed().as_secs_f64() < SETUP_SECONDS {
            drop(std::mem::take(&mut setup));
            let secs;
            (setup, secs) =
                probe::reference_time(|| inputs::setup(args.workload.parts(), &mut Probe::off()));
            setup_times.push(secs);
        }
        let (secs, o) = run_pass(args.workload, &setup, refs, rng, &mut probe, checks);
        times.push(secs);
        out = o;
    }
    let wall = probe.pass_time();
    eprintln!(
        "set-ups {setup_times:.4?} ref s; pass walls {times:.4?} s; fastest cells {wall:.4} ref s"
    );
    vec![
        ("wall_s".into(), wall, "s"),
        ("sim_events_per_s".into(), out.events as f64 / wall, "1/s"),
        ("setup_s".into(), median(&setup_times), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
        ("match_ratio".into(), 1.0 - checks.mismatch_ratio(), "ratio"),
    ]
}

/// The traced run: per-layer metrics.
fn per_layer(
    args: &Args,
    refs: &Refs,
    rng: &mut Xoshiro256StarStar,
    checks: &mut Checks,
) -> Metrics {
    let all = Parts { zoo: true, captures: true, live: true };
    let mut probe = Probe::on();
    let setup = inputs::setup(all, &mut probe);

    // The named workload, untraced then traced, for overhead and coverage.
    let half = args.seconds / 2.0;
    span::set_enabled(false);
    let mut plain = Probe::off();
    passes_for(half, args.workload, &setup, refs, rng, &mut plain, checks);
    span::set_enabled(true);
    let mut named = Probe::on();
    let (traced, named_out) =
        passes_for(half, args.workload, &setup, refs, rng, &mut named, checks);
    let coverage = named.total_ns() as f64 / 1e9 / traced.iter().sum::<f64>();
    let overhead = 100.0 * (named.pass_time() / plain.pass_time() - 1.0);
    probe.absorb(named);

    // One traced pass of every other workload, then the layer calls no
    // workload makes, so every layer is measured whatever the name.
    let mut outs = Vec::new();
    for w in Workload::ALL {
        outs.push(if w == args.workload {
            named_out.clone()
        } else {
            run_pass(w, &setup, refs, rng, &mut probe, checks).1
        });
    }
    let [sweep, _, _, sampled] = &outs[..] else { unreachable!("one output per workload") };
    workloads::layer_extras(&setup, &mut probe);
    let slowdown = probe::reference_slowdown();
    layer_metrics(&probe, &setup, sweep, sampled, slowdown, overhead, coverage)
}

fn layer_metrics(
    p: &Probe,
    setup: &inputs::Setup,
    sweep: &PassOut,
    sampled: &PassOut,
    slowdown: f64,
    overhead_pct: f64,
    coverage: f64,
) -> Metrics {
    let ns = |name: &str| p.layer(name).ns_per_event() / slowdown;
    let mut m: Metrics = vec![
        ("interpret.ns_per_step".into(), ns("interpret"), "ns"),
        ("record.ns_per_event".into(), ns("record"), "ns"),
        ("translate.us_per_call".into(), p.layer("translate").us_per_call() / slowdown, "us"),
        ("translate.code_bytes".into(), p.layer("translate.code_bytes").events as f64, "bytes"),
        ("engine.ns_per_dispatch".into(), ns("engine"), "ns"),
        ("cache.fetch_ns_per_dispatch".into(), ns("engine+fetch") - ns("engine"), "ns"),
        (
            "cache.icache_miss_ratio".into(),
            p.layer("cache.icache_misses").events as f64
                / p.layer("cache.icache_accesses").events.max(1) as f64,
            "ratio",
        ),
    ];
    let registry = ivm_bench::predictor_registry();
    for (i, ((name, _), span)) in registry.iter().zip(workloads::bpred_spans()).enumerate() {
        m.push((format!("bpred.{name}.ns_per_event"), ns(span), "ns"));
        m.push((format!("bpred.{name}.mispredicted"), sweep.mispredicted[i] as f64, "count"));
    }
    let bytes: usize = setup.traces.iter().map(|c| c.encoded.len()).sum();
    let events: u64 = setup.traces.iter().map(|c| c.events).sum();
    m.extend([
        ("dtrace.decode_ns_per_event".into(), ns("dtrace.decode"), "ns"),
        ("dtrace.encode_ns_per_event".into(), ns("dtrace.encode"), "ns"),
        ("dtrace.index_ns_per_event".into(), ns("dtrace.index"), "ns"),
        ("dtrace.bytes_per_event".into(), bytes as f64 / events.max(1) as f64, "bytes"),
        ("tracestore.capture_ns_per_event".into(), ns("tracestore.capture"), "ns"),
        ("tracestore.load_ns_per_event".into(), ns("tracestore.load"), "ns"),
        ("pipeline.plan_ns_per_event".into(), ns("pipeline.plan"), "ns"),
        ("cluster.kmeans_us".into(), p.layer("cluster.kmeans").us_per_call() / slowdown, "us"),
        ("pipeline.sample_ns_per_event".into(), ns("pipeline.sample"), "ns"),
        (
            "pipeline.simulated_event_share".into(),
            sampled.simulated.0 as f64 / sampled.simulated.1.max(1) as f64,
            "ratio",
        ),
        ("pipeline.sampled_max_err_pp".into(), sampled.max_err_pp, "pp"),
        (
            "pipeline.within_bar_share".into(),
            sampled.within_bar.0 as f64 / sampled.within_bar.1.max(1) as f64,
            "ratio",
        ),
        ("host.reference_slowdown".into(), slowdown, "ratio"),
        ("trace_overhead_pct".into(), overhead_pct, "%"),
        ("trace_coverage_pct".into(), 100.0 * coverage, "%"),
    ]);
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.emit_refs {
        let setup =
            inputs::setup(Parts { zoo: true, captures: true, live: false }, &mut Probe::off());
        return match workloads::emit_refs(&setup, dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing references: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let refs = match Refs::load(&args.refs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(args.seed);
    let mut checks = Checks::default();
    let metrics = if args.trace {
        per_layer(&args, &refs, &mut rng, &mut checks)
    } else {
        end_to_end(&args, &refs, &mut rng, &mut checks)
    };

    let name = args.workload.name();
    for (metric, value, unit) in &metrics {
        println!("{name} {metric} = {value} {unit}");
    }
    println!(
        "{name} checks: {} attempted, {} failed, mismatch_ratio = {}",
        checks.attempted,
        checks.failed,
        checks.mismatch_ratio()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
