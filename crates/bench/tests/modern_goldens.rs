//! Event-granular goldens for the history-based predictors.
//!
//! `trace_sweep` proves that replaying a captured trace matches a live
//! run, but both sides run the same predictor code, so a rewrite of that
//! code which moves a misprediction would pass it. This test pins the
//! path-hybrid and ITTAGE predictors on real dispatch streams instead:
//! for every (benchmark, technique, predictor) it checks `executed`,
//! `mispredicted`, every `IttageBreakdown` field, and an FNV-1a hash of
//! the mispredicted event indices (delta-varint encoded). A change that
//! moves one misprediction from event 10 to event 11 fails here even
//! when every count stays the same.
//!
//! The fixture was generated from the pre-rewrite predictors and must not
//! be edited to make a rewrite pass. Regenerate it only for an intended
//! behaviour change, with
//! `cargo test --release -p ivm-bench --test modern_goldens -- --ignored`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use ivm_bench::predictor_registry;
use ivm_bpred::IndirectPredictor;
use ivm_cache::CpuSpec;
use ivm_core::{DispatchTrace, Engine, SharedObserver, Technique};

const FIXTURE: &str = include_str!("fixtures/modern_goldens.tsv");

const HEADER: &str = "trace\tpredictor\texecuted\tmispredicted\tmiss_log_fnv1a\tbase_hits\t\
                      base_misses\tprovider_hits\tprovider_misses\talt_hits\talt_misses\t\
                      allocations\tallocation_failures";

/// The predictors under test: every history-based registry entry.
const PREDICTORS: [&str; 5] =
    ["path-hybrid", "ittage-small", "ittage-medium", "ittage-firestorm", "ittage-64kb"];

const TECHNIQUES: [Technique; 2] = [Technique::Threaded, Technique::DynamicRepl];

/// Captures the dispatch stream of one bundled benchmark under
/// `technique`, through the same observer seam the trace store uses.
fn capture(frontend: &str, bench: &'static str, technique: Technique) -> DispatchTrace {
    let image = ivm_bench::frontend(frontend).image(bench);
    let (exec, _) = ivm_core::record(&*image).expect("recording run");
    let observer = Rc::new(RefCell::new(DispatchTrace::new(0, technique.id())));
    let engine =
        Engine::for_cpu(&CpuSpec::celeron800()).with_observer(observer.clone() as SharedObserver);
    ivm_core::measure_trace_with(&*image, &exec, technique, engine, None);
    Rc::try_unwrap(observer).expect("engine released its observer").into_inner()
}

/// Appends `v` as an unsigned LEB128 varint.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn join(v: &[u64]) -> String {
    v.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// One fixture line per history predictor for `trace`: counts, the
/// hashed misprediction log and (for ITTAGE) the component breakdown.
fn golden_lines(label: &str, trace: &DispatchTrace) -> Vec<String> {
    let registry = predictor_registry();
    PREDICTORS
        .iter()
        .map(|&name| {
            let (_, build) =
                registry.iter().find(|(n, _)| *n == name).expect("predictor in registry");
            let mut p = build();
            let (mut log, mut last, mut executed, mut mispredicted) =
                (Vec::new(), 0u64, 0u64, 0u64);
            for (i, (branch, target)) in trace.iter().enumerate() {
                executed += 1;
                if !p.predict_and_update(branch, target) {
                    mispredicted += 1;
                    push_varint(&mut log, i as u64 - last);
                    last = i as u64;
                }
            }
            let mut line =
                format!("{label}\t{name}\t{executed}\t{mispredicted}\t{:016x}", fnv1a(&log));
            match p.ittage_breakdown() {
                Some(bd) => write!(
                    line,
                    "\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    bd.base_hits,
                    bd.base_misses,
                    join(&bd.provider_hits),
                    join(&bd.provider_misses),
                    bd.alt_hits,
                    bd.alt_misses,
                    bd.allocations,
                    bd.allocation_failures,
                )
                .expect("writing to String cannot fail"),
                None => line.push_str(&"\t-".repeat(8)),
            }
            line
        })
        .collect()
}

/// Every golden line of one benchmark, both techniques.
fn bench_lines(frontend: &str, bench: &'static str) -> Vec<String> {
    TECHNIQUES
        .iter()
        .flat_map(|&t| {
            let trace = capture(frontend, bench, t);
            golden_lines(&format!("{frontend}/{bench}/{}", t.id()), &trace)
        })
        .collect()
}

fn check(frontend: &str, bench: &'static str) {
    let prefix = format!("{frontend}/{bench}/");
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| l.starts_with(&prefix)).collect();
    let actual = bench_lines(frontend, bench);
    assert_eq!(expected.len(), actual.len(), "{prefix}: golden line count drifted");
    for (e, a) in expected.iter().zip(&actual) {
        assert_eq!(*e, a.as_str(), "history predictor output drifted from the golden");
    }
}

#[test]
fn fixture_header_is_current() {
    assert_eq!(FIXTURE.lines().next(), Some(HEADER));
}

#[test]
fn forth_bench_gc_matches_goldens() {
    check("forth", "bench-gc");
}

#[test]
fn java_mpeg_matches_goldens() {
    check("java", "mpeg");
}

#[test]
fn calc_gcd_matches_goldens() {
    check("calc", "gcd");
}

/// Rewrites the fixture from the current predictors. Ignored: run it by
/// hand, and only for an intended behaviour change.
#[test]
#[ignore]
fn regenerate_fixture() {
    let mut out = format!("{HEADER}\n");
    for (frontend, bench) in [("forth", "bench-gc"), ("java", "mpeg"), ("calc", "gcd")] {
        for line in bench_lines(frontend, bench) {
            out.push_str(&line);
            out.push('\n');
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/modern_goldens.tsv");
    std::fs::write(path, out).expect("write fixture");
}
