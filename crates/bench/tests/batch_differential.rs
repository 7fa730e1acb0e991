//! The differential proof behind the batched dispatch fast path: the
//! engine's event-batch seam (struct-of-arrays accumulation, one
//! observer call per batch) and the enum-dispatched predictor must be
//! *invisible* in every result artifact. For each frontend, the fast
//! path — `AnyPredictor` enum variant + default batch capacity — is
//! compared against the reference path — a `Boxed` trait object behind
//! the same enum + capacity-1 batches (per-dispatch delivery, the old
//! virtual-call behaviour) — and the hardware counters, cycles,
//! attribution JSON and encoded `.dtrace` bytes must all come out
//! bit-identical. Each cell also checks conservation: the attribution
//! sink's totals equal the engine's dispatch and misprediction counters.

use std::cell::RefCell;
use std::rc::Rc;

use ivm_bench::frontend;
use ivm_bpred::{AnyPredictor, Btb, BtbConfig, IndirectPredictor};
use ivm_cache::{CycleCosts, Icache, IcacheConfig};
use ivm_core::{
    DispatchTrace, Engine, ExecutionTrace, GuestVm, Profile, RunResult, SharedObserver, Technique,
};
use ivm_obs::{DispatchAttribution, Tally};

/// One measured replay with a given predictor and batch capacity,
/// returning the run result plus both observer artifacts and the
/// attribution total (captured in two passes so each observer sees the
/// stream alone, exactly as the production pipelines attach them).
fn run_path<G: GuestVm + ?Sized>(
    vm: &G,
    exec: &ExecutionTrace,
    technique: Technique,
    training: &Profile,
    make: &dyn Fn() -> AnyPredictor,
    capacity: Option<usize>,
) -> (RunResult, Vec<u8>, String, Tally) {
    let engine = |observer: SharedObserver| {
        let e = Engine::new(
            make(),
            Box::new(Icache::new(IcacheConfig::celeron_l1i())),
            CycleCosts::celeron(),
        );
        let e = match capacity {
            Some(c) => e.with_batch_capacity(c),
            None => e,
        };
        e.with_observer(observer)
    };

    let trace_sink = Rc::new(RefCell::new(DispatchTrace::new(0, technique.id())));
    let result = ivm_core::measure_trace_with(
        vm,
        exec,
        technique,
        engine(trace_sink.clone() as SharedObserver),
        Some(training),
    );
    let trace_bytes = trace_sink.borrow().to_bytes();

    let attrib_sink = DispatchAttribution::new().with_btb_sets(BtbConfig::celeron()).shared();
    let _ = ivm_core::measure_trace_with(
        vm,
        exec,
        technique,
        engine(attrib_sink.clone() as SharedObserver),
        Some(training),
    );
    let attrib = attrib_sink.borrow();

    (result, trace_bytes, attrib.to_json(None).to_string(), attrib.total())
}

fn assert_identical(
    label: &str,
    fast: &(RunResult, Vec<u8>, String, Tally),
    r: &(RunResult, Vec<u8>, String, Tally),
) {
    assert_eq!(fast.0.counters, r.0.counters, "{label}: hardware counters diverge");
    assert_eq!(
        fast.0.cycles.to_bits(),
        r.0.cycles.to_bits(),
        "{label}: cycle counts are not bit-identical"
    );
    assert_eq!(fast.0.icache_set_misses, r.0.icache_set_misses, "{label}: per-set misses diverge");
    assert_eq!(fast.1, r.1, "{label}: encoded .dtrace bytes diverge");
    assert_eq!(fast.2, r.2, "{label}: attribution JSON diverges");
}

#[test]
fn batched_fast_path_is_bit_identical_to_per_dispatch_reference() {
    let plans: [(&str, &str); 3] = [("forth", "micro"), ("java", "mpeg"), ("calc", "triangle")];
    for (fe, bench) in plans {
        let f = frontend(fe);
        let image = f.image(bench);
        let training = f.profile_of(bench);
        let (exec, _) = ivm_core::record(&*image).expect("recording run");

        for technique in [Technique::Threaded, Technique::DynamicRepl] {
            let cfg = BtbConfig::celeron();
            // Fast path: monomorphized enum variant, default batching.
            let fast =
                run_path(&*image, &exec, technique, &training, &|| Btb::new(cfg).into(), None);
            // Reference: the dyn-dispatch escape hatch with per-dispatch
            // observer delivery — behaviourally the pre-batching engine.
            let reference = run_path(
                &*image,
                &exec,
                technique,
                &training,
                &|| AnyPredictor::Boxed(Box::new(Btb::new(cfg)) as Box<dyn IndirectPredictor>),
                Some(1),
            );
            let label = format!("{fe}/{bench}/{technique}");
            assert_identical(&label, &fast, &reference);
            // Conservation: every dispatch the engine counts reaches the
            // attribution sink, and so does every misprediction.
            let (total, counters) = (fast.3, &fast.0.counters);
            assert_eq!(total.executed, counters.dispatches, "{label}: attributed dispatches");
            assert_eq!(
                total.mispredicted, counters.indirect_mispredicted,
                "{label}: attributed mispredictions"
            );

            // A deliberately awkward capacity exercises the partial-flush
            // boundary (batches that split mid-iteration).
            let odd =
                run_path(&*image, &exec, technique, &training, &|| Btb::new(cfg).into(), Some(3));
            assert_identical(&format!("{fe}/{bench}/{technique} (capacity 3)"), &odd, &reference);
        }
    }
}
