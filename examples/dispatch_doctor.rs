//! "Dispatch doctor": find which VM instructions cause the mispredictions.
//!
//! Runs a Forth benchmark with a [`DispatchAttribution`] observer on the
//! engine, then ranks VM words by the mispredictions of their dispatches —
//! the diagnosis that motivates replication in the paper (a VM instruction
//! occurring several times in the working set thrashes its BTB entry).
//!
//! Run with: `cargo run --release --example dispatch_doctor -- [benchmark] [technique]`
//! (technique defaults to `plain`; any paper name parses, e.g. "across bb")

use ivm::cache::CpuSpec;
use ivm::core::{translate, Engine, Measurement, Runner, SuperSelection, Technique};
use ivm::forth;
use ivm::obs::DispatchAttribution;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "bench-gc".into());
    let technique: Technique = std::env::args()
        .nth(2)
        .map(|t| t.parse().expect("technique name"))
        .unwrap_or(Technique::Threaded);
    let bench =
        ivm::forth::programs::find(&name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let image = bench.image();
    let cpu = CpuSpec::celeron800();

    let training = (technique.needs_profile()).then(|| {
        ivm::core::profile(&ivm::forth::programs::BRAINLESS.image()).expect("training run")
    });
    let o = forth::ops();
    let translation =
        translate(&o.spec, &image.program, technique, training.as_ref(), SuperSelection::gforth());

    let sink = DispatchAttribution::new().shared();
    let engine = Engine::for_cpu(&cpu).with_observer(sink.clone());
    let mut m = Measurement::new(translation, Runner::new(engine));
    forth::run(&image, &mut m, forth::DEFAULT_FUEL)?;
    m.flush_observer();

    println!("Worst VM words for {name} ({technique}, {}):", cpu.name);
    println!("{:<12} {:>12} {:>12} {:>8}", "VM word", "executed", "mispred", "rate%");
    for op in sink.borrow().per_opcode(m.translation()).iter().take(12) {
        let t = op.tally;
        println!(
            "{:<12} {:>12} {:>12} {:>8.1}",
            op.name,
            t.executed,
            t.mispredicted,
            100.0 * t.mispredicted as f64 / t.executed as f64,
        );
    }
    let r = m.finish();
    println!(
        "\ntotal: {} indirect branches, {} mispredicted ({:.1}%)",
        r.counters.indirect_branches,
        r.counters.indirect_mispredicted,
        100.0 * r.counters.misprediction_rate(),
    );
    println!(
        "Words whose dispatch thrashes occur at multiple points of the working\n\
         set — exactly the candidates replication (paper §4.1) splits apart."
    );
    Ok(())
}
