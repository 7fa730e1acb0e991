//! Superinstruction length study (§7.3): the paper reports that the
//! *average executed* static superinstruction is short (≈1.5 components)
//! while dynamic superinstructions average ≈3 components, and that
//! across-bb barely lengthens them for Forth (blocks are broken by calls).
//!
//! Components per dispatch = executed VM instructions / dispatches.
//!
//! Run with: `cargo run --release -p ivm-bench --bin superlen`

use ivm_bench::{frontend, run_cells, Cell, Frontend, Report, Row};
use ivm_cache::CpuSpec;
use ivm_core::{Profile, Technique};

/// Components-per-dispatch rows for one frontend's suite: the same cells
/// a grid would run, but reducing each run to steps/dispatches.
fn components(
    fe: &'static Frontend,
    cpu: &CpuSpec,
    techniques: &[Technique],
    trainings: &[Profile],
) -> Vec<Row> {
    let benches = fe.benches();
    let cells: Vec<Cell<(Technique, &'static str, usize)>> = techniques
        .iter()
        .flat_map(|&t| {
            benches
                .iter()
                .enumerate()
                .map(move |(i, b)| Cell::new(format!("{}/{}/{t}", fe.name, b.name), (t, b.name, i)))
        })
        .collect();
    let ratios = run_cells(cells, |cell| {
        let (tech, name, i) = cell.input;
        let image = fe.image(name);
        let (r, out) = ivm_core::measure(&*image, tech, cpu, Some(&trainings[i]))
            .unwrap_or_else(|e| panic!("{tech}: {e}"));
        out.steps as f64 / r.counters.dispatches as f64
    });
    techniques
        .iter()
        .zip(ratios.chunks(benches.len()))
        .map(|(tech, values)| Row { label: tech.paper_name().to_owned(), values: values.to_vec() })
        .collect()
}

fn main() {
    let mut report = Report::new("superlen");
    let cpu = CpuSpec::pentium4_northwood();
    let techniques = [
        Technique::Threaded,
        Technique::StaticSuper { budget: 400, algo: ivm_core::CoverAlgorithm::Greedy },
        Technique::DynamicSuper,
        Technique::AcrossBb,
    ];

    let forth = frontend("forth");
    let rows = components(forth, &cpu, &techniques, &forth.trainings());
    report.table(
        "Average executed components per dispatch, Forth suite \
         (paper §7.3: static ≈1.5, dynamic ≈3, across-bb barely longer)",
        &forth.names(),
        &rows,
        2,
    );

    let java = frontend("java");
    let rows = components(java, &cpu, &techniques, &java.trainings());
    report.table(
        "Average executed components per dispatch, Java suite \
         (paper §7.3: longer blocks than Forth, across-bb helps more)",
        &java.names(),
        &rows,
        2,
    );
    report.finish();
}
