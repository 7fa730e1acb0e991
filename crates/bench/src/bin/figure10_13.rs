//! Figures 10–13: performance-counter metrics per interpreter variant.
//!
//! * Figure 10: bench-gc (Gforth) on a Pentium 4
//! * Figure 11: brew (Gforth) on a Pentium 4
//! * Figure 12: mpegaudio (Java) on a Pentium 4
//! * Figure 13: compress (Java) on a Pentium 4
//!
//! Run with: `cargo run --release -p ivm-bench --bin figure10_13 -- [bench-gc|brew|mpeg|compress|<any suite name>]`
//! (default: all four of the paper's figures)

use ivm_bench::{frontends, run_cells, smoke, Cell, Frontend, Report, Row};
use ivm_cache::CpuSpec;
use ivm_core::{RunResult, Technique};

fn metrics_row(r: &RunResult, costs: &ivm_cache::CycleCosts) -> Vec<f64> {
    vec![
        r.cycles,
        r.counters.instructions as f64,
        r.counters.indirect_branches as f64,
        r.counters.indirect_mispredicted as f64,
        r.counters.icache_misses as f64,
        r.counters.miss_cycles(costs),
        r.counters.code_bytes as f64,
    ]
}

fn report(
    out: &mut Report,
    figure: &str,
    bench: &str,
    results: &[(Technique, RunResult)],
    costs: &ivm_cache::CycleCosts,
) {
    let columns = ["cycles", "instrs", "ind.br.", "mispred", "ic.miss", "misscyc", "codeB"];
    let raw: Vec<Row> = results
        .iter()
        .map(|(t, r)| Row { label: t.paper_name().to_owned(), values: metrics_row(r, costs) })
        .collect();
    out.table(&format!("{figure}: performance counters for {bench} (raw)"), &columns, &raw, 0);

    // The paper's figures are normalised bar charts: print each metric
    // relative to its maximum across variants.
    let ncols = columns.len();
    let maxima: Vec<f64> = (0..ncols)
        .map(|c| raw.iter().map(|r| r.values[c]).fold(0.0_f64, f64::max).max(1e-9))
        .collect();
    let normalised: Vec<Row> = raw
        .iter()
        .map(|r| Row {
            label: r.label.clone(),
            values: r.values.iter().zip(&maxima).map(|(v, m)| v / m).collect(),
        })
        .collect();
    out.table(
        &format!("{figure}: performance counters for {bench} (normalised to max, as plotted)"),
        &columns,
        &normalised,
        2,
    );
}

fn run_frontend(out: &mut Report, figure: &str, fe: &'static Frontend, name: &'static str) {
    let cpu = CpuSpec::pentium4_northwood();
    let training = fe.training_for(name);
    let suite = fe.techniques();
    let cells: Vec<Cell<Technique>> =
        suite.iter().map(|&t| Cell::new(format!("{}/{name}/{t}", fe.name), t)).collect();
    let measured = run_cells(cells, |cell| {
        let t = cell.input;
        let image = fe.image(name);
        ivm_core::measure(&*image, t, &cpu, Some(&training))
            .unwrap_or_else(|e| panic!("{name}/{t}: {e}"))
            .0
    });
    let results: Vec<(Technique, RunResult)> = suite.into_iter().zip(measured).collect();
    report(out, figure, &format!("{name} ({})", fe.display), &results, &cpu.costs);
}

fn run_one(out: &mut Report, name: &str) {
    let Some((fe, bench_name)) =
        frontends().iter().find_map(|fe| fe.try_find(name).map(|b| (fe, b.name)))
    else {
        eprintln!("unknown benchmark `{name}`");
        std::process::exit(1);
    };
    let figure = match bench_name {
        "bench-gc" => "Figure 10",
        "brew" => "Figure 11",
        "mpeg" => "Figure 12",
        "compress" => "Figure 13",
        _ => "Counter metrics",
    };
    run_frontend(out, figure, fe, bench_name);
}

fn main() {
    let mut out = Report::new("figure10_13");
    let args: Vec<String> =
        std::env::args().skip(1).filter(|a| a != "--json" && !a.starts_with("--")).collect();
    if args.is_empty() {
        // The paper's four figures; in smoke mode one per VM suffices.
        let defaults: &[&str] =
            if smoke() { &["micro", "mpeg"] } else { &["bench-gc", "brew", "mpeg", "compress"] };
        for name in defaults {
            run_one(&mut out, name);
        }
    } else {
        for name in &args {
            run_one(&mut out, name);
        }
    }
    out.finish();
}
