//! Tables IX and X: how far the optimized interpreters are from
//! native-code compilers.
//!
//! * Table IX: Gforth's `across bb` vs bigForth/iForth on tscp, brainless
//!   and brew (Athlon-1200 in the paper).
//! * Table X: the JVM's `w/static super across` vs Kaffe's JIT and Hotspot
//!   on SPECjvm98.
//!
//! **Substitution**: the native compilers are cost models (see
//! `crates/bench/src/native_model.rs`); what is preserved is the paper's
//! point that the gap between an optimized interpreter and a simple native
//! compiler is small — speedups over `plain`, side by side.
//!
//! Run with: `cargo run --release -p ivm-bench --bin table9_10`

use ivm_bench::native_model::NativeCompiler;
use ivm_bench::{frontend, run_cells, Cell, Report, Row};
use ivm_cache::CpuSpec;
use ivm_core::{CoverAlgorithm, Technique};

fn table9(out: &mut Report) {
    let cpu = CpuSpec::athlon1200();
    let forth = frontend("forth");
    let training = forth.training();
    let compilers = [NativeCompiler::big_forth(), NativeCompiler::i_forth()];

    let names = ["tscp", "brainless", "brew"];
    let techniques = [Technique::Threaded, Technique::AcrossBb];
    let cells: Vec<Cell<(&'static str, Technique)>> = names
        .iter()
        .flat_map(|&name| {
            techniques.iter().map(move |&t| Cell::new(format!("forth/{name}/{t}"), (name, t)))
        })
        .collect();
    let results = run_cells(cells, |cell| {
        let (name, tech) = cell.input;
        let image = forth.image(name);
        ivm_core::measure(&*image, tech, &cpu, Some(&*training))
            .unwrap_or_else(|e| panic!("{name}/{tech}: {e}"))
            .0
    });

    let mut rows = Vec::new();
    for (name, pair) in names.iter().zip(results.chunks(techniques.len())) {
        let (plain, across) = (&pair[0], &pair[1]);
        let mut values = vec![across.speedup_over(plain)];
        values.extend(compilers.iter().map(|c| c.speedup_over(plain, &cpu.costs)));
        rows.push(Row { label: (*name).to_owned(), values });
    }
    out.table(
        &format!("Table IX: Gforth speedups over plain on {} (native columns modelled)", cpu.name),
        &["across bb", "bigForth", "iForth"],
        &rows,
        2,
    );
}

fn table10(out: &mut Report) {
    let cpu = CpuSpec::pentium4_northwood();
    let java = frontend("java");
    let trainings = java.trainings();
    let compilers = [
        NativeCompiler::kaffe_jit(),
        NativeCompiler::hotspot_interpreter(),
        NativeCompiler::hotspot_mixed(),
    ];
    let best = Technique::WithStaticSuperAcross { supers: 400, algo: CoverAlgorithm::Greedy };

    let grid = java.grid(&cpu, &[Technique::Threaded, best], &trainings);
    let mut rows = Vec::new();
    let mut sums = vec![0.0f64; 1 + compilers.len()];
    for (i, b) in java.benches().iter().enumerate() {
        let (plain, opt) = (&grid[0].1[i], &grid[1].1[i]);
        let mut values = vec![opt.speedup_over(plain)];
        values.extend(compilers.iter().map(|c| c.speedup_over(plain, &cpu.costs)));
        for (s, v) in sums.iter_mut().zip(&values) {
            *s += v;
        }
        rows.push(Row { label: b.name.to_owned(), values });
    }
    let n = java.benches().len() as f64;
    rows.push(Row {
        label: "average".to_owned(),
        values: sums.into_iter().map(|s| s / n).collect(),
    });
    out.table(
        "Table X: JVM speedups over plain (native/JIT columns modelled)",
        &["w/static acr", "kaffe JIT", "HS interp", "HS mixed"],
        &rows,
        2,
    );
}

fn main() {
    let mut report = Report::new("table9_10");
    table9(&mut report);
    table10(&mut report);
    report.finish();
}
