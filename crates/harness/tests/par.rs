//! Property tests for the parallel experiment executor: sharding a
//! randomized cell grid across 1, 2 or 7 workers must be unobservable in
//! the results, and a panicking cell must fail the whole run with its id.

use ivm_harness::par::{run_cells_with, Cell};
use ivm_harness::{prop, prop_assert, prop_assert_eq};

/// A randomized experiment cell: mixes its input with draws from a
/// stream seeded by that input alone, so the property fails if result
/// placement ever depends on scheduling.
fn simulate(input: u64) -> (u64, Vec<u64>) {
    let mut rng = ivm_harness::Xoshiro256StarStar::seed_from_u64(input);
    let draws: Vec<u64> = (0..(input % 5 + 1)).map(|_| rng.below(1000)).collect();
    let mixed = draws.iter().fold(input, |acc, &d| acc.rotate_left(7) ^ d);
    (mixed, draws)
}

#[test]
fn output_is_identical_for_jobs_1_2_and_7() {
    prop::check("par_jobs_invariance", prop::Config::from_env().cases(32), |src| {
        // A random grid: random size, random (possibly colliding) ids,
        // random payloads.
        let n = src.int_in(0usize..40);
        let cells: Vec<Cell<u64>> = (0..n)
            .map(|i| {
                let id = if src.bool() {
                    format!("{}/{}", src.lowercase(1..6), src.below(8))
                } else {
                    format!("cell-{i}")
                };
                Cell::new(id, src.below(1 << 48))
            })
            .collect();

        let run = |jobs: usize| {
            run_cells_with(jobs, &cells, |cell| simulate(cell.input)).expect("cells do not panic")
        };
        let (serial, serial_stats) = run(1);
        for jobs in [2usize, 7] {
            let (parallel, stats) = run(jobs);
            prop_assert_eq!(&serial, &parallel, "jobs={} diverged from serial", jobs);
            prop_assert_eq!(
                stats.cells.len(),
                serial_stats.cells.len(),
                "stats cover every cell at jobs={}",
                jobs
            );
            // Stats come back in canonical order regardless of schedule.
            for (a, b) in stats.cells.iter().zip(&serial_stats.cells) {
                prop_assert_eq!(&a.id, &b.id, "canonical stat order at jobs={}", jobs);
            }
        }
        Ok(())
    });
}

#[test]
fn panicking_cell_reports_first_failure_in_canonical_order() {
    prop::check("par_panic_reporting", prop::Config::from_env().cases(32), |src| {
        let n = src.int_in(1usize..20);
        let bad: Vec<bool> = (0..n).map(|_| src.weighted(&[3, 1]) == 1).collect();
        let cells: Vec<Cell<bool>> =
            bad.iter().enumerate().map(|(i, &b)| Cell::new(format!("grid/{i}"), b)).collect();
        let outcome = run_cells_with(src.int_in(1usize..8), &cells, |cell| {
            assert!(!cell.input, "injected failure in {}", cell.id);
            cell.input
        });
        match bad.iter().position(|&b| b) {
            None => prop_assert!(outcome.is_ok(), "no injected failure, run must pass"),
            Some(first) => {
                let err = match outcome {
                    Ok(_) => return Err("injected failure not reported".into()),
                    Err(e) => e,
                };
                prop_assert_eq!(&err.id, &format!("grid/{}", first), "first bad cell wins");
                prop_assert!(
                    err.to_string().contains(&format!("grid/{first}")),
                    "error message names the cell: {}",
                    err
                );
            }
        }
        Ok(())
    });
}
