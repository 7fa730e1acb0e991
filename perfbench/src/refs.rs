//! Committed references the timed outputs are checked against.
//!
//! * `tests/fixtures/perf_goldens.txt`: the live-grid counters.
//! * `results/modern_zoo.txt`: misprediction rates at printed precision.
//! * `perfbench/refs/zoo_counts.tsv`: exact `(executed, mispredicted)`
//!   of every registry predictor on every sweep trace.
//! * `perfbench/refs/sampled.tsv`: exact sampled estimates.
//!
//! The last two were generated once with `--emit-refs` and committed;
//! runs only ever read them.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Where the reference files live. The self-test points the first two
/// at drifted copies.
#[derive(Debug, Clone)]
pub struct RefPaths {
    /// The live-grid golden counters.
    pub goldens: PathBuf,
    /// The `modern_zoo` report text.
    pub modern_zoo: PathBuf,
    /// Directory holding `zoo_counts.tsv` and `sampled.tsv`.
    pub dir: PathBuf,
}

impl Default for RefPaths {
    fn default() -> Self {
        Self {
            goldens: "tests/fixtures/perf_goldens.txt".into(),
            modern_zoo: "results/modern_zoo.txt".into(),
            dir: "perfbench/refs".into(),
        }
    }
}

/// One committed sampled estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledRef {
    /// Estimated rate, percent.
    pub rate_pct: f64,
    /// Error bar, percentage points.
    pub err_pp: f64,
    /// Events the estimate simulated.
    pub simulated_events: u64,
}

/// All references, parsed.
#[derive(Debug, Default)]
pub struct Refs {
    /// Golden line per `tag\tcpu` prefix.
    pub goldens: HashMap<String, String>,
    /// Printed rate per `(table title prefix, row label, predictor)`.
    pub printed: HashMap<(String, String, String), String>,
    /// `(executed, mispredicted)` per `(trace label, predictor)`.
    pub counts: HashMap<(String, String), (u64, u64)>,
    /// Estimate per `(trace label, interval, k, predictor)`.
    pub sampled: HashMap<(String, u64, usize, String), SampledRef>,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn num<T: std::str::FromStr>(s: &str, path: &Path) -> Result<T, String> {
    s.parse().map_err(|_| format!("{}: bad number {s:?}", path.display()))
}

/// The `modern_zoo` rows the sweep checks: plain and dynamic replication.
const PRINTED_ROWS: [&str; 2] = ["plain", "dynamic repl"];

/// Parses every `... misprediction rate (%) ...` table of the
/// `modern_zoo` report, keeping the [`PRINTED_ROWS`].
fn parse_printed(text: &str) -> HashMap<(String, String, String), String> {
    let mut out = HashMap::new();
    let mut lines = text.lines();
    while let Some(title) = lines.next() {
        let Some((prefix, _)) = title.split_once(": misprediction rate (%)") else { continue };
        let Some(header) = lines.next() else { break };
        let cols: Vec<&str> = header.split_whitespace().collect();
        for row in lines.by_ref().take_while(|l| !l.trim().is_empty()) {
            let tokens: Vec<&str> = row.split_whitespace().collect();
            if tokens.len() <= cols.len() {
                continue;
            }
            let (label, values) = tokens.split_at(tokens.len() - cols.len());
            let label = label.join(" ");
            if PRINTED_ROWS.contains(&label.as_str()) {
                for (col, value) in cols.iter().zip(values) {
                    out.insert(
                        (prefix.to_owned(), label.clone(), (*col).to_owned()),
                        (*value).to_owned(),
                    );
                }
            }
        }
    }
    out
}

impl Refs {
    /// Reads and parses every reference file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first file that is missing or
    /// malformed.
    pub fn load(paths: &RefPaths) -> Result<Self, String> {
        let mut refs = Refs::default();
        for line in read(&paths.goldens)?.lines().filter(|l| !l.is_empty()) {
            let mut fields = line.splitn(3, '\t');
            let (Some(tag), Some(cpu)) = (fields.next(), fields.next()) else {
                return Err(format!("{}: malformed line {line:?}", paths.goldens.display()));
            };
            refs.goldens.insert(format!("{tag}\t{cpu}"), line.to_owned());
        }
        refs.printed = parse_printed(&read(&paths.modern_zoo)?);
        if refs.printed.is_empty() {
            return Err(format!("{}: no rate tables found", paths.modern_zoo.display()));
        }
        let counts_path = paths.dir.join("zoo_counts.tsv");
        for line in read(&counts_path)?.lines().skip(1) {
            let f: Vec<&str> = line.split('\t').collect();
            let [label, pred, executed, mispredicted] = f[..] else {
                return Err(format!("{}: malformed line {line:?}", counts_path.display()));
            };
            refs.counts.insert(
                (label.to_owned(), pred.to_owned()),
                (num(executed, &counts_path)?, num(mispredicted, &counts_path)?),
            );
        }
        let sampled_path = paths.dir.join("sampled.tsv");
        for line in read(&sampled_path)?.lines().skip(1) {
            let f: Vec<&str> = line.split('\t').collect();
            let [label, ival, k, pred, rate, err, sim] = f[..] else {
                return Err(format!("{}: malformed line {line:?}", sampled_path.display()));
            };
            refs.sampled.insert(
                (
                    label.to_owned(),
                    num(ival, &sampled_path)?,
                    num(k, &sampled_path)?,
                    pred.to_owned(),
                ),
                SampledRef {
                    rate_pct: num(rate, &sampled_path)?,
                    err_pp: num(err, &sampled_path)?,
                    simulated_events: num(sim, &sampled_path)?,
                },
            );
        }
        Ok(refs)
    }
}
