//! A small statistical micro-benchmark runner for `harness = false`
//! bench targets.
//!
//! Replaces criterion for this workspace's needs: each benchmark is
//! warmed up, timed over N samples (each a batch of iterations sized to
//! a target duration), and summarised by the median and the median
//! absolute deviation (MAD) of the per-iteration time — both robust to
//! scheduler noise. Output is a human-readable line per benchmark plus a
//! JSON document for tooling.
//!
//! Environment and CLI:
//!
//! * `IVM_BENCH_SAMPLES` — samples per benchmark (default 30); when set
//!   it also overrides per-group [`Group::sample_size`] calls, so one
//!   variable shrinks a whole suite for smoke runs.
//! * `IVM_BENCH_WARMUP_MS` — warmup duration per benchmark (default 200).
//! * `IVM_BENCH_SAMPLE_MS` — target duration of one sample (default 10).
//! * The first free CLI argument is a substring filter on
//!   `group/benchmark` ids (`cargo bench -p ivm-bench -- translate`).
//!   Flags, such as the `--bench` cargo passes, are ignored.
//!
//! [`Bencher::finish`] writes the JSON summary to `BENCH_<suite>.json` at
//! the workspace root, so the perf trajectory of a branch is
//! machine-readable without re-running anything. The document embeds a
//! small manifest (workspace version, smoke flag, sample settings,
//! filter) so two files can be diffed meaningfully.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark's summary statistics.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `group/id` identifier.
    pub id: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Median absolute deviation of the per-iteration time.
    pub mad_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
}

/// Collects and runs benchmarks for one bench target.
pub struct Bencher {
    suite: String,
    samples: usize,
    samples_from_env: bool,
    warmup: Duration,
    sample_target: Duration,
    filter: Option<String>,
    results: Vec<Summary>,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

impl Bencher {
    /// Creates a runner named `suite`, configured from the environment
    /// and the process arguments (see the [module docs](self)).
    #[must_use]
    pub fn new(suite: &str) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Self {
            suite: suite.to_owned(),
            samples: env_u64("IVM_BENCH_SAMPLES", 30).max(1) as usize,
            // An unparseable value must not override per-group sizes.
            samples_from_env: std::env::var("IVM_BENCH_SAMPLES")
                .is_ok_and(|v| v.trim().parse::<u64>().is_ok()),
            warmup: Duration::from_millis(env_u64("IVM_BENCH_WARMUP_MS", 200)),
            sample_target: Duration::from_millis(env_u64("IVM_BENCH_SAMPLE_MS", 10).max(1)),
            filter,
            results: Vec::new(),
        }
    }

    /// Starts a named group of benchmarks.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group { bencher: self, name: name.to_owned(), samples: None }
    }

    /// Serialises the summary document: suite name, a manifest of the
    /// settings in effect, and one median/MAD entry per benchmark.
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"suite\":\"{}\",", escape(&self.suite)));
        out.push_str(&format!(
            "\"manifest\":{{\"version\":\"{}\",\"smoke\":{},\"samples\":{},\"warmup_ms\":{},\"sample_ms\":{},\"filter\":{}}},",
            escape(env!("CARGO_PKG_VERSION")),
            crate::smoke(),
            self.samples,
            self.warmup.as_millis(),
            self.sample_target.as_millis(),
            match &self.filter {
                Some(f) => format!("\"{}\"", escape(f)),
                None => "null".to_owned(),
            }
        ));
        out.push_str("\"results\":[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":\"{}\",\"median_ns\":{:.1},\"mad_ns\":{:.1},\"samples\":{},\"iters\":{}}}",
                escape(&r.id),
                r.median_ns,
                r.mad_ns,
                r.samples,
                r.iters
            ));
        }
        out.push_str("]}");
        out
    }

    /// Writes `BENCH_<suite>.json` at the workspace root (unless nothing
    /// ran, e.g. under a filter that matched no benchmark). Called
    /// automatically by nothing — bench targets call it at the end of
    /// `main`.
    pub fn finish(self) {
        if self.results.is_empty() {
            return;
        }
        let path = workspace_root().join(format!("BENCH_{}.json", self.suite));
        if let Err(e) = std::fs::write(&path, format!("{}\n", self.to_json())) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    fn run<R>(&mut self, id: String, samples: usize, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        // Warmup: run until the warmup budget elapses, measuring a rough
        // per-iteration time to size the sample batches.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < self.warmup || warmup_iters == 0 {
            black_box(f());
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64;
        let iters = ((self.sample_target.as_nanos() as f64 / per_iter.max(1.0)) as u64).max(1);

        let mut times: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        let med = median(&mut times);
        let mut deviations: Vec<f64> = times.iter().map(|t| (t - med).abs()).collect();
        let mad = median(&mut deviations);

        println!(
            "{:<40} median {:>12}  MAD {:>10}  ({} samples x {} iters)",
            id,
            format_ns(med),
            format_ns(mad),
            samples,
            iters
        );
        self.results.push(Summary { id, median_ns: med, mad_ns: mad, samples, iters });
    }
}

/// A named group of benchmarks sharing configuration.
pub struct Group<'a> {
    bencher: &'a mut Bencher,
    name: String,
    samples: Option<usize>,
}

impl Group<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = Some(samples.max(1));
        self
    }

    /// Times `f`, labelled `group-name/id`.
    pub fn bench<R>(&mut self, id: impl Display, f: impl FnMut() -> R) {
        let samples = if self.bencher.samples_from_env {
            self.bencher.samples
        } else {
            self.samples.unwrap_or(self.bencher.samples)
        };
        self.bencher.run(format!("{}/{id}", self.name), samples, f);
    }
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark times are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Walks up from `CARGO_MANIFEST_DIR` (or the current directory) to the
/// manifest containing `[workspace]`. Falls back to the start directory —
/// the harness stays dependency-free, so this is deliberately duplicated
/// from `ivm-obs` rather than imported (that would create a cycle through
/// the crates the harness tests).
fn workspace_root() -> std::path::PathBuf {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(std::path::PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let mut dir = start.clone();
    loop {
        if let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start;
        }
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert!((median(&mut [3.0, 1.0, 2.0]) - 2.0).abs() < f64::EPSILON);
        assert!((median(&mut [4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < f64::EPSILON);
    }

    #[test]
    fn format_ns_picks_units() {
        assert_eq!(format_ns(12.3), "12.3 ns");
        assert_eq!(format_ns(12_300.0), "12.300 us");
        assert_eq!(format_ns(12_300_000.0), "12.300 ms");
        assert_eq!(format_ns(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn summaries_accumulate() {
        // Construct directly (not via new()) so the test ignores the
        // process's own CLI arguments.
        let mut b = Bencher {
            suite: "self-test".into(),
            samples: 3,
            samples_from_env: false,
            warmup: Duration::from_millis(1),
            sample_target: Duration::from_micros(200),
            filter: None,
            results: Vec::new(),
        };
        let mut g = b.group("g");
        g.sample_size(2).bench("id", || std::hint::black_box(1 + 1));
        assert_eq!(b.results.len(), 1);
        let r = &b.results[0];
        assert_eq!(r.id, "g/id");
        assert_eq!(r.samples, 2);
        assert!(r.median_ns >= 0.0 && r.iters >= 1);
    }

    #[test]
    fn json_document_embeds_manifest_and_entries() {
        let mut b = Bencher {
            suite: "self-test".into(),
            samples: 3,
            samples_from_env: false,
            warmup: Duration::from_millis(1),
            sample_target: Duration::from_micros(200),
            filter: Some("g".into()),
            results: Vec::new(),
        };
        b.group("g").bench("id", || std::hint::black_box(2 * 2));
        let doc = b.to_json();
        assert!(doc.starts_with("{\"suite\":\"self-test\","), "{doc}");
        assert!(doc.contains("\"manifest\":{\"version\":\""), "{doc}");
        assert!(doc.contains("\"filter\":\"g\""), "{doc}");
        assert!(doc.contains("\"median_ns\":"), "{doc}");
        assert!(doc.ends_with("]}"), "{doc}");
    }

    #[test]
    fn workspace_root_has_a_workspace_manifest() {
        let root = workspace_root();
        let text = std::fs::read_to_string(root.join("Cargo.toml")).expect("manifest readable");
        assert!(text.contains("[workspace]"));
    }
}
