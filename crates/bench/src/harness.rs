//! One timing harness for the tool's wall-clock benchmarks, and the one
//! schema every `BENCH_*.json` perf artifact is written in.
//!
//! [`measure`] runs every variant of a workload once per rep, rotating
//! which variant goes first, so slow drift of the host (frequency
//! scaling, a neighbour's load) hits every variant alike. Each run
//! returns the wall time of its measured region plus the workload's
//! outcome (a retired count, a cycle count); every run of every variant
//! must return the same outcome, otherwise the measurement is an error,
//! not a number. A ratio between two variants is the median of per-rep
//! *paired* ratios, so it only ever compares runs made moments apart in
//! the same process.
//!
//! Host time is nondeterministic by nature: nothing here feeds a
//! deterministic export.

use std::fmt::{Debug, Write as _};
use std::time::Instant;

use audo_obs::chrome::json_escape;

/// Wall time of `f` in nanoseconds (at least 1), with its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (ns.max(1), out)
}

/// The order in which rep `rep` runs `n` variants: a rotation that leads
/// with variant `rep % n`.
fn rotation(n: usize, rep: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |k| (rep + k) % n)
}

/// Runs each of the `n = names.len()` variants `reps` times,
/// interleaved: rep `r` runs them in rotation, led by variant `r % n`.
/// `run(v)` executes variant `v` once and returns `(ns, outcome)`.
/// Returns the wall times, `ns[variant][rep]`, and the outcome every run
/// agreed on.
///
/// # Errors
///
/// Returns an error naming the variant and rep whose outcome differs
/// from the first run's.
pub fn measure<O: PartialEq + Debug>(
    reps: usize,
    names: &[&str],
    mut run: impl FnMut(usize) -> (u64, O),
) -> Result<(Vec<Vec<u64>>, O), String> {
    let mut ns = vec![Vec::with_capacity(reps); names.len()];
    let mut first: Option<(usize, O)> = None;
    for rep in 0..reps {
        for v in rotation(names.len(), rep) {
            let (t, outcome) = run(v);
            match &first {
                None => first = Some((v, outcome)),
                Some((v0, expected)) if *expected != outcome => {
                    return Err(format!(
                        "variant {} rep {rep} returned {outcome:?}, but variant {} returned \
                         {expected:?}",
                        names[v], names[*v0]
                    ));
                }
                Some(_) => {}
            }
            ns[v].push(t);
        }
    }
    let (_, outcome) = first.ok_or("nothing was measured")?;
    Ok((ns, outcome))
}

/// Median, minimum and median absolute deviation of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Median (mean of the two middle values for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Median of the absolute deviations from the median.
    pub mad: f64,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

impl Stats {
    /// Statistics of `xs` (all `NaN` when empty).
    fn of(xs: impl IntoIterator<Item = f64>) -> Stats {
        let mut sorted: Vec<f64> = xs.into_iter().collect();
        let med = median(&mut sorted);
        let mut dev: Vec<f64> = sorted.iter().map(|x| (x - med).abs()).collect();
        Stats {
            median: med,
            min: sorted.first().copied().unwrap_or(f64::NAN),
            mad: median(&mut dev),
        }
    }

    /// Statistics of nanosecond samples.
    fn of_ns(ns: &[u64]) -> Stats {
        Stats::of(ns.iter().map(|&t| t as f64))
    }

    /// Statistics of the per-rep paired ratios `of[r] / over[r]`.
    fn paired(of: &[u64], over: &[u64]) -> Stats {
        Stats::of(of.iter().zip(over).map(|(&a, &b)| a as f64 / b as f64))
    }
}

/// One timed variant of one workload.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// Variant name.
    pub variant: String,
    /// Units of work one run performs.
    pub work: u64,
    /// What `work` counts (`instr`, `cycle`, `session`, ...).
    pub unit: &'static str,
    /// Wall-time statistics over the reps, in nanoseconds.
    pub ns: Stats,
}

impl Row {
    /// Units of work per second at the median wall time.
    #[must_use]
    pub fn per_sec(&self) -> f64 {
        self.work as f64 / (self.ns.median / 1e9)
    }
}

/// A paired ratio between two variants of one workload.
#[derive(Debug, Clone)]
pub struct Ratio {
    /// Workload name.
    pub name: String,
    /// Numerator variant.
    pub of: String,
    /// Denominator variant.
    pub over: String,
    /// Statistics of the per-rep ratios.
    pub value: Stats,
}

/// A `BENCH_*.json` document.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// Benchmark name.
    pub bench: &'static str,
    /// Worker threads the measured runs used.
    pub jobs: usize,
    /// Reps per variant.
    pub reps: usize,
    /// Timed variants.
    pub rows: Vec<Row>,
    /// Paired ratios.
    pub ratios: Vec<Ratio>,
}

impl BenchDoc {
    /// An empty document.
    #[must_use]
    pub fn new(bench: &'static str, jobs: usize, reps: usize) -> BenchDoc {
        BenchDoc {
            bench,
            jobs,
            reps,
            rows: Vec::new(),
            ratios: Vec::new(),
        }
    }

    /// Adds a row timed by the nanosecond samples `ns`.
    pub fn row(&mut self, name: &str, variant: &str, work: u64, unit: &'static str, ns: &[u64]) {
        self.rows.push(Row {
            name: name.to_string(),
            variant: variant.to_string(),
            work,
            unit,
            ns: Stats::of_ns(ns),
        });
    }

    /// Adds the paired ratio of variant `of` over variant `over` and
    /// returns its statistics.
    pub fn ratio(&mut self, name: &str, of: (&str, &[u64]), over: (&str, &[u64])) -> Stats {
        let value = Stats::paired(of.1, over.1);
        self.ratios.push(Ratio {
            name: name.to_string(),
            of: of.0.to_string(),
            over: over.0.to_string(),
            value,
        });
        value
    }

    /// Renders the document, stamped with revision `rev` and `nproc`.
    #[must_use]
    pub fn render(&self, rev: &str, nproc: usize) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": \"{}\",", json_escape(self.bench));
        let _ = writeln!(out, "  \"rev\": \"{}\",", json_escape(rev));
        let _ = writeln!(out, "  \"nproc\": {nproc},");
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"name\": \"{}\", \"variant\": \"{}\", \"work\": {}, \"unit\": \"{}\", \
                     \"median_ns\": {:.0}, \"min_ns\": {:.0}, \"mad_ns\": {:.0}, \"per_sec\": {:.1}}}",
                    json_escape(&r.name),
                    json_escape(&r.variant),
                    r.work,
                    json_escape(r.unit),
                    r.ns.median,
                    r.ns.min,
                    r.ns.mad,
                    r.per_sec(),
                )
            })
            .collect();
        let ratios: Vec<String> = self
            .ratios
            .iter()
            .map(|r| {
                format!(
                    "    {{\"name\": \"{}\", \"of\": \"{}\", \"over\": \"{}\", \"median\": {:.4}, \
                     \"mad\": {:.4}}}",
                    json_escape(&r.name),
                    json_escape(&r.of),
                    json_escape(&r.over),
                    r.value.median,
                    r.value.mad,
                )
            })
            .collect();
        for (key, items, last) in [("rows", rows, false), ("ratios", ratios, true)] {
            let close = if last { "" } else { "," };
            if items.is_empty() {
                let _ = writeln!(out, "  \"{key}\": []{close}");
            } else {
                let _ = writeln!(out, "  \"{key}\": [\n{}\n  ]{close}", items.join(",\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Writes the document to `path`, stamped with the current git
    /// revision and the host's available parallelism.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn write(&self, path: &str) -> Result<(), String> {
        let body = self.render(&git_rev(), crate::default_jobs());
        std::fs::write(path, body).map_err(|e| format!("could not write {path}: {e}"))
    }
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_and_mad_on_fixed_samples() {
        let odd = Stats::of([3.0, 1.0, 2.0, 10.0, 2.0]);
        assert_eq!(odd.median, 2.0);
        assert_eq!(odd.min, 1.0);
        // Deviations 1, 1, 0, 8, 0 -> median 1.
        assert_eq!(odd.mad, 1.0);

        let even = Stats::of([4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median, 2.5);
        assert_eq!(even.min, 1.0);
        // Deviations 1.5, 1.5, 0.5, 0.5 -> median 1.0.
        assert_eq!(even.mad, 1.0);

        assert_eq!(
            Stats::of_ns(&[7]),
            Stats {
                median: 7.0,
                min: 7.0,
                mad: 0.0
            }
        );
    }

    #[test]
    fn rotation_leads_with_each_variant_equally_often() {
        for n in 1..=4 {
            let reps = 3 * n;
            let mut leads = vec![0; n];
            for rep in 0..reps {
                let order: Vec<usize> = rotation(n, rep).collect();
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "a permutation");
                leads[order[0]] += 1;
            }
            assert_eq!(leads, vec![3; n]);
        }
    }

    #[test]
    fn measure_interleaves_variants_in_rotation_order() {
        let mut calls = Vec::new();
        let (ns, outcome) = measure(3, &["a", "b", "c"], |v| {
            calls.push(v);
            (10 * (v as u64 + 1), 42)
        })
        .unwrap();
        assert_eq!(calls, [0, 1, 2, 1, 2, 0, 2, 0, 1]);
        assert_eq!(ns, [vec![10; 3], vec![20; 3], vec![30; 3]]);
        assert_eq!(outcome, 42);
    }

    #[test]
    fn ratio_is_the_median_of_paired_ratios() {
        // Per-rep ratios 2, 4, 1 -> median 2; the ratio of the medians
        // (400 / 100) would say 4.
        let r = Stats::paired(&[100, 400, 900], &[50, 100, 900]);
        assert_eq!(r.median, 2.0);
        assert_eq!(r.mad, 1.0);
        let mut doc = BenchDoc::new("t", 1, 3);
        let got = doc.ratio("w", ("x", &[100, 400, 900]), ("y", &[50, 100, 900]));
        assert_eq!(got, r);
        assert_eq!(
            (doc.ratios[0].of.as_str(), doc.ratios[0].over.as_str()),
            ("x", "y")
        );
    }

    #[test]
    fn a_retired_count_mismatch_is_an_error_not_a_number() {
        let err = measure(4, &["slow", "fast"], |v| (100, 1_000 + v as u64)).unwrap_err();
        assert!(err.contains("variant fast"), "{err}");
        assert!(err.contains("1001") && err.contains("1000"), "{err}");
        // A mismatch between reps of one variant is caught too.
        let mut rep = 0u64;
        let err = measure(3, &["only"], |_| {
            rep += 1;
            (1, rep.min(2))
        })
        .unwrap_err();
        assert!(err.contains("rep 1"), "{err}");
    }

    #[test]
    fn writer_emits_every_schema_key_and_escapes_names() {
        let mut doc = BenchDoc::new("demo", 2, 3);
        doc.row("w\"1", "fast", 1_000, "instr", &[2_000, 1_000, 3_000]);
        doc.row("w\"1", "slow", 1_000, "instr", &[4_000, 4_000, 4_000]);
        doc.ratio(
            "w\"1",
            ("slow", &[4_000; 3]),
            ("fast", &[2_000, 1_000, 3_000]),
        );
        let json = doc.render("abc1234", 8);
        for key in ["bench", "rev", "nproc", "jobs", "reps", "rows", "ratios"] {
            assert!(
                json.contains(&format!("\n  \"{key}\": ")),
                "{key} missing:\n{json}"
            );
        }
        for key in [
            "name",
            "variant",
            "work",
            "unit",
            "median_ns",
            "min_ns",
            "mad_ns",
            "per_sec",
            "of",
            "over",
            "median",
            "mad",
        ] {
            assert!(
                json.contains(&format!("\"{key}\": ")),
                "{key} missing:\n{json}"
            );
        }
        assert!(json.contains("\"name\": \"w\\\"1\""));
        assert!(json.contains("\"rev\": \"abc1234\""));
        assert!(json.contains(
            "\"median_ns\": 2000, \"min_ns\": 1000, \"mad_ns\": 1000, \"per_sec\": 500000000.0"
        ));
        assert!(json.contains("\"of\": \"slow\", \"over\": \"fast\", \"median\": 2.0000"));

        let empty = BenchDoc::new("e", 1, 1).render("unknown", 1);
        assert!(empty.contains("\"rows\": [],\n  \"ratios\": []\n}"));
    }
}
