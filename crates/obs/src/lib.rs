//! Deterministic instrumentation for the audo simulation stack.
//!
//! The paper's central idea is *non-intrusive, always-on visibility* into a
//! running system (MCDS rate probes, cycle-accurate timestamps). This crate
//! gives the reproduction the same property for itself: a registry of
//! counters, gauges and histograms plus cycle-timestamped spans, with three
//! exporters that target standard tooling:
//!
//! * [`chrome::trace_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`,
//! * [`metrics_text::render`] — a Prometheus-style plain-text metrics
//!   snapshot,
//! * [`flame::FoldedStacks`] — folded-stack lines consumable by standard
//!   flamegraph tooling (`flamegraph.pl`, speedscope, inferno).
//!
//! # The determinism rule
//!
//! **Every timestamp is a simulated cycle — never wall clock.** Two
//! identical seeded runs therefore produce byte-identical exports, which
//! makes the exports diffable artifacts (goldens, CI gates, regression
//! bisection) instead of one-off visualisations. Anything nondeterministic
//! (wall-clock durations, host thread ids) is deliberately unrepresentable
//! in a [`Registry`].
//!
//! # Zero cost when disabled
//!
//! Following Metz & Lencevicius (*Efficient Instrumentation for
//! Performance Profiling*), instrumentation must cost (almost) nothing when
//! off. Two mechanisms deliver that:
//!
//! * hot simulation loops never talk to a registry: components keep their
//!   existing plain counters (cache hit/miss fields, DAP stats structs,
//!   trace-controller byte accounting) and a registry *samples* them once
//!   at snapshot points, so the steady-state overhead of the export layer
//!   is zero by construction;
//! * the few opt-in recorders (the ISS observation record, the pipeline's
//!   block profile) sit behind an `Option` that defaults to `None` — one
//!   untaken branch per event (per dispatched block on the ISS) when
//!   disabled;
//! * a [`Registry::disabled`] registry turns every recording call into an
//!   early return, so instrumented call sites need no `if` of their own.

#![warn(missing_docs)]

use std::collections::BTreeMap;

pub mod chrome;
pub mod flame;
pub mod metrics_text;
pub mod profile;

pub use flame::FoldedStacks;

/// Number of power-of-two histogram buckets (values `0..=u64::MAX`).
const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket (powers of two) histogram of `u64` samples.
///
/// Bucket `k` counts samples whose value `v` satisfies
/// `2^(k-1) < v <= 2^k - …`; concretely a sample lands in bucket
/// `64 - (v.leading_zeros())` with `0` in bucket 0. Fixed geometry keeps
/// recording allocation-free and the export deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Merges another histogram's samples into this one.
    ///
    /// Because the bucket geometry is fixed, merging shard-local
    /// histograms is exact: the merged percentiles are identical to the
    /// percentiles of one histogram that had seen every sample — which is
    /// what lets a fleet run fold thousands of per-session histograms
    /// into one aggregate without retaining any session.
    ///
    /// ```
    /// use audo_obs::Histogram;
    ///
    /// // Two shards record disjoint halves of the same latency population.
    /// let mut shard_a = Histogram::default();
    /// let mut shard_b = Histogram::default();
    /// for v in [3, 5, 7, 9] {
    ///     shard_a.record(v);
    /// }
    /// for v in [200, 300, 400, 500] {
    ///     shard_b.record(v);
    /// }
    ///
    /// // Fold shard B into shard A (the fleet-aggregation direction).
    /// shard_a.merge(&shard_b);
    /// assert_eq!(shard_a.count(), 8);
    /// assert_eq!(shard_a.sum(), 3 + 5 + 7 + 9 + 200 + 300 + 400 + 500);
    ///
    /// // The merged fold answers population percentiles: half the samples
    /// // are small (p50 resolves to the <=15 bucket), the tail is shard
    /// // B's (p99 resolves to the <=511 bucket).
    /// assert_eq!(shard_a.percentile(50.0), 15);
    /// assert_eq!(shard_a.percentile(99.0), 511);
    ///
    /// // Identical to a single histogram that saw all eight samples.
    /// let mut whole = Histogram::default();
    /// for v in [3, 5, 7, 9, 200, 300, 400, 500] {
    ///     whole.record(v);
    /// }
    /// assert_eq!(shard_a, whole);
    /// ```
    pub fn merge(&mut self, other: &Histogram) {
        for (i, n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper bound of the bucket holding the `p`-th percentile sample,
    /// i.e. an upper bound on the true quantile with power-of-two
    /// resolution.
    ///
    /// The contract (pinned by unit tests — fleet aggregation folds
    /// shard histograms with [`Histogram::merge`] and then reads
    /// percentiles, so these edges must not drift):
    ///
    /// * **Empty histogram**: returns `0` for every `p`. An empty
    ///   aggregate renders as all-zero percentiles, never a sentinel.
    /// * **Rank**: the result is the bound of the bucket containing the
    ///   `ceil(p/100 · count)`-th smallest sample, clamped to
    ///   `1..=count` — so `p = 0` (and any `p < 0`) answers the bucket
    ///   of the *smallest* sample and `p = 100` (and any `p > 100`) the
    ///   bucket of the *largest*.
    /// * **Single-bucket histogram**: every `p` returns that bucket's
    ///   bound (there is only one bucket any rank can land in).
    /// * **Non-finite `p`** (`NaN`, `±inf` after the clamp): treated as
    ///   `p = 0`, i.e. the smallest sample's bucket — never a panic.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let frac = if p.is_finite() {
            p.clamp(0.0, 100.0) / 100.0
        } else if p == f64::INFINITY {
            1.0
        } else {
            0.0
        };
        // reason: count is a sample tally (far below 2^53) and the product
        // is clamped non-negative, so the f64 rank math is exact enough.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((frac * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (bound, n) in self.nonzero_buckets() {
            seen += n;
            if seen >= rank {
                return bound;
            }
        }
        // Unreachable: rank <= count and the buckets sum to count; kept
        // as a total-function fallback rather than a panic.
        u64::MAX
    }

    /// Iterates the non-empty buckets as `(inclusive upper bound, count)`.
    /// The final bucket's bound is `u64::MAX`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| {
                let bound = match k {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << k) - 1,
                };
                (bound, n)
            })
    }
}

/// One closed span on a track: `[start, end]` in simulated cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span label (shows as the slice name in Perfetto).
    pub name: String,
    /// Track (exported as the Chrome-trace `tid`). Nesting within a track
    /// is implied by timestamp containment, exactly as Perfetto renders it.
    pub track: u32,
    /// First cycle covered.
    pub start: u64,
    /// One past the last cycle covered (`end >= start`).
    pub end: u64,
    /// Extra key/value annotations (exported as Chrome-trace `args`).
    pub args: Vec<(String, String)>,
}

/// A deterministic instrument registry: named counters, gauges and
/// histograms plus a list of cycle-stamped [`Span`]s.
///
/// Names are stored in [`BTreeMap`]s so every export iterates in one
/// canonical order; spans keep recording order (which is itself
/// deterministic for a deterministic simulation).
///
/// ```
/// use audo_obs::Registry;
///
/// let mut reg = Registry::new();
/// reg.add("decode_cache.hits", 3);
/// reg.gauge("emem.fill", 0.25);
/// reg.span("session", 0, 1_000);
/// assert_eq!(reg.counter("decode_cache.hits"), 3);
///
/// let off = Registry::disabled();
/// assert!(!off.is_enabled());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    enabled: bool,
    track: u32,
    stamp: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Registry {
    /// Creates an enabled registry (default track 1).
    #[must_use]
    pub fn new() -> Registry {
        Registry {
            enabled: true,
            track: 1,
            ..Registry::default()
        }
    }

    /// Creates a disabled registry: every recording call is an early
    /// return and every export is empty.
    #[must_use]
    pub fn disabled() -> Registry {
        Registry::default()
    }

    /// Whether this registry records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Selects the track subsequent spans are recorded on.
    pub fn set_track(&mut self, track: u32) {
        self.track = track;
    }

    /// Advances the registry's "latest simulated cycle" stamp (used as the
    /// sample timestamp of counters/gauges in the Chrome export). The stamp
    /// is monotonic: earlier cycles are ignored.
    pub fn stamp(&mut self, cycle: u64) {
        if self.enabled {
            self.stamp = self.stamp.max(cycle);
        }
    }

    /// The latest stamped cycle.
    #[must_use]
    pub fn stamped(&self) -> u64 {
        self.stamp
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        if !self.enabled {
            return;
        }
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Sets the named counter to an absolutely sampled `value` (for
    /// components that maintain their own lifetime counters).
    pub fn sample(&mut self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        self.counters.insert(name.to_string(), value);
    }

    /// Sets the named gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        self.gauges.insert(name.to_string(), value);
    }

    /// Records one histogram sample.
    pub fn observe(&mut self, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Merges a pre-recorded histogram into the named histogram (used by
    /// components that keep their own [`Histogram`] during a run and
    /// publish it once at export time).
    pub fn observe_histogram(&mut self, name: &str, h: &Histogram) {
        if !self.enabled || h.count() == 0 {
            return;
        }
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Opens a nested span at `cycle` on the current track.
    pub fn begin_span(&mut self, name: &str, cycle: u64) {
        if !self.enabled {
            return;
        }
        self.stamp(cycle);
        self.spans.push(Span {
            name: name.to_string(),
            track: self.track,
            start: cycle,
            end: cycle,
            args: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span at `cycle`. Without an open span
    /// this is a no-op (never panics in instrumentation paths).
    pub fn end_span(&mut self, cycle: u64) {
        if !self.enabled {
            return;
        }
        self.stamp(cycle);
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end = self.spans[idx].start.max(cycle);
        }
    }

    /// Records an already-closed span `[start, end]` on the current track.
    pub fn span(&mut self, name: &str, start: u64, end: u64) {
        if !self.enabled {
            return;
        }
        self.stamp(end);
        self.spans.push(Span {
            name: name.to_string(),
            track: self.track,
            start,
            end: end.max(start),
            args: Vec::new(),
        });
    }

    /// Like [`Registry::span`] with key/value annotations.
    pub fn span_with_args(
        &mut self,
        name: &str,
        start: u64,
        end: u64,
        args: Vec<(String, String)>,
    ) {
        if !self.enabled {
            return;
        }
        self.stamp(end);
        self.spans.push(Span {
            name: name.to_string(),
            track: self.track,
            start,
            end: end.max(start),
            args,
        });
    }

    /// Reads a counter (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters in canonical (sorted) order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges in canonical (sorted) order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in canonical (sorted) order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All recorded spans, in recording order. Spans still open are
    /// reported with `end == start`… they are closed by [`Registry::end_span`].
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Merges `other` into `self`: counter/gauge/histogram names gain
    /// `prefix`, spans move to `track` (their cycle timestamps are kept —
    /// different sources live on different tracks, not a shared clock).
    ///
    /// A disabled `self` ignores the merge; a disabled/empty `other`
    /// contributes nothing.
    pub fn merge_from(&mut self, prefix: &str, other: &Registry, track: u32) {
        if !self.enabled {
            return;
        }
        for (k, v) in &other.counters {
            *self.counters.entry(format!("{prefix}{k}")).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(format!("{prefix}{k}"), v);
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(format!("{prefix}{k}"))
                .or_default()
                .merge(h);
        }
        for s in &other.spans {
            self.spans.push(Span { track, ..s.clone() });
        }
        self.stamp = self.stamp.max(other.stamp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut reg = Registry::disabled();
        reg.add("c", 5);
        reg.gauge("g", 1.5);
        reg.observe("h", 7);
        reg.begin_span("s", 0);
        reg.end_span(10);
        reg.span("t", 0, 5);
        reg.stamp(99);
        assert!(reg.is_empty());
        assert_eq!(reg.stamped(), 0);
    }

    #[test]
    fn counters_accumulate_and_sample_overwrites() {
        let mut reg = Registry::new();
        reg.add("c", 2);
        reg.add("c", 3);
        assert_eq!(reg.counter("c"), 5);
        reg.sample("c", 1);
        assert_eq!(reg.counter("c"), 1);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn span_nesting_closes_innermost_first() {
        let mut reg = Registry::new();
        reg.begin_span("outer", 0);
        reg.begin_span("inner", 10);
        reg.end_span(20);
        reg.end_span(100);
        let spans = reg.spans();
        assert_eq!(spans[0].name, "outer");
        assert_eq!((spans[0].start, spans[0].end), (0, 100));
        assert_eq!((spans[1].start, spans[1].end), (10, 20));
        // Unbalanced end is a no-op.
        reg.end_span(999);
        assert_eq!(reg.spans().len(), 2);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        // 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 1024 -> bucket 11.
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].1, 1);
        assert_eq!(buckets[1].1, 1);
        assert_eq!(buckets[2].1, 2);
        assert_eq!(buckets[3].1, 1);
    }

    #[test]
    fn merge_prefixes_names_and_retracks_spans() {
        let mut a = Registry::new();
        a.add("hits", 1);
        let mut b = Registry::new();
        b.add("hits", 2);
        b.span("run", 0, 50);
        b.observe("lat", 8);
        a.merge_from("e2_", &b, 7);
        assert_eq!(a.counter("hits"), 1);
        assert_eq!(a.counter("e2_hits"), 2);
        assert_eq!(a.spans()[0].track, 7);
        assert_eq!(a.histograms().next().unwrap().0, "e2_lat");
    }

    #[test]
    fn percentiles_walk_cumulative_buckets() {
        let mut h = Histogram::default();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        // 9 of 10 samples are 1: p50 and p90 resolve to bucket bound 1,
        // p99/p100 to the bucket holding 1000 (bound 1023).
        assert_eq!(h.percentile(50.0), 1);
        assert_eq!(h.percentile(90.0), 1);
        assert_eq!(h.percentile(99.0), 1023);
        assert_eq!(h.percentile(100.0), 1023);
        assert_eq!(Histogram::default().percentile(50.0), 0);
    }

    #[test]
    fn percentile_contract_empty_and_single_bucket() {
        // Empty: every p answers 0, including the weird ones.
        let empty = Histogram::default();
        for p in [-10.0, 0.0, 50.0, 100.0, 250.0, f64::NAN, f64::INFINITY] {
            assert_eq!(empty.percentile(p), 0, "empty at p={p}");
        }
        // Single sample: every p answers its bucket bound.
        let mut one = Histogram::default();
        one.record(100); // bucket bound 127
        for p in [-1.0, 0.0, 1.0, 50.0, 99.9, 100.0, 101.0] {
            assert_eq!(one.percentile(p), 127, "single sample at p={p}");
        }
        // Single bucket, many samples: still one possible answer.
        let mut packed = Histogram::default();
        for v in 64..128 {
            packed.record(v); // all land in the <=127 bucket
        }
        for p in [0.0, 25.0, 50.0, 100.0] {
            assert_eq!(packed.percentile(p), 127, "single bucket at p={p}");
        }
    }

    #[test]
    fn percentile_contract_extremes_and_nonfinite() {
        let mut h = Histogram::default();
        h.record(1); // bucket bound 1
        h.record(1000); // bucket bound 1023
                        // p=0 / negative p: the smallest sample's bucket.
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(-5.0), 1);
        // p=100 / beyond: the largest sample's bucket.
        assert_eq!(h.percentile(100.0), 1023);
        assert_eq!(h.percentile(400.0), 1023);
        // Non-finite p never panics: NaN and -inf act as p=0, +inf as 100.
        assert_eq!(h.percentile(f64::NAN), 1);
        assert_eq!(h.percentile(f64::NEG_INFINITY), 1);
        assert_eq!(h.percentile(f64::INFINITY), 1023);
    }

    #[test]
    fn percentile_of_merge_equals_percentile_of_whole() {
        // The two-shard fold the fleet aggregation relies on: merging
        // shard histograms then reading percentiles must equal one
        // histogram that saw every sample.
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for i in 0..100u64 {
            let v = i * i % 4097;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), whole.percentile(p));
        }
    }

    #[test]
    fn observe_histogram_merges_samples() {
        let mut h = Histogram::default();
        h.record(4);
        h.record(9);
        let mut reg = Registry::new();
        reg.observe("lat", 2);
        reg.observe_histogram("lat", &h);
        let (_, merged) = reg.histograms().next().unwrap();
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum(), 15);
        // Empty histograms contribute nothing (and create no entry).
        reg.observe_histogram("other", &Histogram::default());
        assert_eq!(reg.histograms().count(), 1);
    }

    #[test]
    fn stamp_is_monotonic() {
        let mut reg = Registry::new();
        reg.stamp(100);
        reg.stamp(10);
        assert_eq!(reg.stamped(), 100);
        reg.span("s", 0, 500);
        assert_eq!(reg.stamped(), 500);
    }
}
