//! Typed counters and log-2 histograms for simulation statistics.
//!
//! The evaluation section of the paper reports derived statistics such as
//! *persists per thousand instructions* (PPTI) and *number of writes per
//! SecPB entry* (NWPE).  [`Stats`] is a registry of counters and
//! [`Log2Histogram`]s with two access paths:
//!
//! * **Typed handles** — model components call [`Stats::counter`] /
//!   [`Stats::histogram_id`] once at construction to resolve a name to a
//!   dense slot ([`StatId`] / [`HistId`]), then increment through the
//!   handle on the hot path.  An increment is a single indexed add — no
//!   string hashing or tree walk per event.
//! * **String names** — [`Stats::bump`] / [`Stats::get`] look the name up
//!   (registering it on first use) and are kept for cold paths, tests,
//!   and ad-hoc counters.
//!
//! Names use the dotted convention (`"secpb.persists"`,
//! `"bmt.root_updates"`, ...).  The name→id map is consulted only at
//! registration and reporting time; [`Stats::reset`] zeroes every value
//! while keeping registrations, so handles resolved before a measurement
//! reset stay valid.
//!
//! # Example
//!
//! ```
//! use secpb_sim::stats::Stats;
//!
//! let mut s = Stats::new();
//! let persists = s.counter("secpb.persists");
//! let instrs = s.counter("core.instructions");
//! s.inc(persists);
//! s.add(instrs, 1000);
//! assert_eq!(s.value(persists), 1);
//! assert_eq!(s.get("secpb.persists"), 1);
//! // Persists per thousand instructions:
//! assert!((s.ratio("secpb.persists", "core.instructions") * 1000.0 - 1.0).abs() < 1e-12);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;
use crate::telemetry::{TelemetryEvent, TelemetrySink};
use crate::wire::{WireError, WireReader, WireWriter};

/// A dense handle to a registered counter.
///
/// Obtained from [`Stats::counter`]; valid for the lifetime of the
/// registry that issued it (including across [`Stats::reset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatId(u32);

/// A dense handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistId(u32);

impl HistId {
    /// The dense slot index behind the handle, for id-keyed side tables
    /// (the telemetry plane ships this index over the wire).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A histogram with power-of-two bucket boundaries.
///
/// Bucket 0 holds only the value 0; bucket *i* (for *i* ≥ 1) holds values
/// in `[2^(i-1), 2^i - 1]`.  This covers the full `u64` range in at most
/// 65 buckets with no configuration, which suits the quantities the
/// simulator distributes (occupancy, latencies in cycles, per-entry
/// write counts): precise at the low end, logarithmic at the tail.
///
/// # Example
///
/// ```
/// use secpb_sim::stats::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(6);  // bucket [4, 7]
/// assert_eq!(h.counts(), &[1, 1, 0, 1]);
/// assert_eq!(h.total(), 3);
/// assert_eq!(Log2Histogram::bucket_range(3), (4, 7));
/// ```
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Log2Histogram {
    /// Per-bucket counts, truncated after the last non-empty bucket.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Clone for Log2Histogram {
    fn clone(&self) -> Self {
        Log2Histogram {
            counts: self.counts.clone(),
            ..*self
        }
    }

    /// Reuses this histogram's bucket allocation.
    fn clone_from(&mut self, src: &Self) {
        self.counts.clone_from(&src.counts);
        self.total = src.total;
        self.sum = src.sum;
        self.min = src.min;
        self.max = src.max;
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index a value falls into: 0 for 0, else `1 + ⌊log2 v⌋`.
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// The inclusive `(lo, hi)` range of bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 64` (no such bucket).
    pub fn bucket_range(index: usize) -> (u64, u64) {
        assert!(index <= 64, "log2 bucket index out of range");
        match index {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Per-bucket counts, ending at the last non-empty bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean of the samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest sample seen, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample seen, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An upper bound on the `p`-quantile of the samples (0 if empty).
    ///
    /// Walks the buckets to the one containing the `⌈p·total⌉`-th sample
    /// and returns that bucket's inclusive upper bound, clamped to the
    /// exact maximum sample.  Log-2 bucketing means the answer is exact
    /// to within a factor of two — the right fidelity for "is p99 drain
    /// latency exploding" health monitoring, at zero per-sample cost.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = ((p * self.total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                let (_, hi) = Self::bucket_range(i);
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Zeroes the histogram.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Serializes to JSON (`{"total", "sum", "min", "max", "mean",
    /// "buckets"}` with one `{"bucket", "lo", "hi", "count"}` entry per
    /// non-empty bucket).
    ///
    /// JSON numbers are `f64`, so `sum`/`min`/`max` round-trip exactly
    /// only below 2⁵³ — far beyond any quantity the simulator records
    /// (the `bucket` index, not `lo`/`hi`, is what [`Self::from_json`]
    /// keys on, so the bucket shape itself is exact at any magnitude).
    pub fn to_json(&self) -> Json {
        let buckets = Json::Arr(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| {
                    let (lo, hi) = Self::bucket_range(i);
                    Json::obj()
                        .field("bucket", i)
                        .field("lo", lo)
                        .field("hi", hi)
                        .field("count", c)
                })
                .collect(),
        );
        Json::obj()
            .field("total", self.total)
            .field("sum", self.sum as u64)
            .field("min", self.min())
            .field("max", self.max)
            .field("mean", self.mean())
            .field("buckets", buckets)
    }

    /// Appends the histogram's exact raw state (including the empty-
    /// histogram `min` sentinel) to a checkpoint image.
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.usize(self.counts.len());
        for &c in &self.counts {
            w.u64(c);
        }
        w.u64(self.total);
        w.u128(self.sum);
        w.u64(self.min);
        w.u64(self.max);
    }

    /// Rebuilds a histogram from [`encode_into`](Self::encode_into)
    /// bytes.
    ///
    /// # Errors
    ///
    /// Propagates truncation/malformation with the byte offset.
    pub fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len(8)?;
        let mut counts = Vec::with_capacity(n);
        for _ in 0..n {
            counts.push(r.u64()?);
        }
        Ok(Log2Histogram {
            counts,
            total: r.u64()?,
            sum: r.u128()?,
            min: r.u64()?,
            max: r.u64()?,
        })
    }

    /// Reconstructs a histogram from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let field = |name: &str| {
            j.get(name)
                .and_then(Json::as_u64)
                .ok_or(format!("bad field {name}"))
        };
        let mut h = Log2Histogram::new();
        for b in j.get("buckets").ok_or("missing buckets")?.items() {
            let idx = b
                .get("bucket")
                .and_then(Json::as_u64)
                .ok_or("bad bucket index")?;
            let count = b
                .get("count")
                .and_then(Json::as_u64)
                .ok_or("bad bucket count")?;
            if idx > 64 {
                return Err(format!("bucket index {idx} out of range"));
            }
            let idx = idx as usize;
            if idx >= h.counts.len() {
                h.counts.resize(idx + 1, 0);
            }
            h.counts[idx] = count;
        }
        h.total = field("total")?;
        h.sum = u128::from(field("sum")?);
        h.max = field("max")?;
        h.min = if h.total == 0 {
            u64::MAX
        } else {
            field("min")?
        };
        Ok(h)
    }
}

/// The statistics registry: typed-handle fast path over dense slots, with
/// a name→id map kept for registration, merging, and reporting.
///
/// An optional [`TelemetrySink`] may be attached with [`Stats::set_sink`];
/// while attached, every histogram sample is mirrored into the sink's
/// ring as a [`TelemetryEvent::HistSample`] *after* the registry
/// mutation.  Counters are not streamed: a consumer that wants one reads
/// the registry.  The sink is a pure observer: it never influences
/// any value, it is ignored by `PartialEq`, and it survives
/// [`Stats::reset`] (but is deliberately **not** carried by [`Clone`] —
/// a cloned registry, e.g. inside a `RunResult`, must not keep feeding a
/// live ring).
#[derive(Debug, Default)]
pub struct Stats {
    /// `name → StatId.0`; consulted only at registration/report time.
    counter_ids: BTreeMap<String, u32>,
    /// Dense counter values, indexed by `StatId`.
    values: Vec<u64>,
    /// `name → HistId.0`.
    hist_ids: BTreeMap<String, u32>,
    /// Dense histograms, indexed by `HistId`.
    hists: Vec<Log2Histogram>,
    /// Live telemetry sink; `None` (the default) costs one branch.
    sink: Option<TelemetrySink>,
}

impl Clone for Stats {
    fn clone(&self) -> Self {
        Stats {
            counter_ids: self.counter_ids.clone(),
            values: self.values.clone(),
            hist_ids: self.hist_ids.clone(),
            hists: self.hists.clone(),
            sink: None,
        }
    }

    /// Equals `*self = src.clone()`, sink dropped included, but when both
    /// registries hold the same names under the same ids — a rewind
    /// point and its system — only values and histograms are copied,
    /// into this registry's allocations.
    fn clone_from(&mut self, src: &Self) {
        if self.counter_ids != src.counter_ids || self.hist_ids != src.hist_ids {
            *self = src.clone();
            return;
        }
        self.values.clone_from(&src.values);
        self.hists.clone_from(&src.hists);
        self.sink = None;
    }
}

impl PartialEq for Stats {
    fn eq(&self, other: &Self) -> bool {
        self.counter_ids == other.counter_ids
            && self.values == other.values
            && self.hist_ids == other.hist_ids
            && self.hists == other.hists
    }
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Stats::default()
    }

    // ----- registration ---------------------------------------------

    /// Resolves `name` to a counter handle, registering it at zero on
    /// first use.  Call once per counter, outside the hot loop.
    pub fn counter(&mut self, name: &str) -> StatId {
        if let Some(&id) = self.counter_ids.get(name) {
            return StatId(id);
        }
        let id = u32::try_from(self.values.len()).expect("too many counters");
        self.values.push(0);
        self.counter_ids.insert(name.to_owned(), id);
        StatId(id)
    }

    /// Resolves `name` to a histogram handle, registering an empty
    /// log-2 histogram on first use.
    pub fn histogram_id(&mut self, name: &str) -> HistId {
        if let Some(&id) = self.hist_ids.get(name) {
            return HistId(id);
        }
        let id = u32::try_from(self.hists.len()).expect("too many histograms");
        self.hists.push(Log2Histogram::new());
        self.hist_ids.insert(name.to_owned(), id);
        HistId(id)
    }

    // ----- typed fast path ------------------------------------------

    /// Increments a registered counter by one.
    #[inline]
    pub fn inc(&mut self, id: StatId) {
        self.values[id.0 as usize] += 1;
    }

    /// Increments a registered counter by `n`.
    #[inline]
    pub fn add(&mut self, id: StatId, n: u64) {
        self.values[id.0 as usize] += n;
    }

    /// A registered counter's current value.
    #[inline]
    pub fn value(&self, id: StatId) -> u64 {
        self.values[id.0 as usize]
    }

    /// Records a sample into a registered histogram.
    #[inline]
    pub fn record(&mut self, id: HistId, value: u64) {
        self.hists[id.0 as usize].record(value);
        if let Some(sink) = &self.sink {
            sink.emit(&TelemetryEvent::HistSample { id: id.0, value });
        }
    }

    /// A registered histogram.
    #[inline]
    pub fn hist(&self, id: HistId) -> &Log2Histogram {
        &self.hists[id.0 as usize]
    }

    // ----- string-keyed slow path -----------------------------------

    /// Increments the named counter by one, registering it if needed.
    ///
    /// Cold-path convenience: resolves the name on every call.  Hot
    /// loops should hold a [`StatId`] and use [`Self::inc`].
    pub fn bump(&mut self, name: &str) {
        self.bump_by(name, 1);
    }

    /// Increments the named counter by `n` (slow path; see [`Self::bump`]).
    pub fn bump_by(&mut self, name: &str, n: u64) {
        let id = self.counter(name);
        self.add(id, n);
    }

    /// Returns the named counter's value, or 0 if it was never
    /// registered.
    pub fn get(&self, name: &str) -> u64 {
        self.counter_ids
            .get(name)
            .map_or(0, |&id| self.values[id as usize])
    }

    /// `numerator / denominator` over two counters; 0.0 if the
    /// denominator is zero.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.get(denominator);
        if d == 0 {
            0.0
        } else {
            self.get(numerator) as f64 / d as f64
        }
    }

    /// The named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.hist_ids.get(name).map(|&id| &self.hists[id as usize])
    }

    // ----- telemetry ------------------------------------------------

    /// Attaches (or with `None` detaches) a live telemetry sink.
    ///
    /// While attached, every [`Self::record`] mirrors its sample into the
    /// ring.  The sink observes and never steers: no registry value
    /// depends on it, and a full ring drops events (counted) rather than
    /// stalling the caller.
    pub fn set_sink(&mut self, sink: Option<TelemetrySink>) {
        self.sink = sink;
    }

    /// The attached telemetry sink, if any.
    pub fn sink(&self) -> Option<&TelemetrySink> {
        self.sink.as_ref()
    }

    /// Iterates over `(name, id)` for all registered histograms in name
    /// order — the mapping telemetry consumers use to resolve wire ids.
    pub fn histogram_entries(&self) -> impl Iterator<Item = (&str, HistId)> {
        self.hist_ids
            .iter()
            .map(|(k, &id)| (k.as_str(), HistId(id)))
    }

    // ----- lifecycle ------------------------------------------------

    /// Zeroes every counter and histogram while keeping all
    /// registrations (and any attached telemetry sink), so previously
    /// issued handles stay valid.  Used at measurement-region boundaries
    /// (warm-up → measure).
    pub fn reset(&mut self) {
        for v in &mut self.values {
            *v = 0;
        }
        for h in &mut self.hists {
            h.reset();
        }
    }

    /// Iterates over `(name, value)` for all counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_ids
            .iter()
            .map(|(k, &id)| (k.as_str(), self.values[id as usize]))
    }

    /// Iterates over `(name, histogram)` in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Log2Histogram)> {
        self.hist_ids
            .iter()
            .map(|(k, &id)| (k.as_str(), &self.hists[id as usize]))
    }

    /// Merges another registry into this one by name: counters add,
    /// histograms merge bucket-wise.
    ///
    /// Merging is report assembly, not live observation, so it writes
    /// slots directly and emits **no** telemetry events even when a sink
    /// is attached.
    pub fn merge(&mut self, other: &Stats) {
        for (name, value) in other.iter() {
            let id = self.counter(name);
            self.values[id.0 as usize] += value;
        }
        for (name, h) in other.histograms() {
            let id = self.histogram_id(name);
            self.hists[id.0 as usize].merge(h);
        }
    }

    /// Appends the full registry — names, dense slot ids, values, and
    /// raw histograms — to a checkpoint image.  Decoding rebuilds the
    /// exact `(name, id)` mapping, so [`StatId`]/[`HistId`] handles
    /// resolved before a checkpoint stay valid after a restore.  The
    /// telemetry sink is not part of the image (it is an observer, not
    /// state).
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.usize(self.counter_ids.len());
        for (name, &id) in &self.counter_ids {
            w.str(name);
            w.u32(id);
            w.u64(self.values[id as usize]);
        }
        w.usize(self.hist_ids.len());
        for (name, &id) in &self.hist_ids {
            w.str(name);
            w.u32(id);
            self.hists[id as usize].encode_into(w);
        }
    }

    /// Rebuilds a registry from [`encode_into`](Self::encode_into)
    /// bytes (with no sink attached).
    ///
    /// # Errors
    ///
    /// Truncated/malformed input, or ids that are not a dense
    /// permutation of `0..len`.
    pub fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n_counters = r.seq_len(8 + 4 + 8)?;
        let mut counter_ids = BTreeMap::new();
        let mut values = vec![0u64; n_counters];
        for _ in 0..n_counters {
            let name = r.str()?.to_owned();
            let id = r.u32()?;
            let value = r.u64()?;
            let slot = values
                .get_mut(id as usize)
                .ok_or_else(|| r.malformed(format!("counter id {id} out of range")))?;
            *slot = value;
            if counter_ids.insert(name.clone(), id).is_some() {
                return Err(r.malformed(format!("duplicate counter name {name:?}")));
            }
        }
        if counter_ids.len() != n_counters {
            return Err(r.malformed("counter ids are not dense"));
        }
        let n_hists = r.seq_len(8 + 4)?;
        let mut hist_ids = BTreeMap::new();
        let mut hists = vec![Log2Histogram::new(); n_hists];
        for _ in 0..n_hists {
            let name = r.str()?.to_owned();
            let id = r.u32()?;
            let hist = Log2Histogram::decode_from(r)?;
            let slot = hists
                .get_mut(id as usize)
                .ok_or_else(|| r.malformed(format!("histogram id {id} out of range")))?;
            *slot = hist;
            if hist_ids.insert(name.clone(), id).is_some() {
                return Err(r.malformed(format!("duplicate histogram name {name:?}")));
            }
        }
        Ok(Stats {
            counter_ids,
            values,
            hist_ids,
            hists,
            sink: None,
        })
    }

    /// Serializes counters and histograms to a JSON object
    /// (`{"counters": {...}, "histograms": {...}}`, keys in name order).
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, value) in self.iter() {
            counters = counters.field(name, value);
        }
        let mut hists = Json::obj();
        for (name, h) in self.histograms() {
            hists = hists.field(name, h.to_json());
        }
        Json::obj()
            .field("counters", counters)
            .field("histograms", hists)
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<40} {v}")?;
        }
        for (k, h) in self.histograms() {
            writeln!(
                f,
                "{k:<40} n={} mean={:.2} min={} max={}",
                h.total(),
                h.mean(),
                h.min(),
                h.max()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_counters_are_dense_and_stable() {
        let mut s = Stats::new();
        let a = s.counter("a");
        let b = s.counter("b");
        assert_ne!(a, b);
        assert_eq!(s.counter("a"), a, "re-registration returns the same id");
        s.inc(a);
        s.add(b, 7);
        assert_eq!(s.value(a), 1);
        assert_eq!(s.value(b), 7);
        assert_eq!(s.get("a"), 1);
        assert_eq!(s.get("b"), 7);
    }

    #[test]
    fn bump_creates_and_accumulates() {
        let mut s = Stats::new();
        assert_eq!(s.get("x"), 0);
        s.bump("x");
        s.bump_by("x", 4);
        assert_eq!(s.get("x"), 5);
    }

    #[test]
    fn string_and_typed_paths_share_slots() {
        let mut s = Stats::new();
        let id = s.counter("n");
        s.bump_by("n", 3);
        s.add(id, 2);
        assert_eq!(s.value(id), 5);
        assert_eq!(s.get("n"), 5);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut s = Stats::new();
        s.bump_by("a", 10);
        assert_eq!(s.ratio("a", "missing"), 0.0);
        s.bump_by("b", 4);
        assert!((s.ratio("a", "b") - 2.5).abs() < 1e-12);
    }

    #[test]
    fn reset_keeps_registrations() {
        let mut s = Stats::new();
        let c = s.counter("c");
        let h = s.histogram_id("h");
        s.add(c, 9);
        s.record(h, 5);
        s.reset();
        assert_eq!(s.value(c), 0);
        assert_eq!(s.hist(h).total(), 0);
        // Handles issued before the reset still index the same slots.
        s.inc(c);
        s.record(h, 2);
        assert_eq!(s.get("c"), 1);
        assert_eq!(s.histogram("h").unwrap().total(), 1);
    }

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(1023), 10);
        assert_eq!(Log2Histogram::bucket_index(1024), 11);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        for i in 0..=64 {
            let (lo, hi) = Log2Histogram::bucket_range(i);
            assert_eq!(Log2Histogram::bucket_index(lo), i);
            assert_eq!(Log2Histogram::bucket_index(hi), i);
            if i < 64 {
                assert_eq!(Log2Histogram::bucket_index(hi + 1), i + 1);
            }
        }
    }

    #[test]
    fn log2_record_and_summary() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 2, 3, 8, 9, 1000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[1, 1, 2, 0, 2, 0, 0, 0, 0, 0, 1]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - (1023.0 / 7.0)).abs() < 1e-9);
    }

    #[test]
    fn log2_empty_summary_is_zero() {
        let h = Log2Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.counts().is_empty());
    }

    #[test]
    fn log2_merge_adds_bucketwise() {
        let mut a = Log2Histogram::new();
        a.record(1);
        a.record(100);
        let mut b = Log2Histogram::new();
        b.record(1);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 100);
        assert_eq!(a.counts()[Log2Histogram::bucket_index(1)], 2);
        assert_eq!(a.counts()[Log2Histogram::bucket_index(3)], 1);
        assert_eq!(a.counts()[Log2Histogram::bucket_index(100)], 1);
    }

    #[test]
    fn log2_json_round_trip() {
        let mut h = Log2Histogram::new();
        for v in [0, 1, 5, 5, 70_000, 1 << 45] {
            h.record(v);
        }
        let back = Log2Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
        // Through actual text, too.
        let text = h.to_json().to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(Log2Histogram::from_json(&parsed).unwrap(), h);
    }

    #[test]
    fn log2_empty_json_round_trip() {
        let h = Log2Histogram::new();
        let back = Log2Histogram::from_json(&h.to_json()).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn log2_from_json_rejects_garbage() {
        assert!(Log2Histogram::from_json(&Json::obj()).is_err());
        let bad_idx = Json::obj()
            .field("total", 1u64)
            .field("sum", 3u64)
            .field("min", 3u64)
            .field("max", 3u64)
            .field(
                "buckets",
                Json::arr([Json::obj().field("bucket", 99u64).field("count", 1u64)]),
            );
        assert!(
            Log2Histogram::from_json(&bad_idx).is_err(),
            "bucket 99 does not exist"
        );
    }

    #[test]
    fn stats_histograms_by_name() {
        let mut s = Stats::new();
        let h = s.histogram_id("h");
        s.record(h, 3);
        s.record(h, 30);
        let got = s.histogram("h").unwrap();
        assert_eq!(got.total(), 2);
        assert!(s.histogram("absent").is_none());
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = Stats::new();
        a.bump_by("n", 2);
        let ha = a.histogram_id("h");
        a.record(ha, 5);
        let mut b = Stats::new();
        b.bump_by("n", 3);
        b.bump("only_b");
        b.counter("zero_in_b");
        let hb = b.histogram_id("h");
        b.record(hb, 50);
        a.merge(&b);
        assert_eq!(a.get("n"), 5);
        assert_eq!(a.get("only_b"), 1);
        assert_eq!(a.get("zero_in_b"), 0);
        assert!(
            a.iter().any(|(k, _)| k == "zero_in_b"),
            "registration survives merge"
        );
        let h = a.histogram("h").unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.max(), 50);
    }

    #[test]
    fn percentile_walks_buckets_and_clamps_to_max() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.percentile(0.99), 0, "empty histogram");
        for _ in 0..99 {
            h.record(4); // bucket [4, 7]
        }
        h.record(1000); // bucket [512, 1023]
        assert_eq!(h.percentile(0.50), 7, "bucket upper bound");
        assert_eq!(h.percentile(0.99), 7);
        assert_eq!(h.percentile(1.0), 1000, "clamped to the exact max");
        let mut single = Log2Histogram::new();
        single.record(5);
        assert_eq!(single.percentile(0.5), 5);
    }

    #[test]
    fn sink_receives_histogram_samples_and_no_counter_bumps() {
        use crate::telemetry::{channel, TelemetryEvent};
        let mut with_sink = Stats::new();
        let mut without = Stats::new();
        let (sink, mut reader) = channel(64);
        with_sink.set_sink(Some(sink));
        for s in [&mut with_sink, &mut without] {
            let c = s.counter("n");
            let h = s.histogram_id("lat");
            s.inc(c);
            s.record(h, 9);
            s.add(c, 4);
            s.bump("m");
            s.record(h, 2);
        }
        assert_eq!(with_sink, without, "sink must not steer any value");
        let events: Vec<_> = std::iter::from_fn(|| reader.pop()).collect();
        assert_eq!(
            events,
            [
                TelemetryEvent::HistSample { id: 0, value: 9 },
                TelemetryEvent::HistSample { id: 0, value: 2 },
            ]
        );
        // reset/merge keep the sink but merge is silent.
        with_sink.reset();
        assert!(with_sink.sink().is_some());
        with_sink.merge(&without);
        assert!(reader.pop().is_none(), "merge must not emit");
        // Clones are snapshots: they drop the sink.
        assert!(with_sink.clone().sink().is_none());
    }

    #[test]
    fn clone_from_equals_clone_and_reuses_a_matching_registry() {
        use crate::telemetry::channel;
        let registry = |n: u64| {
            let mut s = Stats::new();
            let (c, h) = (s.counter("c"), s.histogram_id("h"));
            s.add(c, n);
            for v in 0..n {
                s.record(h, v << 20);
            }
            s.counter("zero");
            s
        };
        let src = registry(2);
        let mut dst = registry(9);
        dst.set_sink(Some(channel(4).0));
        let (values, buckets) = (dst.values.as_ptr(), dst.hists[0].counts.as_ptr());
        dst.clone_from(&src);
        assert_eq!(dst, src.clone());
        assert!(dst.sink().is_none(), "a clone drops the sink");
        assert_eq!(dst.values.as_ptr(), values, "values copied in place");
        assert_eq!(
            dst.hists[0].counts.as_ptr(),
            buckets,
            "buckets copied in place"
        );
        // A registry with other names falls back to a whole clone.
        let mut other = Stats::new();
        other.bump("other");
        other.counter("zero2");
        other.histogram_id("h2");
        other.clone_from(&src);
        assert_eq!(other, src.clone());
        let mut fewer = Stats::new();
        fewer.bump("c");
        fewer.clone_from(&src);
        assert_eq!(fewer, src.clone());
    }

    #[test]
    fn wire_round_trip_preserves_ids_values_and_histograms() {
        let mut s = Stats::new();
        let a = s.counter("z.last"); // registration order ≠ name order
        let b = s.counter("a.first");
        let h = s.histogram_id("lat");
        s.add(a, 41);
        s.inc(b);
        s.record(h, 9);
        s.record(h, 1 << 40);
        let mut w = crate::wire::WireWriter::new();
        s.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::wire::WireReader::new(&bytes);
        let mut back = Stats::decode_from(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back, s);
        // Handles resolved pre-checkpoint address the same slots.
        back.inc(a);
        assert_eq!(back.get("z.last"), 42);
        // Truncated images fail with an offset, never a silent short read.
        for cut in [0, 3, bytes.len() - 1] {
            assert!(Stats::decode_from(&mut crate::wire::WireReader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn display_lists_counters_in_name_order() {
        let mut s = Stats::new();
        s.bump("z.second");
        s.bump("a.first");
        let text = s.to_string();
        let a = text.find("a.first").unwrap();
        let z = text.find("z.second").unwrap();
        assert!(a < z, "counters should print in name order");
    }

    #[test]
    fn to_json_is_ordered_and_complete() {
        let mut s = Stats::new();
        s.bump_by("b.two", 2);
        s.bump("a.one");
        let h = s.histogram_id("lat");
        s.record(h, 4);
        let j = s.to_json();
        let counters = j.get("counters").unwrap();
        assert_eq!(counters.get("a.one").unwrap().as_u64(), Some(1));
        assert_eq!(counters.get("b.two").unwrap().as_u64(), Some(2));
        assert_eq!(
            j.get("histograms")
                .unwrap()
                .get("lat")
                .unwrap()
                .get("total")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        // Name order in the serialized text.
        let text = j.to_string();
        assert!(text.find("a.one").unwrap() < text.find("b.two").unwrap());
    }
}
