//! Spans recorded from the benchmark's own files, around each call into
//! a layer's public functions.
//!
//! Two kinds of timing exist:
//!
//! * **stalls** — background `Controller` calls that block the call
//!   path (audit/recovery cycle, supervise tick, store sync,
//!   checkpoint, compaction, storage audit). They are few per virtual
//!   second, so they are timed in every run; `stall_p99_us` comes from
//!   them.
//! * **spans** — every call into a layer, including the per-call
//!   client path. They are timed only in a traced run.
//!
//! Spans never nest (each wraps one call from the harness), so a span's
//! self time is its duration. Whatever a traced loop spends outside
//! every span is harness time; a controller call left outside every
//! span lands there, which the span-coverage check catches.

use std::collections::BTreeMap;
use std::time::Instant;

/// Per-name span samples and stall samples.
#[derive(Debug)]
pub struct Tracer {
    traced: bool,
    spans: BTreeMap<&'static str, Vec<u64>>,
    stalls: Vec<u64>,
}

impl Tracer {
    /// A tracer; `traced` turns on the per-call spans.
    pub fn new(traced: bool) -> Self {
        Tracer { traced, spans: BTreeMap::new(), stalls: Vec::new() }
    }

    /// Whether per-call spans are recorded.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Times a call into a layer when tracing is on.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let (out, ns) = timed(f);
        self.spans.entry(name).or_default().push(ns);
        out
    }

    /// Times a background call that blocks the call path. Always
    /// recorded as a stall; also recorded as a span when tracing.
    pub fn stall<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ns) = timed(f);
        self.stalls.push(ns);
        if self.traced {
            self.spans.entry(name).or_default().push(ns);
        }
        out
    }

    /// Folds another tracer's samples into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, v) in other.spans {
            self.spans.entry(name).or_default().extend(v);
        }
        self.stalls.extend(other.stalls);
    }

    /// Span samples by name, in nanoseconds.
    pub fn spans(&self) -> &BTreeMap<&'static str, Vec<u64>> {
        &self.spans
    }

    /// Stall samples in nanoseconds.
    pub fn stalls(&self) -> &[u64] {
        &self.stalls
    }

    /// Total time inside spans, in nanoseconds.
    pub fn span_total_ns(&self) -> u64 {
        self.spans.values().flatten().sum()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Least share of a traced loop's wall time that spans must cover.
/// The rest is harness time (event queue, bookkeeping); a controller
/// call left outside every span shows up as a shortfall.
pub const MIN_SPAN_COVERAGE: f64 = 0.9;

/// The share of `wall_ns` that `span_ns` covers, and a failure message
/// when it is below [`MIN_SPAN_COVERAGE`].
pub fn span_coverage(span_ns: u64, wall_ns: u64) -> (f64, Option<String>) {
    let coverage = span_ns as f64 / wall_ns.max(1) as f64;
    let failure = (coverage < MIN_SPAN_COVERAGE).then(|| {
        format!(
            "spans cover {coverage:.3} of the traced wall time (< {MIN_SPAN_COVERAGE}): \
             time outside every span exceeds 10%"
        )
    });
    (coverage, failure)
}
