//! Per-layer attribution for the traced run: a timing wrapper around the
//! rewriters, and span aggregation (durations, self times, attributes)
//! over the spans the program already emits.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qrw_core::{DecodeStats, QueryRewriter};
use qrw_obs::SpanRecord;
use qrw_search::SharedRewriter;

use crate::measure::allocs;

/// Totals of the calls a [`Timed`] rewriter saw.
#[derive(Default)]
pub struct CallStats {
    calls: AtomicU64,
    nanos: AtomicU64,
    tokens: AtomicU64,
    allocs: AtomicU64,
}

/// A point-in-time copy of [`CallStats`].
#[derive(Clone, Copy, Default, Debug)]
pub struct Calls {
    pub calls: u64,
    pub nanos: u64,
    pub tokens: u64,
    pub allocs: u64,
}

impl CallStats {
    pub fn snapshot(&self) -> Calls {
        Calls {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            tokens: self.tokens.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
        }
    }
}

impl Calls {
    pub fn since(&self, earlier: &Calls) -> Calls {
        Calls {
            calls: self.calls - earlier.calls,
            nanos: self.nanos - earlier.nanos,
            tokens: self.tokens - earlier.tokens,
            allocs: self.allocs - earlier.allocs,
        }
    }

    pub fn us_per_call(&self) -> f64 {
        self.nanos as f64 / 1e3 / self.calls.max(1) as f64
    }

    pub fn tokens_per_call(&self) -> f64 {
        self.tokens as f64 / self.calls.max(1) as f64
    }

    pub fn us_per_token(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.nanos as f64 / 1e3 / self.tokens as f64
        }
    }

    pub fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls.max(1) as f64
    }
}

/// Times every call into a rewriter from outside: wall time, decoded
/// tokens (from the model's own telemetry) and allocations. Allocation
/// counts are process-wide, so they attribute correctly only while one
/// thread serves.
pub struct Timed {
    inner: SharedRewriter,
    stats: Arc<CallStats>,
}

impl Timed {
    pub fn new(inner: SharedRewriter, stats: Arc<CallStats>) -> Self {
        Timed { inner, stats }
    }

    fn record<T>(&self, call: impl FnOnce() -> T) -> T {
        let before = self.inner.decode_stats().unwrap_or_default();
        let a0 = allocs();
        let t0 = Instant::now();
        let out = call();
        let nanos = t0.elapsed().as_nanos() as u64;
        let a1 = allocs();
        let after = self.inner.decode_stats().unwrap_or_default();
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.stats
            .tokens
            .fetch_add(after.since(&before).tokens, Ordering::Relaxed);
        self.stats.allocs.fetch_add(a1 - a0, Ordering::Relaxed);
        out
    }
}

impl QueryRewriter for Timed {
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>> {
        self.record(|| self.inner.rewrite(query, k))
    }

    fn rewrite_with_context(
        &self,
        context: &[Vec<String>],
        query: &[String],
        k: usize,
    ) -> Vec<Vec<String>> {
        self.record(|| self.inner.rewrite_with_context(context, query, k))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decode_stats(&self) -> Option<DecodeStats> {
        self.inner.decode_stats()
    }
}

/// Per-name aggregates over a set of spans.
#[derive(Clone, Copy, Default, Debug)]
pub struct SpanAgg {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

impl SpanAgg {
    pub fn mean_us(&self) -> f64 {
        self.total_us as f64 / self.count.max(1) as f64
    }
}

/// Duration and self time (duration minus what its children cover) per
/// span name.
pub fn aggregate(spans: &[SpanRecord]) -> BTreeMap<&'static str, SpanAgg> {
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_us.entry(p).or_default() += dur(s);
        }
    }
    let mut out: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    for s in spans {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_us += dur(s);
        a.self_us += dur(s).saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
    }
    out
}

pub fn dur(s: &SpanRecord) -> u64 {
    s.end_us.saturating_sub(s.start_us)
}

/// Sum of an integer attribute over the spans named `name`.
pub fn attr_sum(spans: &[SpanRecord], name: &str, key: &str) -> i64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.attr(key).and_then(|v| v.as_int()))
        .sum()
}

/// Prints the self-time table of one traced replay: one row per span name
/// with its count, mean duration, total self time and share of `total_us`.
pub fn print_self_times(title: &str, aggs: &BTreeMap<&'static str, SpanAgg>, total_us: f64) {
    println!("self time per layer ({title}; share of {total_us:.0} us measured outside)");
    println!(
        "  {:<16} {:>9} {:>12} {:>14} {:>8}",
        "span", "count", "mean_us", "self_us", "share"
    );
    for (name, a) in aggs {
        println!(
            "  {:<16} {:>9} {:>12.2} {:>14} {:>7.2}%",
            name,
            a.count,
            a.mean_us(),
            a.self_us,
            100.0 * a.self_us as f64 / total_us.max(1.0)
        );
    }
}
