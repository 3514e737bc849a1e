//! Serving health accounting: which ladder rung served each request, why
//! requests degraded, and how long each stage took.
//!
//! Counters are plain relaxed atomics — they are monotone event counts
//! read only for reporting, so no cross-counter consistency is needed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use qrw_core::DecodeStats;
use qrw_obs::Histogram;
use qrw_tensor::sync::Mutex;

use crate::breaker::BreakerState;
use crate::error::{ServeError, Stage};
use crate::serving::RewriteSource;

/// Internal counter block owned by the engine.
#[derive(Debug, Default)]
pub struct HealthCounters {
    /// End-to-end request latency (µs) in a fixed-layout log-bucketed
    /// histogram, so per-engine histograms merge exactly across workers.
    latency_us: Mutex<Histogram>,
    requests: AtomicU64,
    served_cache: AtomicU64,
    served_student: AtomicU64,
    served_online: AtomicU64,
    served_baseline: AtomicU64,
    served_raw: AtomicU64,
    deadline_exceeded: AtomicU64,
    breaker_rejections: AtomicU64,
    model_errors: AtomicU64,
    panics_caught: AtomicU64,
    empty_outputs: AtomicU64,
    poisoned_entries: AtomicU64,
    truncated_queries: AtomicU64,
    queue_rejections: AtomicU64,
    queue_sheds: AtomicU64,
    partial_results: AtomicU64,
    /// Admission-queue depth gauge and its high-water mark, packed into
    /// one word (`peak << 32 | depth`) so the pair is updated and read
    /// atomically — see [`record_queue_depth`](Self::record_queue_depth).
    queue_gauge: AtomicU64,
    rewrite_micros: AtomicU64,
    retrieval_micros: AtomicU64,
    rank_micros: AtomicU64,
    /// Decode telemetry blocks (steps, tokens, cache hits, µs) of the
    /// online model and of the student.
    decode: [AtomicU64; 4],
    student: [AtomicU64; 4],
}

impl HealthCounters {
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_source(&self, source: RewriteSource) {
        let counter = match source {
            RewriteSource::Cache => &self.served_cache,
            RewriteSource::Student => &self.served_student,
            RewriteSource::Fallback => &self.served_online,
            RewriteSource::Baseline => &self.served_baseline,
            RewriteSource::None => &self.served_raw,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_error(&self, error: &ServeError) {
        let counter = match error {
            ServeError::DeadlineExceeded { .. } => &self.deadline_exceeded,
            ServeError::BreakerOpen => &self.breaker_rejections,
            ServeError::ModelError { .. } => &self.model_errors,
            ServeError::ModelPanic { .. } | ServeError::EnginePanic => &self.panics_caught,
            ServeError::EmptyOutput { .. } => &self.empty_outputs,
            ServeError::PoisonedCacheEntry => &self.poisoned_entries,
            ServeError::QueryTruncated { .. } => &self.truncated_queries,
            ServeError::QueueFull { .. } => &self.queue_rejections,
            ServeError::ExpiredInQueue => &self.queue_sheds,
            ServeError::PartialResults { .. } => &self.partial_results,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the admission-queue depth observed at an enqueue or
    /// dequeue event (a gauge, plus a high-water mark).
    ///
    /// Depth and peak live in **one packed word** (`peak << 32 | depth`),
    /// updated with a single atomic read-modify-write. The previous
    /// two-counter scheme (`store` + `fetch_max`) let a `health_report()`
    /// racing a dequeue shed observe a **torn pair** — a fresh depth next
    /// to a stale peak, i.e. `queue_depth > queue_peak_depth`. Packing
    /// the pair is the same single-snapshot discipline `ShardTierReport`
    /// adopted for the shard-tier telemetry block; the concurrent
    /// never-torn test below hammers it.
    pub fn record_queue_depth(&self, depth: u64) {
        let depth = depth.min(u32::MAX as u64);
        let _ = self.queue_gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            let peak = (cur >> 32).max(depth);
            Some((peak << 32) | depth)
        });
    }

    pub fn record_stage_latency(&self, stage: Stage, elapsed: Duration) {
        let counter = match stage {
            Stage::Rewrite => &self.rewrite_micros,
            Stage::Retrieval => &self.retrieval_micros,
            Stage::Rank => &self.rank_micros,
        };
        counter.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// Records one request's end-to-end latency (including synthetic
    /// deadline charges) into the log-bucketed histogram behind
    /// p50/p95/p99 in the report.
    pub fn record_latency(&self, elapsed: Duration) {
        self.latency_us.lock().record(elapsed.as_micros() as u64);
    }

    /// A copy of the latency histogram, for merging with other engines'
    /// histograms (merge is exact — the bucket layout is fixed).
    pub fn latency_histogram(&self) -> Histogram {
        self.latency_us.lock().clone()
    }

    /// Accumulates one model-rung call's decode telemetry delta (counter
    /// differences from the model, plus the wall-clock spent in the call)
    /// into the block of the rung that made it: the student's, kept apart
    /// so the report compares student and teacher throughput directly, or
    /// the online model's.
    pub fn record_decode(&self, rung: RewriteSource, delta: DecodeStats, elapsed: Duration) {
        let [steps, tokens, cache_hits, micros] = match rung {
            RewriteSource::Student => &self.student,
            _ => &self.decode,
        };
        steps.fetch_add(delta.steps, Ordering::Relaxed);
        tokens.fetch_add(delta.tokens, Ordering::Relaxed);
        cache_hits.fetch_add(delta.cache_hits, Ordering::Relaxed);
        micros.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    pub fn snapshot(
        &self,
        breaker_state: BreakerState,
        breaker_opens: u64,
        churn: ChurnStats,
    ) -> HealthReport {
        let (latency_p50_us, latency_p95_us, latency_p99_us, latency_count) = {
            let h = self.latency_us.lock();
            (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99), h.count())
        };
        // One load of the packed gauge yields a consistent (depth, peak)
        // pair: the report can never show a depth above the peak that
        // accompanied it, however many workers are shedding concurrently.
        let gauge = self.queue_gauge.load(Ordering::Relaxed);
        let [decode_steps, decode_tokens, decode_cache_hits, decode_micros] =
            self.decode.each_ref().map(|c| c.load(Ordering::Relaxed));
        let [student_steps, student_tokens, student_cache_hits, student_micros] =
            self.student.each_ref().map(|c| c.load(Ordering::Relaxed));
        HealthReport {
            latency_p50_us,
            latency_p95_us,
            latency_p99_us,
            latency_count,
            requests: self.requests.load(Ordering::Relaxed),
            served_cache: self.served_cache.load(Ordering::Relaxed),
            served_student: self.served_student.load(Ordering::Relaxed),
            served_online: self.served_online.load(Ordering::Relaxed),
            served_baseline: self.served_baseline.load(Ordering::Relaxed),
            served_raw: self.served_raw.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            model_errors: self.model_errors.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            empty_outputs: self.empty_outputs.load(Ordering::Relaxed),
            poisoned_entries: self.poisoned_entries.load(Ordering::Relaxed),
            truncated_queries: self.truncated_queries.load(Ordering::Relaxed),
            queue_rejections: self.queue_rejections.load(Ordering::Relaxed),
            queue_sheds: self.queue_sheds.load(Ordering::Relaxed),
            partial_results: self.partial_results.load(Ordering::Relaxed),
            queue_depth: gauge & u32::MAX as u64,
            queue_peak_depth: gauge >> 32,
            rewrite_micros: self.rewrite_micros.load(Ordering::Relaxed),
            retrieval_micros: self.retrieval_micros.load(Ordering::Relaxed),
            rank_micros: self.rank_micros.load(Ordering::Relaxed),
            decode_steps,
            decode_tokens,
            decode_cache_hits,
            decode_micros,
            student_steps,
            student_tokens,
            student_cache_hits,
            student_micros,
            breaker_state,
            breaker_opens,
            churn,
            shard_tier: None,
        }
    }
}

/// Per-shard health block of the scatter-gather tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardStatReport {
    /// Shard id (`0..shards_total`).
    pub shard: usize,
    /// Scatter traversals dispatched to this shard (hedges included).
    pub requests: u64,
    /// Traversals that failed (panic, deadline/stall, poisoned state).
    pub failures: u64,
    /// Straggler-hedging retries issued against this shard.
    pub hedges: u64,
    /// Requests whose response excluded this shard (served partial).
    pub excluded: u64,
    /// Times this shard's breaker opened.
    pub breaker_trips: u64,
    /// Breaker status at snapshot time.
    pub breaker_state: BreakerState,
    /// Per-shard traversal latency quantiles (µs, bucket lower bounds)
    /// and sample count, from the same fixed-layout histogram the
    /// end-to-end latencies use.
    pub latency_p50_us: u64,
    pub latency_p95_us: u64,
    pub latency_p99_us: u64,
    pub latency_count: u64,
}

/// Shard-tier section of a [`HealthReport`]: one [`ShardStatReport`] per
/// shard plus the epoch/plan the whole block was snapshotted under.
///
/// The entire block is captured under a single telemetry lock at one
/// catalog epoch and one routing-plan version — a report read mid-churn
/// or mid-rebalance can never mix counters from different epochs or
/// different shard layouts (the PR-6 torn-read discipline applied to
/// observability).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardTierReport {
    /// Catalog epoch the shard set was built from.
    pub epoch: u64,
    /// Routing-plan version (bumped by every `rebalance`).
    pub plan_version: u64,
    pub shards: Vec<ShardStatReport>,
}

/// Live-catalog churn counters, populated from the engine's
/// `SnapshotStore` when the catalog is live and all-zero (with
/// `live_catalog == false`) for a frozen index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// True when the engine serves an epoch-pinned live catalog.
    pub live_catalog: bool,
    /// Epoch a request pinned *now* would observe.
    pub current_epoch: u64,
    /// Epochs published since the store was created (excludes epoch 0).
    pub epochs_published: u64,
    /// Superseded snapshots whose memory has been released.
    pub epochs_reclaimed: u64,
    /// Publish attempts that had to wait for a pinned slot to free.
    pub publish_stalls: u64,
    /// Reader pins that lost a race with a concurrent publish and
    /// retried (bounded, lock-free — never a stall).
    pub pin_retries: u64,
    /// Requests currently holding a pinned epoch.
    pub pinned_now: u64,
    /// Writer panics contained by `apply_resilient` (serving stayed on
    /// the last good epoch).
    pub writer_panics: u64,
    /// Epoch commits that failed to persist (serving stayed on the last
    /// good epoch).
    pub publish_failures: u64,
}

/// Point-in-time health snapshot returned by
/// [`SearchEngine::health_report`](crate::serving::SearchEngine::health_report).
/// (No longer `Copy`: the shard tier contributes a per-shard vector.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthReport {
    /// Requests served through the resilient path.
    pub requests: u64,
    /// End-to-end request latency quantiles (µs) from the log-bucketed
    /// histogram (values are bucket lower bounds — within one bucket
    /// width, ≤ 12.5%, of the exact sample quantile), and the number of
    /// latencies recorded.
    pub latency_p50_us: u64,
    pub latency_p95_us: u64,
    pub latency_p99_us: u64,
    pub latency_count: u64,
    /// Requests whose rewrites came from each ladder rung.
    pub served_cache: u64,
    pub served_student: u64,
    pub served_online: u64,
    pub served_baseline: u64,
    pub served_raw: u64,
    /// Degradation events by cause.
    pub deadline_exceeded: u64,
    pub breaker_rejections: u64,
    pub model_errors: u64,
    pub panics_caught: u64,
    pub empty_outputs: u64,
    pub poisoned_entries: u64,
    pub truncated_queries: u64,
    /// Admission-queue observability (the concurrent serving runtime):
    /// requests rejected because the bounded queue was full, requests shed
    /// at dequeue because their deadline expired while queued, the queue
    /// depth last observed, and its high-water mark.
    pub queue_rejections: u64,
    pub queue_sheds: u64,
    /// Responses served with one or more shards excluded.
    pub partial_results: u64,
    pub queue_depth: u64,
    pub queue_peak_depth: u64,
    /// Cumulative per-stage latency (µs), including synthetic charges.
    pub rewrite_micros: u64,
    pub retrieval_micros: u64,
    pub rank_micros: u64,
    /// Decode telemetry from the online rewriter's model: generated
    /// tokens (steps), decoder token-work, KV-cache hits, and wall-clock
    /// spent decoding (µs).
    pub decode_steps: u64,
    pub decode_tokens: u64,
    pub decode_cache_hits: u64,
    pub decode_micros: u64,
    /// Decode telemetry from the quantized student rung, separated from
    /// the teacher's so student-vs-teacher throughput is directly
    /// comparable in one report.
    pub student_steps: u64,
    pub student_tokens: u64,
    pub student_cache_hits: u64,
    pub student_micros: u64,
    /// Breaker status at snapshot time.
    pub breaker_state: BreakerState,
    pub breaker_opens: u64,
    /// Live-catalog churn counters (all-zero for a frozen index).
    pub churn: ChurnStats,
    /// Scatter-gather shard tier (`None` for a monolithic engine). The
    /// block is snapshotted atomically under one epoch + plan version.
    pub shard_tier: Option<ShardTierReport>,
}

impl HealthReport {
    /// Fraction of requests that got *some* rewrite (any rung above raw).
    pub fn rewrite_coverage(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        let rewritten =
            self.served_cache + self.served_student + self.served_online + self.served_baseline;
        rewritten as f64 / self.requests as f64
    }

    /// Decode throughput of the online rewriter in generated tokens per
    /// second (each decode step emits one token). `0.0` until any decode
    /// time has been recorded.
    pub fn decode_tokens_per_sec(&self) -> f64 {
        if self.decode_micros == 0 {
            return 0.0;
        }
        self.decode_steps as f64 / (self.decode_micros as f64 / 1e6)
    }

    /// Decode throughput of the quantized student rung in generated
    /// tokens per second. `0.0` until the student has decoded.
    pub fn student_tokens_per_sec(&self) -> f64 {
        if self.student_micros == 0 {
            return 0.0;
        }
        self.student_steps as f64 / (self.student_micros as f64 / 1e6)
    }

    /// Student decode throughput relative to the teacher's
    /// ([`student_tokens_per_sec`](Self::student_tokens_per_sec) /
    /// [`decode_tokens_per_sec`](Self::decode_tokens_per_sec)); `0.0`
    /// until both rungs have decoded.
    pub fn student_speedup(&self) -> f64 {
        let teacher = self.decode_tokens_per_sec();
        if teacher == 0.0 {
            return 0.0;
        }
        self.student_tokens_per_sec() / teacher
    }

    /// Fraction of decoder token positions served from the KV cache
    /// rather than recomputed.
    pub fn decode_cache_hit_rate(&self) -> f64 {
        let total = self.decode_tokens + self.decode_cache_hits;
        if total == 0 {
            return 0.0;
        }
        self.decode_cache_hits as f64 / total as f64
    }

    /// Total degradation events recorded.
    pub fn degradations(&self) -> u64 {
        self.deadline_exceeded
            + self.breaker_rejections
            + self.model_errors
            + self.panics_caught
            + self.empty_outputs
            + self.poisoned_entries
            + self.truncated_queries
            + self.queue_rejections
            + self.queue_sheds
            + self.partial_results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up_into_the_report() {
        let c = HealthCounters::default();
        c.record_request();
        c.record_request();
        c.record_source(RewriteSource::Cache);
        c.record_source(RewriteSource::None);
        c.record_error(&ServeError::BreakerOpen);
        c.record_error(&ServeError::ModelPanic { rewriter: "x".into() });
        c.record_stage_latency(Stage::Rank, Duration::from_micros(250));
        let r = c.snapshot(BreakerState::Closed, 0, ChurnStats::default());
        assert_eq!(r.requests, 2);
        assert_eq!(r.served_cache, 1);
        assert_eq!(r.served_raw, 1);
        assert_eq!(r.breaker_rejections, 1);
        assert_eq!(r.panics_caught, 1);
        assert_eq!(r.rank_micros, 250);
        assert_eq!(r.degradations(), 2);
        assert!((r.rewrite_coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_has_zero_coverage() {
        let c = HealthCounters::default();
        let r = c.snapshot(BreakerState::Closed, 0, ChurnStats::default());
        assert_eq!(r.rewrite_coverage(), 0.0);
        assert_eq!(r.degradations(), 0);
        assert_eq!(r.decode_tokens_per_sec(), 0.0);
        assert_eq!(r.decode_cache_hit_rate(), 0.0);
    }

    #[test]
    fn decode_deltas_accumulate_and_derive_throughput() {
        let c = HealthCounters::default();
        c.record_decode(
            RewriteSource::Fallback,
            DecodeStats { steps: 10, tokens: 10, cache_hits: 45 },
            Duration::from_micros(2_000),
        );
        c.record_decode(
            RewriteSource::Fallback,
            DecodeStats { steps: 5, tokens: 5, cache_hits: 10 },
            Duration::from_micros(1_000),
        );
        let r = c.snapshot(BreakerState::Closed, 0, ChurnStats::default());
        assert_eq!(r.decode_steps, 15);
        assert_eq!(r.decode_tokens, 15);
        assert_eq!(r.decode_cache_hits, 55);
        assert_eq!(r.decode_micros, 3_000);
        // 15 tokens over 3 ms -> 5000 tokens/s.
        assert!((r.decode_tokens_per_sec() - 5_000.0).abs() < 1e-9);
        assert!((r.decode_cache_hit_rate() - 55.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn latency_histogram_feeds_report_percentiles() {
        let c = HealthCounters::default();
        for us in [100u64, 200, 300, 400, 10_000] {
            c.record_latency(Duration::from_micros(us));
        }
        let r = c.snapshot(BreakerState::Closed, 0, ChurnStats::default());
        assert_eq!(r.latency_count, 5);
        // p50 lands in the bucket holding 300 µs; quantiles are bucket
        // lower bounds so assert within one 12.5% bucket width.
        assert!(r.latency_p50_us <= 300 && r.latency_p50_us > 300 - 300 / 8);
        assert!(r.latency_p99_us <= 10_000 && r.latency_p99_us > 10_000 - 10_000 / 8);
        assert!(r.latency_p50_us <= r.latency_p95_us);
        assert!(r.latency_p95_us <= r.latency_p99_us);
        // The exported histogram merges exactly with an equal copy.
        let mut merged = c.latency_histogram();
        merged.merge(&c.latency_histogram());
        assert_eq!(merged.count(), 10);
        assert_eq!(merged.quantile(0.5), r.latency_p50_us);
    }

    #[test]
    fn student_decode_telemetry_is_separate_and_derives_speedup() {
        let c = HealthCounters::default();
        c.record_source(RewriteSource::Student);
        // Teacher: 10 tokens in 2 ms (5k tok/s); student: 15 in 1 ms (15k).
        c.record_decode(
            RewriteSource::Fallback,
            DecodeStats { steps: 10, tokens: 10, cache_hits: 45 },
            Duration::from_micros(2_000),
        );
        c.record_decode(
            RewriteSource::Student,
            DecodeStats { steps: 15, tokens: 15, cache_hits: 105 },
            Duration::from_micros(1_000),
        );
        let r = c.snapshot(BreakerState::Closed, 0, ChurnStats::default());
        assert_eq!(r.served_student, 1);
        assert_eq!(r.student_steps, 15);
        assert_eq!(r.student_cache_hits, 105);
        // The teacher block is untouched by student decodes.
        assert_eq!(r.decode_steps, 10);
        assert!((r.student_tokens_per_sec() - 15_000.0).abs() < 1e-9);
        assert!((r.student_speedup() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn partial_results_count_as_degradations() {
        let c = HealthCounters::default();
        c.record_error(&ServeError::PartialResults { shards_ok: 3, shards_total: 4 });
        c.record_error(&ServeError::PartialResults { shards_ok: 1, shards_total: 4 });
        let r = c.snapshot(BreakerState::Closed, 0, ChurnStats::default());
        assert_eq!(r.partial_results, 2);
        assert_eq!(r.degradations(), 2);
        assert_eq!(r.shard_tier, None, "monolithic snapshot carries no shard tier");
    }

    #[test]
    fn queue_events_and_depth_gauge() {
        let c = HealthCounters::default();
        c.record_error(&ServeError::QueueFull { capacity: 8 });
        c.record_error(&ServeError::QueueFull { capacity: 8 });
        c.record_error(&ServeError::ExpiredInQueue);
        c.record_queue_depth(5);
        c.record_queue_depth(2);
        let r = c.snapshot(BreakerState::Closed, 0, ChurnStats::default());
        assert_eq!(r.queue_rejections, 2);
        assert_eq!(r.queue_sheds, 1);
        assert_eq!(r.queue_depth, 2);
        assert_eq!(r.queue_peak_depth, 5);
        assert_eq!(r.degradations(), 3);
    }

    /// The depth/peak gauge pair must never tear: with writers hammering
    /// `record_queue_depth` (enqueues racing dequeue sheds), every
    /// concurrent snapshot must satisfy `depth <= peak` and observe a
    /// monotone peak. The old two-counter scheme (`store` + `fetch_max`)
    /// fails this; the packed single-word gauge cannot.
    #[test]
    fn queue_gauge_pair_never_tears_under_concurrency() {
        let c = std::sync::Arc::new(HealthCounters::default());
        let writers = 4;
        let rounds = 2_000u64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    // Deterministic per-writer depth pattern: ramps up and
                    // down like enqueues racing sheds.
                    for i in 0..rounds {
                        let depth = (i * (w + 1)) % 97;
                        c.record_queue_depth(depth);
                    }
                });
            }
            let c = std::sync::Arc::clone(&c);
            scope.spawn(move || {
                let mut last_peak = 0;
                for _ in 0..rounds {
                    let r = c.snapshot(BreakerState::Closed, 0, ChurnStats::default());
                    assert!(
                        r.queue_depth <= r.queue_peak_depth,
                        "torn gauge pair: depth {} > peak {}",
                        r.queue_depth,
                        r.queue_peak_depth
                    );
                    assert!(r.queue_peak_depth >= last_peak, "peak went backwards");
                    last_peak = r.queue_peak_depth;
                }
            });
        });
        let r = c.snapshot(BreakerState::Closed, 0, ChurnStats::default());
        assert_eq!(r.queue_peak_depth, 96);
    }
}
