//! Per-request deadline budgets.
//!
//! The paper's serving SLA ("100 queries per second ... online latency
//! within 100ms", §III-G) means every stage must be able to answer "do I
//! still have time?" and degrade instead of overrunning. A
//! [`DeadlineBudget`] is created per request and threaded through
//! rewrite → retrieval → rank.
//!
//! Time comes from a [`Clock`]: the monotonic wall clock for the real
//! serving runtime, or a synthetic clock that only advances through
//! explicit [`DeadlineBudget::charge`]s — so shed/expiry tests are
//! sleep-free and fully deterministic regardless of machine speed or how
//! long a request actually sat in a queue. Both clocks accept synthetic
//! charges on top (the fault injector charges simulated latency spikes
//! without sleeping).

use std::cell::Cell;
use std::time::{Duration, Instant};

/// Where a [`DeadlineBudget`] reads elapsed time from.
#[derive(Clone, Copy, Debug)]
pub enum Clock {
    /// Real monotonic time since the given origin (the serving runtime).
    Monotonic(Instant),
    /// No ambient time: only synthetic charges advance the budget
    /// (deterministic tests and replayed workloads).
    Synthetic,
}

impl Clock {
    /// A monotonic clock starting now.
    pub fn monotonic() -> Self {
        Clock::Monotonic(Instant::now())
    }

    /// A clock that never advances on its own.
    pub fn synthetic() -> Self {
        Clock::Synthetic
    }

    /// Ambient elapsed time (zero for the synthetic clock).
    pub fn elapsed(&self) -> Duration {
        match self {
            Clock::Monotonic(origin) => origin.elapsed(),
            Clock::Synthetic => Duration::ZERO,
        }
    }
}

/// A per-request time budget. Cheap to create; not shared across threads.
#[derive(Clone, Debug)]
pub struct DeadlineBudget {
    clock: Clock,
    total: Option<Duration>,
    /// Simulated latency charged on top of the clock's elapsed time.
    synthetic: Cell<Duration>,
}

impl DeadlineBudget {
    /// A budget of `total` starting now on the monotonic wall clock.
    pub fn new(total: Duration) -> Self {
        Self::with_clock(Clock::monotonic(), Some(total))
    }

    /// A budget that never expires (offline evaluation, tests).
    pub fn unlimited() -> Self {
        Self::with_clock(Clock::monotonic(), None)
    }

    /// A budget of `total` on the synthetic clock: it expires only through
    /// explicit [`Self::charge`]s, never by wall time passing. Scheduler
    /// determinism tests use this so shed decisions don't depend on how
    /// fast the machine drains the queue.
    pub fn synthetic(total: Duration) -> Self {
        Self::with_clock(Clock::synthetic(), Some(total))
    }

    /// A budget on an explicit clock; `None` never expires.
    pub fn with_clock(clock: Clock, total: Option<Duration>) -> Self {
        DeadlineBudget { clock, total, synthetic: Cell::new(Duration::ZERO) }
    }

    /// Clock elapsed time plus any synthetic charges.
    pub fn elapsed(&self) -> Duration {
        self.clock.elapsed() + self.synthetic.get()
    }

    /// Time left, or `None` when unlimited. Saturates at zero.
    pub fn remaining(&self) -> Option<Duration> {
        self.total.map(|t| t.saturating_sub(self.elapsed()))
    }

    /// Whether the budget has run out.
    pub fn expired(&self) -> bool {
        matches!(self.remaining(), Some(Duration::ZERO))
    }

    /// True when at least `d` is left (always true for unlimited budgets).
    pub fn has_at_least(&self, d: Duration) -> bool {
        match self.remaining() {
            None => true,
            Some(r) => r >= d,
        }
    }

    /// Charges simulated latency against the budget without sleeping.
    pub fn charge(&self, d: Duration) {
        self.synthetic.set(self.synthetic.get() + d);
    }

    /// True when the budget runs on the synthetic clock (only explicit
    /// charges advance it). Slices inherit their parent's clock kind.
    pub fn is_synthetic(&self) -> bool {
        matches!(self.clock, Clock::Synthetic)
    }

    /// A fresh budget covering this budget's remaining time, on the same
    /// *kind* of clock, with no synthetic charges carried over (a
    /// [`slice_with`](Self::slice_with) of the whole remainder).
    pub fn slice(&self) -> DeadlineBudget {
        self.slice_with(self.remaining())
    }

    /// Synthetic charges accumulated so far (what slice consumers report
    /// back to the parent budget).
    pub fn synthetic_spent(&self) -> Duration {
        self.synthetic.get()
    }

    /// A fresh budget of `allowance` (`None` never expires) on the same
    /// *kind* of clock, starting now, with no synthetic charges. Each
    /// scatter shard gets its own slice — the allowance fixed once per
    /// phase, so shards run one after another still get equal slices —
    /// and the parent is charged back at most that allowance: a shard is
    /// cut off at its slice deadline, however long it would have stalled.
    pub fn slice_with(&self, allowance: Option<Duration>) -> DeadlineBudget {
        let clock =
            if self.is_synthetic() { Clock::synthetic() } else { Clock::monotonic() };
        DeadlineBudget::with_clock(clock, allowance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = DeadlineBudget::unlimited();
        b.charge(Duration::from_secs(3600));
        assert!(!b.expired());
        assert!(b.has_at_least(Duration::from_secs(1)));
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn synthetic_charge_expires_budget() {
        let b = DeadlineBudget::new(Duration::from_millis(100));
        assert!(!b.expired());
        b.charge(Duration::from_millis(40));
        assert!(b.has_at_least(Duration::from_millis(10)));
        b.charge(Duration::from_millis(70));
        assert!(b.expired());
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn elapsed_includes_both_clocks() {
        let b = DeadlineBudget::new(Duration::from_secs(10));
        b.charge(Duration::from_millis(5));
        assert!(b.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn synthetic_clock_ignores_wall_time() {
        let b = DeadlineBudget::synthetic(Duration::from_nanos(1));
        // However long this test takes, only charges advance the budget.
        std::thread::sleep(Duration::from_millis(2));
        assert!(!b.expired());
        assert_eq!(b.remaining(), Some(Duration::from_nanos(1)));
        b.charge(Duration::from_nanos(1));
        assert!(b.expired());
    }

    #[test]
    fn slice_covers_remaining_and_keeps_clock_kind() {
        let b = DeadlineBudget::synthetic(Duration::from_millis(100));
        b.charge(Duration::from_millis(30));
        let s = b.slice();
        assert!(s.is_synthetic());
        assert_eq!(s.remaining(), Some(Duration::from_millis(70)));
        assert_eq!(s.synthetic_spent(), Duration::ZERO);
        // Charging the slice does not touch the parent.
        s.charge(Duration::from_millis(50));
        assert_eq!(b.remaining(), Some(Duration::from_millis(70)));
        assert_eq!(s.synthetic_spent(), Duration::from_millis(50));

        // An explicit allowance ignores the parent's remainder.
        let s = b.slice_with(Some(Duration::from_millis(35)));
        assert!(s.is_synthetic());
        assert_eq!(s.remaining(), Some(Duration::from_millis(35)));

        let unlimited = DeadlineBudget::unlimited();
        let s = unlimited.slice();
        assert!(!s.is_synthetic());
        assert_eq!(s.remaining(), None);
    }

    #[test]
    fn synthetic_zero_budget_is_born_expired() {
        let b = DeadlineBudget::synthetic(Duration::ZERO);
        assert!(b.expired());
    }
}
