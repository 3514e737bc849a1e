//! Sharded admission control: a global budget over per-shard FIFOs.
//!
//! Overload policy follows the Tail-at-Scale playbook: a full queue
//! **rejects at submit** (`ServeError::QueueFull`) instead of queueing
//! unboundedly, and a request whose deadline expired while it waited is
//! **shed at dequeue** (`ServeError::ExpiredInQueue`) instead of being
//! served dead on arrival. Both are typed errors the runtime records into
//! the engine's `health_report()`.
//!
//! [`AdmissionQueue`] is the front-end over `shards` bounded FIFOs, one
//! `Mutex<VecDeque<Pending>>` per scheduler shard. Requests move through
//! them by value: `push` moves a [`Pending`] into its shard's FIFO and
//! `next_batch` moves it out into the worker's [`BatchBuf`], so a request
//! can be dequeued at most once by construction.
//!
//! * **Admission** is a single global budget (`capacity`): one atomic
//!   counter admits or rejects, so backpressure semantics — and the
//!   deterministic "exactly the overflow is rejected" replay contract —
//!   do not depend on the shard count. Every shard FIFO is preallocated
//!   to the full budget, so an admitted request can never find its FIFO
//!   full and a push never reallocates.
//! * **Routing** hashes the query tokens with the same FNV-1a family used
//!   by `RewriteCache` and `ShardedIndex`
//!   ([`fnv1a_tokens`]), so identical
//!   in-flight queries land on the same shard and decode-slot coalescing
//!   stays shard-local.
//! * **Dequeue** is per-shard and strictly FIFO: a worker drains its home
//!   shard's oldest requests into a micro-batch (the
//!   `max_batch`/`max_wait_ticks` policy, applied per shard) and
//!   **steals** the oldest requests of the first non-empty sibling only
//!   when its home runs dry, so a stalled shard's backlog migrates before
//!   it expires.
//!
//! The queue depth is decremented *at the dequeue event itself* (the same
//! atomic that admits), and the depth/peak gauge pair lives in one packed
//! word inside `HealthCounters` — a `health_report()` can no longer
//! observe a torn `depth > peak` pair while another worker sheds
//! (the PR-8 `ShardTierReport` single-snapshot discipline, applied here).
//!
//! Nothing on this path allocates in steady state: the FIFOs are
//! preallocated and batch buffers are reused across batches
//! (`tests/zero_alloc.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Duration;

use qrw_search::{DeadlineBudget, ServeError};
use qrw_tensor::sync::Mutex;

use crate::batch::fnv1a_tokens;
use crate::runtime::ServedRecord;

/// One admitted request waiting to be scheduled.
pub struct Pending {
    /// Submission-order id (also the key results are sorted by).
    pub id: u64,
    pub query: Vec<String>,
    /// The user's previous in-session queries, oldest first. Empty for
    /// single-shot requests; the session serving path conditions the
    /// model (and scopes the cache) on it.
    pub context: Vec<Vec<String>>,
    pub budget: DeadlineBudget,
    /// Present for closed-loop callers blocked on the response.
    pub slot: Option<Arc<ResponseSlot>>,
    /// Tracer timestamp taken at admission — the start of the request's
    /// `queue_wait` span. `None` when the runtime has no tracer.
    pub admitted_us: Option<u64>,
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending")
            .field("id", &self.id)
            .field("query", &self.query)
            .field("context", &self.context)
            .field("closed_loop", &self.slot.is_some())
            .finish_non_exhaustive()
    }
}

/// A worker's reusable batch-formation buffers. Allocated once per worker
/// (capacity `max_batch`), reused for every batch it forms.
pub struct BatchBuf {
    /// The formed batch, in dequeue order.
    pub items: Vec<Pending>,
    /// `Some(victim)` when this batch was stolen from another shard's
    /// FIFO (a batch is either all-home or all-stolen-from-one-victim).
    pub stolen_from: Option<usize>,
    /// Queue depth right after this batch was dequeued — the value the
    /// runtime reports to the depth gauge, captured at the event instead
    /// of re-read later.
    pub depth_after: usize,
}

impl BatchBuf {
    pub fn new(max_batch: usize) -> Self {
        let cap = max_batch.max(1);
        BatchBuf {
            items: Vec::with_capacity(cap),
            stolen_from: None,
            depth_after: 0,
        }
    }
}

/// The bounded, sharded front-end between submitters and the workers.
pub struct AdmissionQueue {
    /// One bounded FIFO per scheduler shard, each preallocated to the
    /// full budget.
    shards: Box<[Mutex<VecDeque<Pending>>]>,
    /// Requests admitted but not yet dequeued — the global budget.
    queued: AtomicU64,
    capacity: usize,
    control: Mutex<bool>,
    wake: Condvar,
}

impl AdmissionQueue {
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let shards = shards.max(1);
        // Every FIFO holds the full budget: routing skew can never
        // overflow a shard that admission let through.
        let shards = (0..shards)
            .map(|_| Mutex::new(VecDeque::with_capacity(capacity)))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        AdmissionQueue {
            shards,
            queued: AtomicU64::new(0),
            capacity,
            control: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Requests currently queued (admitted, not yet dequeued).
    pub fn depth(&self) -> usize {
        self.queued.load(Ordering::Acquire) as usize
    }

    /// The home shard for a query: FNV-1a over the tokens — the same hash
    /// family `RewriteCache` and `ShardedIndex` key on — modulo the shard
    /// count.
    pub fn route(&self, query: &[String]) -> usize {
        (fnv1a_tokens(query) % self.shards.len() as u64) as usize
    }

    /// Admits a request onto its home shard, returning `(shard, depth)`
    /// after the enqueue; at capacity the request is handed back with the
    /// typed rejection (no clone on either path).
    #[allow(clippy::result_large_err)] // handing the Pending back by value IS the no-clone contract
    pub fn push(&self, pending: Pending) -> Result<(usize, usize), (Pending, ServeError)> {
        let shard = self.route(&pending.query);
        self.push_to(shard, pending).map(|depth| (shard, depth))
    }

    /// [`push`](Self::push) with explicit routing — tests and fault drills
    /// use it to aim load at a specific shard.
    #[allow(clippy::result_large_err)] // see `push`
    pub fn push_to(&self, shard: usize, pending: Pending) -> Result<usize, (Pending, ServeError)> {
        debug_assert!(shard < self.shards.len());
        // The single global budget: admission does not depend on routing,
        // so rejection behaviour is byte-identical to the pre-shard queue.
        let admitted = self.queued.fetch_update(Ordering::AcqRel, Ordering::Acquire, |q| {
            if q as usize >= self.capacity {
                None
            } else {
                Some(q + 1)
            }
        });
        if admitted.is_err() {
            return Err((pending, ServeError::QueueFull { capacity: self.capacity }));
        }
        let depth = admitted.unwrap() as usize + 1;
        {
            let mut fifo = self.shards[shard].lock();
            debug_assert!(fifo.len() < self.capacity, "admission budget must bound the FIFO");
            fifo.push_back(pending);
        }
        self.wake.notify_all();
        Ok(depth)
    }

    /// No more submissions: workers drain what is queued, then exit.
    pub fn close(&self) {
        *self.control.lock() = true;
        self.wake.notify_all();
    }

    /// Reopens a queue closed by a previous run (runtimes are reusable).
    pub fn reopen(&self) {
        *self.control.lock() = false;
    }

    fn is_closed(&self) -> bool {
        *self.control.lock()
    }

    fn wait_tick(&self, tick: Duration) {
        let guard = self.control.lock();
        drop(
            self.wake
                .wait_timeout(guard, tick)
                .unwrap_or_else(PoisonError::into_inner)
                .0,
        );
    }

    /// One idle heartbeat for a worker that is not taking work (the stall
    /// fault drill): waits up to a tick, then reports whether the
    /// scheduler is closed and fully drained — the signal to exit.
    pub fn park_tick(&self, tick: Duration) -> bool {
        if self.is_closed() && self.depth() == 0 {
            return true;
        }
        self.wait_tick(tick);
        self.is_closed() && self.depth() == 0
    }

    /// Moves up to `n` of `shard`'s oldest requests onto `out`, returning
    /// how many moved.
    fn take_oldest(&self, shard: usize, n: usize, out: &mut Vec<Pending>) -> usize {
        let mut fifo = self.shards[shard].lock();
        let got = n.min(fifo.len());
        out.extend(fifo.drain(..got));
        got
    }

    /// Blocks for the next micro-batch on `home`, filling `buf`. A batch
    /// comes from the home FIFO, oldest first, when it has work; after
    /// the first request is available, the worker waits at most
    /// `max_wait_ticks` ticks for the batch to fill before dispatching
    /// what it has. When home is dry the worker **steals** the oldest
    /// requests from the first non-empty sibling FIFO instead. Returns
    /// `false` once the queue is closed and drained — the worker's signal
    /// to exit.
    pub fn next_batch(
        &self,
        home: usize,
        max_batch: usize,
        max_wait_ticks: u32,
        tick: Duration,
        buf: &mut BatchBuf,
    ) -> bool {
        let max_batch = max_batch.max(1);
        buf.items.clear();
        buf.stolen_from = None;
        loop {
            self.take_oldest(home, max_batch, &mut buf.items);
            if buf.items.is_empty() {
                let shards = self.shards.len();
                for off in 1..shards {
                    let victim = (home + off) % shards;
                    if self.take_oldest(victim, max_batch, &mut buf.items) > 0 {
                        buf.stolen_from = Some(victim);
                        break;
                    }
                }
            }
            if !buf.items.is_empty() {
                if buf.stolen_from.is_none() {
                    // Dynamic batching: something is ready; trade a
                    // bounded wait for a fuller (cheaper per request)
                    // batch, but never hold a closed queue's stragglers
                    // back. Stolen batches dispatch immediately — rescue
                    // is urgent.
                    let mut waited = 0;
                    while buf.items.len() < max_batch
                        && waited < max_wait_ticks
                        && !self.is_closed()
                    {
                        self.wait_tick(tick);
                        self.take_oldest(home, max_batch - buf.items.len(), &mut buf.items);
                        waited += 1;
                    }
                }
                // Depth drops at the dequeue event; the gauge value the
                // runtime reports is captured here, not re-read later.
                self.queued.fetch_sub(buf.items.len() as u64, Ordering::AcqRel);
                buf.depth_after = self.depth();
                return true;
            }
            if self.is_closed() && self.depth() == 0 {
                return false;
            }
            self.wait_tick(tick);
        }
    }
}

/// A one-shot rendezvous a closed-loop caller blocks on until a worker
/// publishes the request's record.
pub struct ResponseSlot {
    result: Mutex<Option<ServedRecord>>,
    ready: Condvar,
}

impl Default for ResponseSlot {
    fn default() -> Self {
        ResponseSlot { result: Mutex::new(None), ready: Condvar::new() }
    }
}

impl ResponseSlot {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the record and wakes the waiter.
    pub fn complete(&self, record: ServedRecord) {
        *self.result.lock() = Some(record);
        self.ready.notify_all();
    }

    /// Blocks until the record is published.
    pub fn wait(&self) -> ServedRecord {
        let mut guard = self.result.lock();
        loop {
            if let Some(record) = guard.take() {
                return record;
            }
            guard = self.ready.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_micros(10);

    fn pending(id: u64) -> Pending {
        Pending {
            id,
            query: vec![format!("q{id}")],
            context: Vec::new(),
            budget: DeadlineBudget::unlimited(),
            slot: None,
            admitted_us: None,
        }
    }

    fn ids(buf: &mut BatchBuf) -> Vec<u64> {
        buf.items.drain(..).map(|p| p.id).collect()
    }

    #[test]
    fn rejects_when_full() {
        let q = AdmissionQueue::new(2, 2);
        assert!(q.push(pending(0)).is_ok());
        assert!(q.push(pending(1)).is_ok());
        let (back, err) = q.push(pending(2)).unwrap_err();
        assert_eq!(back.id, 2);
        assert_eq!(err, ServeError::QueueFull { capacity: 2 });
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn batches_respect_max_batch_and_fifo_order() {
        let q = AdmissionQueue::new(8, 1);
        for i in 0..5 {
            q.push_to(0, pending(i)).unwrap();
        }
        let mut buf = BatchBuf::new(3);
        assert!(q.next_batch(0, 3, 0, TICK, &mut buf));
        assert_eq!(ids(&mut buf), vec![0, 1, 2]);
        assert_eq!(buf.depth_after, 2);
        assert!(q.next_batch(0, 3, 0, TICK, &mut buf));
        assert_eq!(ids(&mut buf), vec![3, 4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let q = AdmissionQueue::new(8, 4);
        let query = vec!["red".to_string(), "dress".to_string()];
        let shard = q.route(&query);
        assert!(shard < 4);
        assert_eq!(shard, q.route(&query));
        assert_eq!(q.route(&query), (fnv1a_tokens(&query) % 4) as usize);
    }

    #[test]
    fn dry_home_steals_oldest_from_sibling() {
        let q = AdmissionQueue::new(8, 2);
        for i in 0..4 {
            q.push_to(1, pending(i)).unwrap();
        }
        let mut buf = BatchBuf::new(2);
        // Worker homed on shard 0 finds it dry and steals from shard 1:
        // the oldest backlog goes first.
        assert!(q.next_batch(0, 2, 0, TICK, &mut buf));
        assert_eq!(buf.stolen_from, Some(1));
        assert_eq!(ids(&mut buf), vec![0, 1]);
        assert!(q.next_batch(1, 4, 0, TICK, &mut buf));
        assert_eq!(buf.stolen_from, None);
        assert_eq!(ids(&mut buf), vec![2, 3]);
    }

    #[test]
    fn backlog_drains_in_arrival_order() {
        let q = AdmissionQueue::new(8, 1);
        for i in 0..4 {
            q.push_to(0, pending(i)).unwrap();
        }
        let mut buf = BatchBuf::new(3);
        assert!(q.next_batch(0, 2, 0, TICK, &mut buf));
        assert_eq!(ids(&mut buf), vec![0, 1]);
        // A new arrival queues behind the older backlog, never ahead of it.
        q.push_to(0, pending(4)).unwrap();
        assert!(q.next_batch(0, 3, 0, TICK, &mut buf));
        assert_eq!(ids(&mut buf), vec![2, 3, 4]);
    }

    #[test]
    fn shard_fifos_never_grow_past_the_budget() {
        let q = AdmissionQueue::new(4, 2);
        let preallocated: Vec<usize> = q.shards.iter().map(|f| f.lock().capacity()).collect();
        let mut buf = BatchBuf::new(4);
        for round in 0..64u64 {
            // Everything onto one shard: routing skew up to the full budget.
            for i in 0..4 {
                q.push_to((round % 2) as usize, pending(round * 4 + i)).unwrap();
            }
            assert!(q.next_batch(0, 4, 0, TICK, &mut buf));
            assert_eq!(ids(&mut buf), (round * 4..round * 4 + 4).collect::<Vec<_>>());
        }
        let after: Vec<usize> = q.shards.iter().map(|f| f.lock().capacity()).collect();
        assert_eq!(preallocated, after);
    }

    #[test]
    fn closed_and_drained_returns_false() {
        let q = AdmissionQueue::new(4, 2);
        q.push(pending(0)).unwrap();
        q.close();
        let mut buf = BatchBuf::new(4);
        let home = q.route(&pending(0).query);
        assert!(q.next_batch(home, 4, 2, TICK, &mut buf));
        assert_eq!(buf.items.len(), 1);
        assert!(!q.next_batch(home, 4, 2, TICK, &mut buf));
        assert!(q.park_tick(TICK));
        q.reopen();
        q.push(pending(1)).unwrap();
        assert!(q.next_batch(0, 4, 0, TICK, &mut buf));
    }

    #[test]
    fn waiting_worker_wakes_on_push() {
        let q = Arc::new(AdmissionQueue::new(4, 2));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || {
            let mut buf = BatchBuf::new(4);
            // Either home pop or steal finds it, whichever shard it lands on.
            assert!(q2.next_batch(0, 4, 0, Duration::from_millis(1), &mut buf));
            buf.items.len()
        });
        std::thread::sleep(Duration::from_millis(5));
        q.push(pending(0)).unwrap();
        assert_eq!(handle.join().unwrap(), 1);
    }

    #[test]
    fn depth_decrements_at_dequeue_not_at_fulfil() {
        let q = AdmissionQueue::new(8, 1);
        for i in 0..3 {
            q.push(pending(i)).unwrap();
        }
        assert_eq!(q.depth(), 3);
        let mut buf = BatchBuf::new(8);
        assert!(q.next_batch(0, 8, 0, TICK, &mut buf));
        // The batch is still in flight (not fulfilled), but it left the
        // queue: depth reflects the dequeue event.
        assert_eq!(q.depth(), 0);
        assert_eq!(buf.depth_after, 0);
        assert_eq!(buf.items.len(), 3);
    }
}
