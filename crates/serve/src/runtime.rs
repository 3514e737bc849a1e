//! The serving runtime: an actor-style mailbox scheduler over a shared
//! engine.
//!
//! Each of `config.shards` scheduler shards owns a bounded MPSC mailbox
//! inside the [`AdmissionQueue`](crate::AdmissionQueue); submissions route
//! to shards by FNV-1a of the query tokens (the family `RewriteCache` and
//! `ShardedIndex` key on), so identical in-flight queries meet on one
//! shard and decode-slot coalescing stays shard-local. Workers are homed
//! to shards round-robin; each drains its home mailbox into dynamic
//! micro-batches (the `max_batch`/`max_wait_ticks` policy, applied per
//! shard) and **steals the oldest backlog** from sibling mailboxes when
//! its home runs dry — the only cross-shard traffic besides the shared
//! teacher decode.
//!
//! Per batch: expired requests are shed, cache-miss requests are decoded
//! *together* through one [`BatchedQ2Q::rewrite_batch`] call, and then
//! **every** request — hit or miss, home or stolen — is served through
//! `SearchEngine::search_resilient` itself, with the batch-decode output
//! replayed as the online rung. The engine path, rung attribution,
//! degradation events, and breaker bookkeeping are therefore identical to
//! a standalone serve, which is what makes batching — and scheduling —
//! byte-transparent: rewrites are a pure function of the query, so shard
//! count, batch composition, and steal decisions can never change a
//! response's bits (`tests/scheduler_invariants.rs` proves it at shard
//! counts {1,2,4} × {1,4} workers).
//!
//! # Steady state allocates nothing
//!
//! The scheduler data plane — admission budget, slot arena, mailbox
//! rings, batch buffers, shed/fulfil accounting — is preallocated and
//! reused; after warm-up a request travels submit → mailbox → batch →
//! outcome without a single heap allocation (`tests/zero_alloc.rs`
//! enforces 0 allocations per steady-state request with a counting
//! `#[global_allocator]`). The documented escape hatches are the cold or
//! caller-side paths: model epoch swaps, the closed-loop rendezvous
//! `Arc`, tracer spans, and the engine's decode/retrieval stages.
//!
//! # Tracing
//!
//! When the engine carries a [`Tracer`](qrw_obs::Tracer), the runtime
//! records each request's lifecycle as a trace keyed by the request id:
//! an `admit` span at submission, a `queue_wait` span spanning
//! admission → dequeue, the engine's `serve` tree (ladder rungs,
//! retrieval, rank), and exactly one terminal span — `served`, `shed`,
//! `rejected`, or (only under injected worker faults) `failed`.
//! Scheduling-dependent work lands in separate **minted** traces so
//! per-request structure stays invariant across shard and worker counts:
//! `mailbox_enqueue` (routing decision per admitted request), and per
//! batch a `batch_form` root with optional `steal`, `student_decode` and
//! `decode` children. Tests assert both (`tests/trace_invariants.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qrw_core::QueryRewriter;
use qrw_obs::taxonomy::{BATCH_FORM, MAILBOX_ENQUEUE, STEAL};
use qrw_search::{
    plan_online, DeadlineBudget, ModelStore, RewriteCache, RewriteLadder, SearchEngine,
    SearchResponse, ServeError, ServingConfig, SessionState,
};
use qrw_tensor::sync::Mutex;

use crate::batch::{BatchedQ2Q, PanicOnline, PrecomputedOnline, StudentOnline};
use crate::queue::{AdmissionQueue, BatchBuf, Pending, ResponseSlot};

/// Scheduler and pool knobs.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Admission budget across all mailboxes; submissions beyond it are
    /// rejected.
    pub queue_capacity: usize,
    /// Largest micro-batch a worker will assemble.
    pub max_batch: usize,
    /// How many extra ticks a worker waits for a partial batch to fill.
    pub max_wait_ticks: u32,
    /// Scheduler tick (condvar wait quantum).
    pub tick: Duration,
    /// Worker-pool size. Workers are homed to shards round-robin
    /// (worker *w* owns shard *w* mod `shards`) and all of them steal.
    pub workers: usize,
    /// Scheduler shards (one bounded mailbox each). Shard choice never
    /// affects response bytes — only locality and contention.
    pub shards: usize,
    pub serving: ServingConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            queue_capacity: 64,
            max_batch: 8,
            max_wait_ticks: 2,
            tick: Duration::from_micros(200),
            workers: 2,
            shards: 2,
            serving: ServingConfig::default(),
        }
    }
}

/// Deterministic scheduler-level fault drills. Default: none. Tests aim
/// these at specific shards/requests to prove containment and rescue.
#[derive(Clone, Debug, Default)]
pub struct SchedFaults {
    /// Workers homed to these shards take no work (a wedged core): their
    /// mailbox backlog must be rescued by sibling stealers. The stalled
    /// worker still exits cleanly once the queue is closed and drained.
    pub stall_shards: Vec<usize>,
    /// Request ids whose serve call panics *inside the worker*, past the
    /// engine's own guards — the panic must be contained to the in-flight
    /// batch (the request fails, the worker and its shard live on).
    pub panic_on_ids: Vec<u64>,
}

/// Everything a worker needs to serve a request, shared read-only.
/// Cloning a `ServeStack` clones `Arc`s, never weights.
#[derive(Clone)]
pub struct ServeStack {
    pub engine: Arc<SearchEngine>,
    /// Rung 1: the precomputed rewrite cache.
    pub cache: Option<Arc<RewriteCache>>,
    /// Rung 2: the quantized distilled student — the preferred online
    /// model. Decode-misses it serves never reach the teacher's batched
    /// decode.
    pub student: Option<Arc<StudentOnline>>,
    /// Rung 3: the batch-capable online model (the teacher-backed
    /// fallback behind the student).
    pub online: Option<Arc<BatchedQ2Q>>,
    /// Rung 4: the rule-based fallback.
    pub baseline: Option<Arc<dyn QueryRewriter + Send + Sync>>,
    /// The hot-swappable session-model store. When present the runtime
    /// serves every request through the **session path**: the worker
    /// pins exactly one model epoch for the whole ladder walk
    /// (bypassing the shared-teacher batch decode — the pinned model is
    /// the online rung) and stamps the epoch on the response. `None`
    /// keeps the legacy batched path byte-for-byte.
    pub models: Option<Arc<ModelStore>>,
}

/// How a request left the runtime.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Served through the full engine path.
    Served(SearchResponse),
    /// Dequeued with an expired deadline and dropped.
    Shed(ServeError),
    /// Never admitted: the queue was full at submit.
    Rejected(ServeError),
    /// The worker panicked while serving this request (scheduler-level
    /// fault, past the engine's own guards); the panic was contained to
    /// the in-flight batch and the worker kept running.
    Failed(ServeError),
}

/// One request's final accounting.
#[derive(Clone, Debug)]
pub struct ServedRecord {
    pub id: u64,
    pub query: Vec<String>,
    pub outcome: Outcome,
    /// Budget-observed latency: submit → outcome (synthetic clocks report
    /// only charged time, keeping shed tests sleep-free).
    pub latency: Duration,
}

impl ServedRecord {
    pub fn response(&self) -> Option<&SearchResponse> {
        match &self.outcome {
            Outcome::Served(resp) => Some(resp),
            _ => None,
        }
    }
}

/// The concurrent serving runtime.
pub struct Runtime {
    stack: ServeStack,
    config: RuntimeConfig,
    queue: AdmissionQueue,
    results: Mutex<Vec<ServedRecord>>,
    next_id: AtomicU64,
    faults: Mutex<SchedFaults>,
}

impl Runtime {
    pub fn new(stack: ServeStack, config: RuntimeConfig) -> Self {
        let queue = AdmissionQueue::new(config.queue_capacity, config.shards.max(1));
        Runtime {
            stack,
            config,
            queue,
            results: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            faults: Mutex::new(SchedFaults::default()),
        }
    }

    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    pub fn stack(&self) -> &ServeStack {
        &self.stack
    }

    /// Arms deterministic scheduler fault drills for the next run.
    pub fn set_sched_faults(&self, faults: SchedFaults) {
        *self.faults.lock() = faults;
    }

    /// Pre-reserves result storage. Steady-state publishes then never
    /// grow the vec — the zero-alloc drill sizes it to the exact request
    /// count; production callers may ignore it (growth is amortised).
    pub fn reserve_results(&self, additional: usize) {
        self.results.lock().reserve(additional);
    }

    /// Records published so far (any terminal outcome). Open-loop drivers
    /// poll this to detect drain without a closed-loop rendezvous.
    pub fn results_len(&self) -> usize {
        self.results.lock().len()
    }

    /// Open-loop submission: enqueue and return the request id, or the
    /// typed rejection. Rejections are recorded (health counters and a
    /// `Rejected` record) here, at admission time.
    pub fn submit(&self, query: Vec<String>, budget: DeadlineBudget) -> Result<u64, ServeError> {
        self.submit_session(query, Vec::new(), budget)
    }

    /// [`submit`](Self::submit) with the user's previous in-session
    /// queries (oldest first). The session path conditions the pinned
    /// model on the context and scopes cache lookups by it.
    pub fn submit_session(
        &self,
        query: Vec<String>,
        context: Vec<Vec<String>>,
        budget: DeadlineBudget,
    ) -> Result<u64, ServeError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.enqueue(id, query, context, budget, None).map(|_| id)
    }

    /// Closed-loop call: enqueue and block until the request's record is
    /// published (or return the rejection record immediately).
    pub fn call(&self, query: Vec<String>, budget: DeadlineBudget) -> ServedRecord {
        self.call_session(query, Vec::new(), budget)
    }

    /// [`call`](Self::call) with session context.
    pub fn call_session(
        &self,
        query: Vec<String>,
        context: Vec<Vec<String>>,
        budget: DeadlineBudget,
    ) -> ServedRecord {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(ResponseSlot::new());
        match self.enqueue(id, query, context, budget, Some(Arc::clone(&slot))) {
            Ok(()) => slot.wait(),
            Err(_) => {
                let results = self.results.lock();
                results.iter().rev().find(|r| r.id == id).cloned().expect("rejection recorded")
            }
        }
    }

    fn enqueue(
        &self,
        id: u64,
        query: Vec<String>,
        context: Vec<Vec<String>>,
        budget: DeadlineBudget,
        slot: Option<Arc<ResponseSlot>>,
    ) -> Result<(), ServeError> {
        let tracer = self.stack.engine.tracer();
        // The admit span and the queue-wait start timestamp must exist
        // before the push: once the Pending is queued a worker may dequeue
        // it immediately.
        let mut admit = tracer.map(|t| t.span(id, None, "admit"));
        let admitted_us = tracer.map(|t| t.now_us());
        match self.queue.push(Pending { id, query, context, budget, slot, admitted_us }) {
            Ok((shard, depth)) => {
                if let Some(s) = admit.as_mut() {
                    s.attr("outcome", "queued");
                    s.attr("depth", depth);
                }
                // The routing decision is scheduling detail: it lands in a
                // minted trace so per-request trees stay invariant across
                // shard counts.
                if let Some(t) = tracer {
                    let mut s = t.span(t.next_trace(), None, MAILBOX_ENQUEUE);
                    s.attr("id", id as usize);
                    s.attr("shard", shard);
                    s.attr("depth", depth);
                }
                self.stack.engine.record_queue_depth(depth);
                Ok(())
            }
            Err((back, err)) => {
                if let Some(mut s) = admit.take() {
                    s.attr("outcome", "rejected");
                    s.finish();
                }
                if let Some(t) = tracer {
                    t.span(id, None, "rejected").finish();
                }
                self.stack.engine.record_queue_event(&err);
                // The rejected push hands the request back, so the record
                // keeps the query without a submit-path clone.
                self.results.lock().push(ServedRecord {
                    id,
                    query: back.query,
                    outcome: Outcome::Rejected(err.clone()),
                    latency: Duration::ZERO,
                });
                Err(err)
            }
        }
    }

    /// Runs the worker pool while `driver` produces load (submitting via
    /// [`submit`](Self::submit) / [`call`](Self::call) from this thread or
    /// its own), then drains the queue, joins the workers, and returns
    /// every record sorted by request id. The driver starts only once
    /// every worker is up and holds its reusable buffers, so thread
    /// start-up (which allocates) never overlaps served traffic. If
    /// `driver` panics, the queue still closes, the workers drain and
    /// exit, and the panic resumes from `run`.
    pub fn run(&self, driver: impl FnOnce(&Self)) -> Vec<ServedRecord> {
        /// Closes the queue when dropped — on return and on unwind alike.
        /// Workers exit only once the queue is closed and drained, and the
        /// scope joins them before a driver panic can propagate, so
        /// without this a panicking driver would hang `run` forever.
        struct CloseOnDrop<'q>(&'q AdmissionQueue);
        impl Drop for CloseOnDrop<'_> {
            fn drop(&mut self) {
                self.0.close();
            }
        }

        self.queue.reopen();
        let shards = self.queue.shards();
        let stall_shards = self.faults.lock().stall_shards.clone();
        let workers = self.config.workers.max(1);
        let ready = &Barrier::new(workers + 1);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let home = w % shards;
                let stalled = stall_shards.contains(&home);
                scope.spawn(move || self.worker(w, home, stalled, ready));
            }
            let _close = CloseOnDrop(&self.queue);
            ready.wait();
            driver(self);
        });
        let mut records = std::mem::take(&mut *self.results.lock());
        records.sort_by_key(|r| r.id);
        records
    }

    /// Deterministic replay: submits **all** requests before any worker
    /// starts, so admission decisions (exactly the overflow beyond queue
    /// capacity is rejected) do not depend on worker timing.
    pub fn execute(&self, requests: Vec<(Vec<String>, DeadlineBudget)>) -> Vec<ServedRecord> {
        for (query, budget) in requests {
            let _ = self.submit(query, budget);
        }
        self.run(|_| {})
    }

    /// One worker's loop. Waits on `ready` once its start-up allocations
    /// are done, releasing `run`'s driver when every worker has.
    fn worker(&self, index: usize, home: usize, stalled: bool, ready: &Barrier) {
        if stalled {
            ready.wait();
            // Fault drill: a wedged core never takes work. It still
            // heartbeats the queue so it exits once everything (stolen by
            // siblings) has drained.
            while !self.queue.park_tick(self.config.tick) {}
            return;
        }
        // Per-worker reusable buffers: batch formation and the shed/live
        // partition allocate once here, never per batch.
        let mut buf = BatchBuf::new(self.config.max_batch);
        let mut live: Vec<Pending> = Vec::with_capacity(self.config.max_batch.max(1));
        ready.wait();
        while self.queue.next_batch(
            home,
            self.config.max_batch,
            self.config.max_wait_ticks,
            self.config.tick,
            &mut buf,
        ) {
            self.process_batch(index, home, &mut buf, &mut live);
        }
    }

    /// True when the fault drill wants this request's serve to panic.
    fn injected_panic(&self, id: u64) -> bool {
        self.faults.lock().panic_on_ids.contains(&id)
    }

    fn process_batch(&self, worker: usize, home: usize, buf: &mut BatchBuf, live: &mut Vec<Pending>) {
        let tracer = self.stack.engine.tracer();
        // Batch-level spans go in a minted trace of their own: batch
        // composition depends on scheduling, while per-request traces must
        // stay structurally identical across shard and worker counts.
        let mut batch_span = tracer.map(|t| t.span(t.next_trace(), None, BATCH_FORM));
        if let Some(s) = batch_span.as_mut() {
            s.attr("shard", home);
            s.attr("worker", worker);
            s.attr("size", buf.items.len());
            s.attr("ids", join_ids(&buf.items));
            s.attr("stolen", buf.stolen_from.is_some());
        }
        if let Some(victim) = buf.stolen_from {
            if let Some((b, t)) = batch_span.as_ref().zip(tracer) {
                let mut s = t.span(b.trace(), Some(b.id()), STEAL);
                s.attr("thief", home);
                s.attr("victim", victim);
                s.attr("count", buf.items.len());
                s.attr("ids", join_ids(&buf.items));
            }
        }

        // Shed requests whose deadline died in the queue. Each dequeued
        // request closes its queue_wait span here, shed or not.
        let mut shed = 0usize;
        live.clear();
        for p in buf.items.drain(..) {
            if let Some(t) = tracer {
                let start = p.admitted_us.unwrap_or_else(|| t.now_us());
                t.span_at(p.id, None, "queue_wait", start).finish();
            }
            if p.budget.expired() {
                let err = ServeError::ExpiredInQueue;
                self.stack.engine.record_queue_event(&err);
                self.fulfill(p, Outcome::Shed(err));
                shed += 1;
            } else {
                live.push(p);
            }
        }
        if let Some(s) = batch_span.as_mut() {
            s.attr("shed", shed);
        }
        // The gauge gets the depth captured at the dequeue event itself
        // (no re-read racing other workers' dequeues and sheds).
        self.stack.engine.record_queue_depth(buf.depth_after);
        if live.is_empty() {
            return;
        }

        // Session path: with a model store attached, each request pins
        // exactly one model epoch for its whole ladder walk — the pinned
        // session model *is* the online rung, so the shared-teacher batch
        // decode is bypassed (rewrites are a pure function of
        // (context, query, epoch), so per-request decode is already
        // coalescing-transparent). Cache lookups are scoped by
        // (epoch, context) and the response is stamped with the epoch.
        if let Some(models) = &self.stack.models {
            for p in live.drain(..) {
                let id = p.id;
                let served = catch_unwind(AssertUnwindSafe(|| {
                    if self.injected_panic(id) {
                        panic!("injected scheduler fault: request {id}");
                    }
                    let pin = models.pin();
                    let session = SessionState { context: &p.context, model: Some(&pin) };
                    let ladder = RewriteLadder {
                        cache: self.stack.cache.as_deref(),
                        student: self.stack.student.as_deref().map(|s| s as &dyn QueryRewriter),
                        online: None,
                        baseline: self.stack.baseline.as_deref().map(|b| b as &dyn QueryRewriter),
                    };
                    self.stack.engine.search_session_traced(
                        &p.query,
                        session,
                        ladder,
                        &self.config.serving,
                        &p.budget,
                        None,
                        Some(p.id),
                    )
                }));
                match served {
                    Ok(response) => self.fulfill(p, Outcome::Served(response)),
                    Err(_) => self.fulfill(p, Outcome::Failed(ServeError::EnginePanic)),
                }
            }
            return;
        }

        // Plan which requests need a neural decode (miss the rewrite
        // cache after sanitization), mirroring ladder rung 1 without
        // touching the hit/miss counters — the serve pass below counts.
        let student = self.stack.student.as_deref();
        let online = self.stack.online.as_ref();
        let plans: Vec<Option<Vec<String>>> = live
            .iter()
            .map(|p| {
                if student.is_none() && online.is_none() {
                    return None;
                }
                plan_online(&p.query, self.stack.cache.as_deref(), &self.config.serving)
            })
            .collect();

        // One stacked batched decode for every cache miss in the batch.
        // Identical in-flight queries coalesce into a single decode slot:
        // `BatchedQ2Q` rewrites are a pure function of the query (the
        // sampling RNG is derived from the query tokens), so sharing one
        // decode across duplicates returns bit-for-bit what each would
        // have produced alone. FNV shard routing sends duplicates to the
        // same mailbox, so coalescing is shard-local by construction.
        let mut miss_queries: Vec<&[String]> = Vec::new();
        let mut miss_slot: Vec<Option<usize>> = Vec::with_capacity(plans.len());
        for plan in &plans {
            miss_slot.push(plan.as_deref().map(|q| {
                match miss_queries.iter().position(|u| *u == q) {
                    Some(slot) => slot,
                    None => {
                        miss_queries.push(q);
                        miss_queries.len() - 1
                    }
                }
            }));
        }
        let decode_requests = miss_slot.iter().filter(|s| s.is_some()).count();
        if let Some(s) = batch_span.as_mut() {
            s.attr("decode_slots", miss_queries.len());
            s.attr("decode_requests", decode_requests);
        }

        // Student pre-pass: the quantized student answers decode-misses
        // first; only queries it cannot serve fall through to the
        // teacher's batched decode. Its telemetry delta lands in the
        // engine's student counter block, so the health report compares
        // student vs teacher throughput directly.
        let student_out: Option<Result<Vec<Vec<Vec<String>>>, ()>> = match student {
            Some(st) if !miss_queries.is_empty() => {
                let mut span = batch_span
                    .as_ref()
                    .zip(tracer)
                    .map(|(b, t)| t.span(b.trace(), Some(b.id()), "student_decode"));
                if let Some(s) = span.as_mut() {
                    s.attr("slots", miss_queries.len());
                }
                let before = st.student().decode_stats();
                let t0 = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    miss_queries
                        .iter()
                        .map(|q| st.rewrite(q, self.config.serving.max_rewrites))
                        .collect::<Vec<_>>()
                }));
                self.stack.engine.record_student_decode(
                    st.student().decode_stats().since(&before),
                    t0.elapsed(),
                );
                if let Some(s) = span.as_mut() {
                    s.attr("ok", result.is_ok());
                }
                Some(result.map_err(|_| ()))
            }
            _ => None,
        };

        // The teacher only decodes the slots the student left unserved.
        let mut teacher_slot: Vec<Option<usize>> = vec![None; miss_queries.len()];
        let mut teacher_queries: Vec<&[String]> = Vec::new();
        for (i, &q) in miss_queries.iter().enumerate() {
            let served = matches!(&student_out, Some(Ok(all)) if !all[i].is_empty());
            if !served {
                teacher_slot[i] = Some(teacher_queries.len());
                teacher_queries.push(q);
            }
        }
        let miss_queries = teacher_queries;

        let decoded: Option<Result<Vec<Vec<Vec<String>>>, ()>> = match online {
            Some(online) if !miss_queries.is_empty() => {
                let mut decode_span = batch_span
                    .as_ref()
                    .zip(tracer)
                    .map(|(b, t)| t.span(b.trace(), Some(b.id()), "decode"));
                if let Some(s) = decode_span.as_mut() {
                    s.attr("slots", miss_queries.len());
                    s.attr("requests", decode_requests);
                }
                let before = online.model().decode_stats();
                let t0 = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    online.rewrite_batch(&miss_queries, self.config.serving.max_rewrites)
                }));
                self.stack
                    .engine
                    .record_decode(online.model().decode_stats().since(&before), t0.elapsed());
                if let Some(s) = decode_span.as_mut() {
                    s.attr("ok", result.is_ok());
                }
                Some(result.map_err(|_| ()))
            }
            _ => None,
        };

        // Serve every request through the engine itself. Misses replay the
        // batch-decode output (or re-panic inside the ladder's guard) under
        // the online rewriter's name; hits take rung 1 as usual. A panic
        // that escapes even the engine's guards (the fault drill injects
        // one) is contained here: the request fails, the batch's other
        // requests and the worker itself are untouched.
        for (p, slot) in live.drain(..).zip(miss_slot) {
            let student_rung: Option<Box<dyn QueryRewriter>> = match (student, &student_out, slot)
            {
                (Some(st), Some(Ok(all)), Some(slot)) => {
                    Some(Box::new(PrecomputedOnline::new(st.name().to_string(), all[slot].clone())))
                }
                (Some(st), Some(Err(())), Some(_)) => {
                    Some(Box::new(PanicOnline::new(st.name().to_string())))
                }
                _ => None,
            };
            let t_slot = slot.and_then(|s| teacher_slot[s]);
            let online_rung: Option<Box<dyn QueryRewriter>> = match (&decoded, t_slot) {
                (Some(Ok(all)), Some(slot)) => {
                    let name = online.expect("decoded implies online").name().to_string();
                    Some(Box::new(PrecomputedOnline::new(name, all[slot].clone())))
                }
                (Some(Err(())), Some(_)) => {
                    let name = online.expect("decoded implies online").name().to_string();
                    Some(Box::new(PanicOnline::new(name)))
                }
                _ => None,
            };
            let id = p.id;
            let served = catch_unwind(AssertUnwindSafe(|| {
                if self.injected_panic(id) {
                    panic!("injected scheduler fault: request {id}");
                }
                let ladder = RewriteLadder {
                    cache: self.stack.cache.as_deref(),
                    student: student_rung.as_deref(),
                    online: online_rung.as_deref(),
                    baseline: self
                        .stack
                        .baseline
                        .as_deref()
                        .map(|b| b as &dyn QueryRewriter),
                };
                self.stack.engine.search_resilient_traced(
                    &p.query,
                    ladder,
                    &self.config.serving,
                    &p.budget,
                    None,
                    Some(p.id),
                )
            }));
            match served {
                Ok(response) => self.fulfill(p, Outcome::Served(response)),
                Err(_) => self.fulfill(p, Outcome::Failed(ServeError::EnginePanic)),
            }
        }
    }

    fn fulfill(&self, p: Pending, outcome: Outcome) {
        if let Some(t) = self.stack.engine.tracer() {
            // The request's single terminal span.
            let name = match &outcome {
                Outcome::Served(_) => "served",
                Outcome::Shed(_) => "shed",
                Outcome::Rejected(_) => "rejected",
                Outcome::Failed(_) => "failed",
            };
            t.span(p.id, None, name).finish();
        }
        let record =
            ServedRecord { id: p.id, query: p.query, outcome, latency: p.budget.elapsed() };
        if let Some(slot) = p.slot {
            slot.complete(record.clone());
        }
        self.results.lock().push(record);
    }
}

/// Comma-joined request ids for batch/steal span attributes (traced runs
/// only — the untraced hot path never calls this).
fn join_ids(items: &[Pending]) -> String {
    items.iter().map(|p| p.id.to_string()).collect::<Vec<_>>().join(",")
}
