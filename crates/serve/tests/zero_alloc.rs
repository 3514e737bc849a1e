//! Zero-allocation regression test for the scheduler's steady-state
//! serve path, enforced by a counting `#[global_allocator]`.
//!
//! The claim under test (see `runtime.rs` module docs): after warm-up, a
//! request travels submit → shard FIFO → batch formation → shed/fulfil
//! without a single heap allocation. Everything on that path is
//! preallocated and reused — the admission budget is an atomic, requests
//! move by value through per-shard FIFOs preallocated to the full budget
//! (a push within capacity never reallocates), workers reuse one
//! [`BatchBuf`], and the results vec is pre-reserved.
//!
//! Because a `#[global_allocator]` is process-wide, this lives in its own
//! test binary with exactly **one** `#[test]`, so no parallel test can
//! pollute the counter between snapshots.
//!
//! ## Documented escape hatches (cold / caller-side paths)
//!
//! The zero-alloc envelope covers the *scheduler data plane*, not:
//!
//! * the engine's decode and retrieval stages (tensor temporaries,
//!   response construction) — per the paper these dominate latency and
//!   amortise over micro-batches; they are outside the scheduler;
//! * tracer spans (attr strings) — tracing is a diagnostics mode, and the
//!   untraced hot path never touches the tracer;
//! * the closed-loop rendezvous `Arc<ResponseSlot>` and its record clone
//!   — open-loop (fire-and-forget) serving is the steady-state shape;
//! * cold transitions: thread spawn at `run()` start, model epoch swaps,
//!   epoch-pinned catalog publishes, and the caller's query construction.
//!
//! The end-to-end drill below therefore drives the *shed* path — real
//! `Runtime`, real workers, born-expired synthetic budgets — which
//! exercises the complete scheduler loop (admit, route, shard FIFO, steal,
//! batch formation, depth gauge, typed shed, fulfilment) with none of the
//! engine's exempted stages in the way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qrw_search::{DeadlineBudget, InvertedIndex, SearchEngine};
use qrw_serve::{
    synthetic_docs, AdmissionQueue, BatchBuf, Outcome, Pending, Runtime, RuntimeConfig,
    ServeStack,
};
use qrw_text::Vocab;

/// [`System`], but every allocation bumps a counter (reallocation too —
/// a growing `Vec` on the hot path must not hide behind `realloc`).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// While set, the first allocation records its kind and layout into
/// [`FIRST`] (a flag and plain atomics — nothing that could allocate),
/// so a failing window names what it allocated.
static WATCH: AtomicBool = AtomicBool::new(false);
/// `kind << 48 | align << 32 | size` of the first watched allocation;
/// kind 1 = alloc, 2 = alloc_zeroed, 3 = realloc.
static FIRST: AtomicU64 = AtomicU64::new(0);

fn count(kind: u64, layout: Layout, size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if WATCH.swap(false, Ordering::Relaxed) {
        FIRST.store(kind << 48 | (layout.align() as u64) << 32 | size as u64, Ordering::Relaxed);
    }
}

/// Counts allocations from here on, watching for the first one.
fn watch() -> u64 {
    FIRST.store(0, Ordering::SeqCst);
    WATCH.store(true, Ordering::SeqCst);
    allocations()
}

/// Renders what [`watch`] saw first, for assertion messages.
fn first_allocation() -> String {
    let v = FIRST.load(Ordering::SeqCst);
    let kind = ["none", "alloc", "alloc_zeroed", "realloc"][(v >> 48) as usize];
    format!("first: {kind} of {} bytes, align {}", v & 0xffff_ffff, (v >> 32) & 0xffff)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(2, layout, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(3, layout, new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

fn pending(id: u64, query: Vec<String>) -> Pending {
    Pending {
        id,
        query,
        context: Vec::new(),
        budget: DeadlineBudget::synthetic(Duration::ZERO),
        slot: None,
        admitted_us: None,
    }
}

const TICK: Duration = Duration::from_micros(50);

/// Part 1: the queue primitives alone. Push → route → shard FIFO → batch
/// cycles are allocation-free once the query strings exist
/// (queries are recycled between rounds, as the runtime recycles nothing
/// *but* lets the caller own them).
fn primitive_cycles_are_allocation_free() {
    const N: usize = 8;
    let queue = AdmissionQueue::new(N, 2);
    let mut buf = BatchBuf::new(N);
    // Query construction is caller-side: build once, recycle per round.
    let mut pool: Vec<Vec<String>> = (0..N)
        .map(|i| vec![format!("w{}", i % 5), format!("q{i}")])
        .collect();

    // Warm round: first fills of lazily-sized internals, if any.
    for round in 0..4u64 {
        let before = allocations();
        for i in 0..N as u64 {
            let p = pending(round * N as u64 + i, pool.pop().unwrap());
            queue.push(p).unwrap_or_else(|_| panic!("queue sized for the round"));
        }
        // Drain from shard 0: home fills first, then steals shard 1's
        // backlog — the steal path is part of the zero-alloc envelope.
        while queue.depth() > 0 {
            assert!(queue.next_batch(0, N, 0, TICK, &mut buf));
            for p in buf.items.drain(..) {
                pool.push(p.query);
            }
        }
        let delta = allocations() - before;
        if round > 0 {
            assert_eq!(
                delta, 0,
                "queue primitives allocated {delta} times in steady state (round {round})"
            );
        }
    }
}

/// Part 2: the full runtime, end to end. Open-loop submits with
/// born-expired budgets drive the complete scheduler loop — admission,
/// FNV routing, shard FIFO enqueue, wakeup, batch formation (home and
/// stolen), depth gauge, typed shed, fulfilment, result publish — and
/// after a warm-up wave the measured wave allocates exactly nothing.
fn steady_state_runtime_path_is_allocation_free() {
    const WARM: usize = 16;
    const MEASURED: usize = 32;

    let mut vocab = Vocab::new();
    for i in 0..12 {
        vocab.insert(&format!("w{i}"));
    }
    let vocab = Arc::new(vocab);
    // Shed requests never reach a rewriter or the index, so the minimal
    // stack keeps the drill inside the scheduler data plane. No tracer:
    // span minting is a documented escape hatch.
    let stack = ServeStack {
        engine: Arc::new(SearchEngine::new(InvertedIndex::build(synthetic_docs(&vocab, 12, 3)))),
        cache: None,
        student: None,
        online: None,
        baseline: None,
        models: None,
    };
    let config = RuntimeConfig {
        queue_capacity: WARM + MEASURED,
        max_batch: 8,
        max_wait_ticks: 0,
        tick: TICK,
        workers: 2,
        shards: 2,
        ..RuntimeConfig::default()
    };
    let runtime = Runtime::new(stack, config);
    // Caller-side pre-sizing: results never grow mid-run.
    runtime.reserve_results(WARM + MEASURED);
    // Query construction is the caller's (exempt): build every query
    // before the run.
    let queries: Vec<Vec<String>> =
        (0..WARM + MEASURED).map(|i| vec![format!("w{}", i % 12), format!("t{i}")]).collect();

    let records = runtime.run(|rt| {
        let mut queries = queries.into_iter();
        for _ in 0..WARM {
            rt.submit(queries.next().unwrap(), DeadlineBudget::synthetic(Duration::ZERO))
                .expect("under capacity");
        }
        while rt.results_len() < WARM {
            std::thread::yield_now();
        }

        let before = watch();
        for _ in 0..MEASURED {
            rt.submit(queries.next().unwrap(), DeadlineBudget::synthetic(Duration::ZERO))
                .expect("under capacity");
        }
        while rt.results_len() < WARM + MEASURED {
            std::thread::yield_now();
        }
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "steady-state serve path allocated {delta} times across {MEASURED} requests ({})",
            first_allocation()
        );
    });

    assert_eq!(records.len(), WARM + MEASURED);
    assert!(records.iter().all(|r| matches!(r.outcome, Outcome::Shed(_))));
}

/// The single test of this binary (the allocator counter is process-wide;
/// parallel tests would pollute each other's snapshots).
#[test]
fn steady_state_serve_path_does_not_allocate() {
    primitive_cycles_are_allocation_free();
    steady_state_runtime_path_is_allocation_free();
}
