//! Allocation budget of the quantized student's decode, enforced by a
//! counting `#[global_allocator]`: once its arena is warm, a
//! `step_into` (and the `encode` before it) allocates nothing, and a
//! `top_n_sampling` request allocates the same count whatever its decoded
//! length — only the hypotheses it returns.
//!
//! Because a `#[global_allocator]` is process-wide, this lives in its own
//! test binary with exactly **one** `#[test]`, so no parallel test can
//! pollute the counter between snapshots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qrw_nmt::{DecodeArena, ModelConfig, QuantStudent, Seq2Seq, TopNSampling};
use qrw_tensor::rng::StdRng;
use qrw_text::{BOS, NUM_SPECIALS};

/// [`System`], but every allocation bumps a counter (reallocation too —
/// a growing `Vec` must not hide behind `realloc`).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// A source of `len` ordinary tokens.
fn source(len: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..len)
        .map(|i| NUM_SPECIALS + (i * 5 + salt) % (vocab - NUM_SPECIALS))
        .collect()
}

#[test]
fn warm_student_decode_allocates_only_its_hypotheses() {
    // A small vocabulary puts EOS in every sampling pool, so decoded
    // lengths vary from request to request.
    let vocab = 12;
    let model = Seq2Seq::new(ModelConfig::student(vocab), 7);
    let student = QuantStudent::from_seq2seq(&model).expect("pure transformer student");
    let max_src = student.config().max_src_len;
    let max_tgt = student.max_tgt_len();

    // Part 1: the step itself. Warm the arena on a full-length source and
    // a full-length decode, then encode again and step a fresh cache
    // (created outside the window) to full length: zero allocations.
    let mut arena = DecodeArena::default();
    student.encode(&source(max_src, vocab, 0), &mut arena);
    let mut warm = student.start_cache(&mut arena);
    for step in 0..=max_tgt {
        student.step_into(&mut warm, NUM_SPECIALS + step % 8, &mut arena);
    }
    for len in [1, 5, max_src] {
        let src = source(len, vocab, len);
        let before = allocations();
        student.encode(&src, &mut arena);
        let encode_allocs = allocations() - before;
        let mut cache = student.start_cache(&mut arena);
        let before = allocations();
        let mut token = BOS;
        for step in 0..=max_tgt {
            let logits = student.step_into(&mut cache, token, &mut arena);
            token = NUM_SPECIALS + (step + logits.len()) % 8;
        }
        let step_allocs = allocations() - before;
        assert_eq!(
            (encode_allocs, step_allocs),
            (0, 0),
            "warm encode / step_into allocated (source length {len})"
        );
    }

    // Part 2: whole requests. Warm-up requests reach every buffer's
    // full size (full-length sources and decodes); after that each
    // request allocates exactly the returned Vec and one token Vec per
    // hypothesis, however many tokens it decoded.
    let cfg = TopNSampling { k: 3, n: 40 };
    for seed in 0..8 {
        student.top_n_sampling(
            &source(max_src + 6, vocab, 1),
            cfg,
            &mut StdRng::seed_from_u64(seed),
        );
    }
    let mut decoded_lengths = Vec::new();
    for seed in 0..40u64 {
        let src = source(1 + seed as usize % max_src, vocab, seed as usize);
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let before = allocations();
        let hyps = student.top_n_sampling(&src, cfg, &mut rng);
        let delta = allocations() - before;
        assert_eq!(hyps.len(), cfg.k);
        assert!(hyps.iter().all(|h| !h.tokens.is_empty()));
        assert_eq!(
            delta,
            1 + hyps.len() as u64,
            "request {seed} allocated {delta} times"
        );
        decoded_lengths.push(hyps.iter().map(|h| h.tokens.len()).sum::<usize>());
    }
    decoded_lengths.sort_unstable();
    decoded_lengths.dedup();
    assert!(
        decoded_lengths.len() > 3,
        "decoded lengths never varied: {decoded_lengths:?}"
    );
}
