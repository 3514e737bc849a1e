//! Allocation budgets of the decoders, enforced by a counting
//! `#[global_allocator]`:
//!
//! * the quantized student: once its arena is warm, a `step_into` (and the
//!   `encode` before it) allocates nothing, and a `top_n_sampling`
//!   request allocates the same count whatever its decoded length — only
//!   the hypotheses it returns;
//! * the f32 teacher: a warm `top_n_sampling` allocates only its 1 + k
//!   returned hypotheses, and the per-thread arena re-initialises
//!   correctly across model shapes and after a panic inside a decode;
//! * both, through the one top-n loop: requests alternating between
//!   candidate counts reuse the arena's candidate slots, so each still
//!   allocates only its returned hypotheses.
//!
//! The counter is per thread (a `const` thread-local, which never
//! allocates on access), so the tests may run in parallel: each counts
//! only its own thread's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use qrw_nmt::{
    top_n_sampling, DecodeArena, Hypothesis, ModelConfig, QuantStudent, Seq2Seq, TopNDecoder,
    TopNSampling,
};
use qrw_tensor::rng::StdRng;
use qrw_text::{BOS, EOS, NUM_SPECIALS};

/// [`System`], but every allocation bumps the calling thread's counter
/// (reallocation too — a growing `Vec` must not hide behind `realloc`).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
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
        top_n_sampling(
            &student,
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
        let hyps = top_n_sampling(&student, &src, cfg, &mut rng);
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

/// Session-shaped sources: single tokens, queries joined by EOS
/// separators up to `max_src_len`, and sources past it (truncated).
fn session(len: usize, vocab: usize, salt: usize) -> Vec<usize> {
    (0..len)
        .map(|i| match (i + salt) % 5 {
            4 => EOS,
            _ => NUM_SPECIALS + (i * 7 + salt) % (vocab - NUM_SPECIALS),
        })
        .collect()
}

/// Token-and-bits form of a hypothesis set, for exact comparison.
fn exact(hyps: &[Hypothesis]) -> Vec<(Vec<usize>, u32)> {
    hyps.iter().map(|h| (h.tokens.clone(), h.log_prob.to_bits())).collect()
}

/// The same decode on a fresh thread, so on a fresh arena.
fn on_fresh_thread(
    model: &Seq2Seq,
    src: &[usize],
    cfg: TopNSampling,
    seed: u64,
) -> Vec<Hypothesis> {
    std::thread::scope(|s| {
        s.spawn(|| top_n_sampling(model, src, cfg, &mut StdRng::seed_from_u64(seed)))
            .join()
            .expect("fresh-thread decode")
    })
}

#[test]
fn warm_teacher_decode_allocates_only_its_hypotheses() {
    // A small vocabulary puts EOS in every sampling pool, so decoded
    // lengths vary from request to request.
    let vocab = 12;
    let model = Seq2Seq::new(ModelConfig::tiny_transformer(vocab), 7);
    let max_src = model.config().max_src_len;
    let cfg = TopNSampling { k: 3, n: 40 };

    // Part 1: single requests. Warm-up requests reach every buffer's full
    // size (full-length sources; new candidate caches are sized for
    // full-length decodes); after that each request allocates exactly
    // the returned Vec and one token Vec per hypothesis.
    for seed in 0..8 {
        let src = session(max_src + 6, vocab, 1);
        top_n_sampling(&model, &src, cfg, &mut StdRng::seed_from_u64(seed));
    }
    let mut decoded_lengths = Vec::new();
    for seed in 0..40u64 {
        let src = session(1 + seed as usize % max_src, vocab, seed as usize);
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let before = allocations();
        let hyps = top_n_sampling(&model, &src, cfg, &mut rng);
        let delta = allocations() - before;
        assert_eq!(hyps.len(), cfg.k);
        assert!(hyps.iter().all(|h| !h.tokens.is_empty()));
        assert_eq!(delta, 1 + hyps.len() as u64, "request {seed} allocated {delta} times");
        decoded_lengths.push(hyps.iter().map(|h| h.tokens.len()).sum::<usize>());
    }
    decoded_lengths.sort_unstable();
    decoded_lengths.dedup();
    assert!(decoded_lengths.len() > 3, "decoded lengths never varied: {decoded_lengths:?}");

    // Part 2: one thread alternating two model shapes (the cyclic trainer
    // alternates its d48 q2t model and d32 models on one thread) and
    // decodes that panic midway leave the arena correct: every result
    // equals the same decode on a fresh arena.
    let wide = Seq2Seq::new(ModelConfig::forward_q2t(vocab), 8);
    let src = session(9, vocab, 3);
    for round in 0..4u64 {
        for m in [&wide, &model] {
            let got = top_n_sampling(m, &src, cfg, &mut StdRng::seed_from_u64(round));
            assert_eq!(exact(&got), exact(&on_fresh_thread(m, &src, cfg, round)), "round {round}");
        }
        // An out-of-vocabulary source panics after the last decode's
        // candidates were released.
        let bad = [vocab + 1];
        let mut rng = StdRng::seed_from_u64(2);
        let panicked =
            catch_unwind(AssertUnwindSafe(|| top_n_sampling(&model, &bad, cfg, &mut rng)));
        assert!(panicked.is_err(), "an out-of-vocabulary source must panic");
        let got = top_n_sampling(&wide, &src, cfg, &mut StdRng::seed_from_u64(round));
        let want = on_fresh_thread(&wide, &src, cfg, round);
        assert_eq!(exact(&got), exact(&want), "after panic {round}");
    }
}

/// Warm requests alternating k = 1 and k = 3 on one thread: the k = 1
/// requests leave the third candidate slots in the arena, so each request
/// allocates only its returned Vec and one token Vec per hypothesis.
fn alternating_k_allocates_only_hypotheses<M: TopNDecoder>(
    model: &M,
    vocab: usize,
    max_src: usize,
) {
    let cfg = |round: u64| TopNSampling { k: [1, 3][round as usize % 2], n: 40 };
    for seed in 0..8 {
        let src = session(max_src + 6, vocab, seed as usize);
        top_n_sampling(model, &src, cfg(seed), &mut StdRng::seed_from_u64(seed));
    }
    for seed in 0..20u64 {
        let src = session(1 + seed as usize % max_src, vocab, seed as usize);
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let before = allocations();
        let hyps = top_n_sampling(model, &src, cfg(seed), &mut rng);
        let delta = allocations() - before;
        assert_eq!(hyps.len(), cfg(seed).k);
        assert_eq!(
            delta,
            1 + hyps.len() as u64,
            "{} request {seed} allocated {delta} times",
            M::NAME
        );
    }
}

#[test]
fn warm_decode_reuses_candidate_slots_across_candidate_counts() {
    let vocab = 12;
    let teacher = Seq2Seq::new(ModelConfig::tiny_transformer(vocab), 7);
    alternating_k_allocates_only_hypotheses(&teacher, vocab, teacher.config().max_src_len);
    let student = QuantStudent::from_seq2seq(&Seq2Seq::new(ModelConfig::student(vocab), 7))
        .expect("pure transformer student");
    alternating_k_allocates_only_hypotheses(&student, vocab, student.config().max_src_len);
}
