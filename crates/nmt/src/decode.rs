//! Sequence decoding algorithms (§III-F).
//!
//! The paper finds greedy search (single output) and beam search (near
//! duplicate outputs) unsuitable for generating the *diverse* candidate
//! sets its inference pipeline needs, and introduces the **top-n sampling
//! decoder**: distinct most-likely tokens at the first step, then sampling
//! from the renormalized top-n token distribution at every later step.
//! Diverse beam search (the paper's §V future-work pointer) is also
//! implemented for the ablation benches.

use std::cell::RefCell;

use qrw_tensor::quant::sum_exp;
use qrw_tensor::rng::StdRng;
use qrw_tensor::{avx2_available, Tensor};

use qrw_text::{BOS, EOS, PAD, UNK};

use crate::seq2seq::{DecodeRows, DecodeState, DecodeStats, Seq2Seq, StepArena};
use crate::student::QuantStudent;

/// A decoded candidate: raw token ids (no BOS/EOS) and its model log-prob
/// `log P(tokens, EOS | src)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Hypothesis {
    pub tokens: Vec<usize>,
    pub log_prob: f32,
}

struct Candidate {
    prefix: Vec<usize>,
    state: DecodeState,
    log_prob: f32,
    finished: bool,
}

impl Candidate {
    fn hypothesis(&self) -> Hypothesis {
        Hypothesis { tokens: self.prefix[1..].to_vec(), log_prob: self.log_prob }
    }
}

/// Advances every candidate one step through a single batched model call,
/// returning one masked next-token log-prob vector per candidate. Borrows
/// each candidate's state and prefix disjointly so the whole batch goes
/// down in one `next_log_probs_batch` forward.
fn step_live_batch(model: &Seq2Seq, memory: &Tensor, cands: &mut [Candidate]) -> Vec<Vec<f32>> {
    let mut states: Vec<&mut DecodeState> = Vec::with_capacity(cands.len());
    let mut prefixes: Vec<&[usize]> = Vec::with_capacity(cands.len());
    for cand in cands.iter_mut() {
        let Candidate { prefix, state, .. } = cand;
        states.push(state);
        prefixes.push(prefix);
    }
    model.next_log_probs_batch(memory, &mut states, &prefixes)
}

/// Greedy decoding: the single locally-most-likely sequence.
pub fn greedy(model: &Seq2Seq, src: &[usize]) -> Hypothesis {
    let memory = model.encode(src);
    let mut cand = Candidate {
        prefix: vec![BOS],
        state: model.start_state(&memory),
        log_prob: 0.0,
        finished: false,
    };
    for _ in 0..=model.max_tgt_len() {
        let lp = model.next_log_probs(&memory, &mut cand.state, &cand.prefix);
        let (tok, tok_lp) = argmax(&lp);
        cand.log_prob += tok_lp;
        if tok == EOS {
            cand.finished = true;
            break;
        }
        cand.prefix.push(tok);
    }
    cand.hypothesis()
}

/// GNMT-style length-normalization factor: `((5 + len) / 6)^alpha`.
/// `alpha = 0` disables normalization (pure log-probability ranking).
pub fn length_penalty(len: usize, alpha: f32) -> f32 {
    ((5.0 + len as f32) / 6.0).powf(alpha)
}

/// Standard beam search with `beam` parallel sequences; returns finished
/// hypotheses (best-first), falling back to unfinished ones at the length
/// cap.
pub fn beam_search(model: &Seq2Seq, src: &[usize], beam: usize) -> Vec<Hypothesis> {
    beam_search_normalized(model, src, beam, 0.0)
}

/// Beam search ranking finished hypotheses by length-normalized score
/// `log_prob / length_penalty(len, alpha)`. Raw log-probability favours
/// short sequences; positive `alpha` counteracts that (GNMT uses ~0.6).
/// Returned hypotheses still carry the *raw* model log-probability.
pub fn beam_search_normalized(
    model: &Seq2Seq,
    src: &[usize],
    beam: usize,
    alpha: f32,
) -> Vec<Hypothesis> {
    assert!(beam > 0, "beam width must be positive");
    let memory = model.encode(src);
    let mut live = vec![Candidate {
        prefix: vec![BOS],
        state: model.start_state(&memory),
        log_prob: 0.0,
        finished: false,
    }];
    let mut done: Vec<Candidate> = Vec::new();

    for _ in 0..=model.max_tgt_len() {
        // One batched forward over all live beams instead of `beam`
        // separate model calls.
        let lps = step_live_batch(model, &memory, &mut live);
        let mut expansions: Vec<(usize, usize, f32)> = Vec::new(); // (cand, token, new_lp)
        for (ci, lp) in lps.iter().enumerate() {
            for (tok, &tok_lp) in lp.iter().enumerate() {
                if tok_lp.is_finite() {
                    expansions.push((ci, tok, live[ci].log_prob + tok_lp));
                }
            }
        }
        expansions.sort_by(|a, b| b.2.total_cmp(&a.2));
        expansions.truncate(beam);

        let mut next = Vec::with_capacity(beam);
        for (ci, tok, new_lp) in expansions {
            let parent = &live[ci];
            let mut cand = Candidate {
                prefix: parent.prefix.clone(),
                state: parent.state.clone(),
                log_prob: new_lp,
                finished: tok == EOS,
            };
            if tok != EOS {
                cand.prefix.push(tok);
                next.push(cand);
            } else {
                done.push(cand);
            }
        }
        if next.is_empty() {
            break;
        }
        live = next;
    }
    done.extend(live);
    done.sort_by(|a, b| {
        let na = a.log_prob / length_penalty(a.prefix.len() - 1, alpha);
        let nb = b.log_prob / length_penalty(b.prefix.len() - 1, alpha);
        nb.total_cmp(&na)
    });
    done.truncate(beam);
    done.iter().map(Candidate::hypothesis).collect()
}

/// Configuration of the paper's top-n sampling decoder (Figure 4).
#[derive(Clone, Copy, Debug)]
pub struct TopNSampling {
    /// Number of candidate sequences to maintain (`k`, the paper uses 3).
    pub k: usize,
    /// Sampling pool size per step (`n`, the paper uses 40).
    pub n: usize,
}

impl Default for TopNSampling {
    fn default() -> Self {
        TopNSampling { k: 3, n: 40 }
    }
}

/// Top-n sampling decoding.
///
/// Step 1 takes the `k` *most likely distinct* first tokens — the paper's
/// key step for diversity. Every later step samples a token among the top
/// `n` by renormalized probability, independently per candidate sequence.
/// Returned hypotheses carry the true model log-prob of the sampled
/// sequence and are sorted best-first. Decodes through this thread's
/// decode arena, so a warm call allocates only the returned hypotheses.
pub fn top_n_sampling(
    model: &Seq2Seq,
    src: &[usize],
    cfg: TopNSampling,
    rng: &mut StdRng,
) -> Vec<Hypothesis> {
    ARENA.with_borrow_mut(|arena| {
        arena.decode(model, src, cfg, rng);
        arena.hypotheses()
    })
}

/// A model the paper's top-n sampling decoder can serve: the f32
/// [`Seq2Seq`] teacher or the i8 [`QuantStudent`]. A q2q rewriter is
/// generic over this, so one rewriter serves either.
pub trait TopNDecoder {
    /// The name a rewriter over this kind of model reports by default.
    const NAME: &'static str;

    /// Top-n sampling of one source, drawing from `rng`.
    fn top_n_sampling(&self, src: &[usize], cfg: TopNSampling, rng: &mut StdRng)
        -> Vec<Hypothesis>;

    /// Snapshot of the model's cumulative decode counters.
    fn decode_stats(&self) -> DecodeStats;
}

impl TopNDecoder for Seq2Seq {
    const NAME: &'static str = "q2q-direct";

    fn top_n_sampling(
        &self,
        src: &[usize],
        cfg: TopNSampling,
        rng: &mut StdRng,
    ) -> Vec<Hypothesis> {
        top_n_sampling(self, src, cfg, rng)
    }

    fn decode_stats(&self) -> DecodeStats {
        Seq2Seq::decode_stats(self)
    }
}

impl TopNDecoder for QuantStudent {
    const NAME: &'static str = "student-quantized";

    fn top_n_sampling(
        &self,
        src: &[usize],
        cfg: TopNSampling,
        rng: &mut StdRng,
    ) -> Vec<Hypothesis> {
        QuantStudent::top_n_sampling(self, src, cfg, rng)
    }

    fn decode_stats(&self) -> DecodeStats {
        QuantStudent::decode_stats(self)
    }
}

/// The first step's one row: the template state consumes BOS.
struct FirstRow<'a> {
    memory: &'a Tensor,
    first: &'a mut DecodeState,
}

impl DecodeRows for FirstRow<'_> {
    fn rows(&self) -> usize {
        1
    }

    fn row(&mut self, _: usize) -> (&Tensor, &mut DecodeState, &[usize]) {
        (self.memory, self.first, &[BOS])
    }
}

/// A later step's rows: the live candidates, in candidate order.
struct LiveRows<'a> {
    memory: &'a Tensor,
    cands: &'a mut [Candidate],
    /// The candidate behind each row.
    live: &'a [usize],
}

impl DecodeRows for LiveRows<'_> {
    fn rows(&self) -> usize {
        self.live.len()
    }

    fn row(&mut self, r: usize) -> (&Tensor, &mut DecodeState, &[usize]) {
        let cand = &mut self.cands[self.live[r]];
        (self.memory, &mut cand.state, &cand.prefix)
    }
}

/// The per-thread state behind the teacher's decoders: the step arena
/// (encoder and layer temporaries, hidden rows, log-probs), the source's
/// memory and first-step template, the candidates (prefixes and states
/// re-forked from the template through `clone_from`), the live rows and
/// the sampling pool. Every buffer is reused call after call, so once
/// warm (a decode of the same shape has run on this thread) a top-n
/// decode allocates only the hypotheses it returns.
pub(crate) struct TeacherArena {
    step: StepArena,
    /// The source's encoder memory.
    memory: Tensor,
    /// The decoder state after the first (BOS) step, which every
    /// candidate forks.
    first: DecodeState,
    cands: Vec<Candidate>,
    /// How many of `cands` the last decode filled.
    filled: usize,
    live: Vec<usize>,
    pool: Vec<(f32, usize)>,
}

impl Default for TeacherArena {
    fn default() -> Self {
        TeacherArena {
            step: StepArena::default(),
            memory: Tensor::default(),
            first: DecodeState::Stateless,
            cands: Vec::new(),
            filled: 0,
            live: Vec::new(),
            pool: Vec::new(),
        }
    }
}

thread_local! {
    static ARENA: RefCell<TeacherArena> = RefCell::new(TeacherArena::default());
}

/// Runs `f` on this thread's step arena (the single-step entry points).
pub(crate) fn with_step_arena<R>(f: impl FnOnce(&mut StepArena) -> R) -> R {
    ARENA.with_borrow_mut(|arena| f(&mut arena.step))
}

impl TeacherArena {
    /// Top-n decodes `src`, leaving its candidates in `cands[..filled]`,
    /// and publishes the decode counts once.
    fn decode(&mut self, model: &Seq2Seq, src: &[usize], cfg: TopNSampling, rng: &mut StdRng) {
        // `k == 0` yields no hypotheses and `n` is clamped to 1 when
        // sampling: degenerate configs degrade instead of panicking, since
        // this decoder sits on the online serving path.
        let TeacherArena { step, memory, first, cands, filled, live, pool } = self;
        // Re-initialise everything this decode reads before reading it, so
        // a decode that panicked midway leaves nothing behind. Candidates
        // first give back their shares of the last source's cross K/V, so
        // the template re-projects into its own buffers.
        *filled = 0;
        for cand in cands.iter_mut() {
            cand.state.release_shared();
        }
        model.encode_into(src, memory, step);
        model.reset_state(memory, first);
        let memory = &*memory;
        let mut counts: DecodeStats = model.step_rows(&mut FirstRow { memory, first }, step);

        // The k most likely distinct first tokens (EOS excluded so no
        // candidate is empty). The template already consumed BOS; forking
        // it avoids re-running the first step per candidate (recurrent
        // hidden state and KV cache alike carry the advanced position).
        top_pool(step.log_probs.row_slice(0), cfg.k, &[EOS], pool);
        for (n, &(log_prob, tok)) in pool.iter().enumerate() {
            if n == cands.len() {
                // A fresh state has room for a full-length decode, so the
                // fork below never regrows it.
                cands.push(Candidate {
                    prefix: Vec::with_capacity(model.max_tgt_len() + 2),
                    state: model.start_state(memory),
                    log_prob: 0.0,
                    finished: false,
                });
            }
            let cand = &mut cands[n];
            cand.prefix.clear();
            cand.prefix.extend([BOS, tok]);
            cand.state.clone_from(first);
            cand.log_prob = log_prob;
            cand.finished = false;
        }
        *filled = pool.len();

        let cands = &mut cands[..*filled];
        for _ in 0..model.max_tgt_len() {
            // Every live candidate, stacked into one step.
            live.clear();
            live.extend((0..cands.len()).filter(|&i| !cands[i].finished));
            if live.is_empty() {
                break;
            }
            counts += model.step_rows(&mut LiveRows { memory, cands, live }, step);
            for (r, &i) in live.iter().enumerate() {
                let lp = step.log_probs.row_slice(r);
                let cand = &mut cands[i];
                let tok = sample_top_n(lp, cfg.n, rng, pool);
                cand.log_prob += lp[tok];
                if tok == EOS || cand.prefix.len() > model.max_tgt_len() {
                    cand.finished = true;
                } else {
                    cand.prefix.push(tok);
                }
            }
        }
        model.record_decode(counts);
    }

    /// The last decode's hypotheses, best-first.
    fn hypotheses(&self) -> Vec<Hypothesis> {
        let mut hyps: Vec<Hypothesis> =
            self.cands[..self.filled].iter().map(Candidate::hypothesis).collect();
        hyps.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
        hyps
    }
}

/// Diverse beam search [Vijayakumar et al. 2016]: `groups` groups of
/// `beam_per_group` beams; each group's token scores are penalized by how
/// often earlier groups already chose that token at the current step.
pub fn diverse_beam_search(
    model: &Seq2Seq,
    src: &[usize],
    groups: usize,
    beam_per_group: usize,
    diversity_penalty: f32,
) -> Vec<Hypothesis> {
    assert!(groups > 0 && beam_per_group > 0);
    let memory = model.encode(src);
    let new_candidate = || Candidate {
        prefix: vec![BOS],
        state: model.start_state(&memory),
        log_prob: 0.0,
        finished: false,
    };
    let mut group_live: Vec<Vec<Candidate>> = (0..groups).map(|_| vec![new_candidate()]).collect();
    let mut done: Vec<Candidate> = Vec::new();

    for _ in 0..=model.max_tgt_len() {
        let mut step_counts: Vec<(usize, usize)> = Vec::new(); // (token, count)
        let mut any_live = false;
        for live in group_live.iter_mut() {
            if live.is_empty() {
                continue;
            }
            let mut expansions: Vec<(usize, usize, f32, f32)> = Vec::new(); // cand, tok, true_lp, scored
            for (ci, cand) in live.iter_mut().enumerate() {
                let lp = model.next_log_probs(&memory, &mut cand.state, &cand.prefix);
                for (tok, &tok_lp) in lp.iter().enumerate() {
                    if !tok_lp.is_finite() {
                        continue;
                    }
                    let penalty = step_counts
                        .iter()
                        .find(|(t, _)| *t == tok)
                        .map_or(0.0, |(_, c)| *c as f32);
                    expansions.push((
                        ci,
                        tok,
                        cand.log_prob + tok_lp,
                        cand.log_prob + tok_lp - diversity_penalty * penalty,
                    ));
                }
            }
            expansions.sort_by(|a, b| b.3.total_cmp(&a.3));
            expansions.truncate(beam_per_group);

            let mut next = Vec::with_capacity(beam_per_group);
            for (ci, tok, true_lp, _scored) in expansions {
                bump(&mut step_counts, tok);
                let parent = &live[ci];
                let mut cand = Candidate {
                    prefix: parent.prefix.clone(),
                    state: parent.state.clone(),
                    log_prob: true_lp,
                    finished: tok == EOS,
                };
                if tok != EOS {
                    cand.prefix.push(tok);
                    next.push(cand);
                } else {
                    done.push(cand);
                }
            }
            any_live |= !next.is_empty();
            *live = next;
        }
        if !any_live {
            break;
        }
    }
    for live in group_live {
        done.extend(live);
    }
    done.sort_by(|a, b| b.log_prob.total_cmp(&a.log_prob));
    done.truncate(groups * beam_per_group);
    done.iter().map(Candidate::hypothesis).collect()
}

fn bump(counts: &mut Vec<(usize, usize)>, tok: usize) {
    if let Some(slot) = counts.iter_mut().find(|(t, _)| *t == tok) {
        slot.1 += 1;
    } else {
        counts.push((tok, 1));
    }
}

fn argmax(lp: &[f32]) -> (usize, f32) {
    let mut best = 0;
    for (i, &v) in lp.iter().enumerate() {
        if v > lp[best] {
            best = i;
        }
    }
    (best, lp[best])
}

/// The one top-n selection behind every sampler: a single pass over
/// `values` that insertion-keeps in `pool` the best `cap` finite entries
/// whose token is not in `skip`, as `(value, token)` pairs best-first
/// with ties in ascending token order — exactly a stable descending sort
/// of the finite entries truncated to `cap`, without sorting the
/// vocabulary. Returns the maximum finite value, skipped tokens included
/// (the fused epilogues' log-sum-exp normalizes over every token), or
/// `-inf` when there is none; among equal maxima (`-0.0` and `+0.0`) the
/// first one's bits.
///
/// Dispatches to an AVX2 body when available that compares eight values
/// at a time against the pool's floor and runs the insertion only on the
/// lanes that pass — bitwise equal to [`top_pool_scalar`], pool and
/// maximum alike.
pub fn top_pool(values: &[f32], cap: usize, skip: &[usize], pool: &mut Vec<(f32, usize)>) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 verified at runtime; the kernel reads only `values`.
        return unsafe { avx2::top_pool(values, cap, skip, pool) };
    }
    top_pool_scalar(values, cap, skip, pool)
}

/// The scalar twin of [`top_pool`] — the reference the AVX2 body is
/// pinned against.
pub fn top_pool_scalar(
    values: &[f32],
    cap: usize,
    skip: &[usize],
    pool: &mut Vec<(f32, usize)>,
) -> f32 {
    pool.clear();
    let mut max = f32::NEG_INFINITY;
    // The worst pooled value once the pool is full; until then `-inf`,
    // which admits every finite value.
    let mut floor = f32::NEG_INFINITY;
    for (t, &v) in values.iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        if v > max {
            max = v;
        }
        offer(v, t, cap, skip, pool, &mut floor);
    }
    max
}

/// One finite entry `(v, t)` through the pool's insertion: kept when it
/// beats the worst of a full pool in the total order (ties stay out, so
/// earlier tokens win), with `floor` tracking a full pool's worst value.
#[inline]
fn offer(
    v: f32,
    t: usize,
    cap: usize,
    skip: &[usize],
    pool: &mut Vec<(f32, usize)>,
    floor: &mut f32,
) {
    // Strictly below a full pool's worst entry: out on one float compare,
    // the common case once the pool fills. `v < floor` implies
    // `floor.total_cmp(&v)` is `Greater`, so this agrees with the exact
    // test below.
    if v < *floor || cap == 0 || skip.contains(&t) {
        return;
    }
    // A full pool whose worst entry is >= `v` in the total order (equal
    // values, or -0.0 against +0.0) keeps `v` out.
    if pool.len() == cap && pool[cap - 1].0.total_cmp(&v).is_ge() {
        return;
    }
    // First index whose value is strictly below `v`: equal values stay
    // ahead, preserving the stable ascending-token tie order.
    let pos = pool.partition_point(|&(p, _)| p.total_cmp(&v).is_ge());
    pool.insert(pos, (v, t));
    pool.truncate(cap);
    if pool.len() == cap {
        *floor = pool[cap - 1].0;
    }
}

/// The AVX2 body of [`top_pool`].
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// [`super::top_pool_scalar`] eight values at a time, in two passes.
    ///
    /// The first folds the finite lanes (non-finite ones masked to
    /// `-inf`) into eight running lane maxima with `vmaxps`. Their largest
    /// is the row maximum in value; for a zero maximum the first zero's
    /// sign is restored, since `vmaxps` does not order `-0.0` against
    /// `+0.0` as the scalar `v > max` scan does. Their smallest, `seed`,
    /// has eight distinct entries at or above it (`-inf` when a lane saw
    /// no finite value, or the row is shorter than one chunk).
    ///
    /// The second is [`select`] with `seed` as its starting floor. When it
    /// fills the pool, every pooled entry is at or above `seed`, so every
    /// entry it filtered out ranks below the whole pool and the pool is
    /// the scalar one; otherwise (fewer than `cap` poolable entries reach
    /// `seed`, e.g. when the skip list holds lane maxima) it runs again
    /// unseeded.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn top_pool(
        values: &[f32],
        cap: usize,
        skip: &[usize],
        pool: &mut Vec<(f32, usize)>,
    ) -> f32 {
        let chunks = values.len() / 8;
        let neg_inf = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut vmax = neg_inf;
        for c in 0..chunks {
            let v = _mm256_loadu_ps(values.as_ptr().add(c * 8));
            vmax = _mm256_max_ps(_mm256_blendv_ps(neg_inf, v, finite(v)), vmax);
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
        let seed = lanes.iter().fold(f32::INFINITY, |m, &l| m.min(l));
        let tail = values[chunks * 8..].iter().filter(|v| v.is_finite());
        let mut max =
            lanes.iter().chain(tail).fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        if max == 0.0 {
            max = *values.iter().find(|&&v| v == 0.0).expect("a zero maximum is an entry");
        }
        select(values, cap, skip, pool, seed);
        if pool.len() < cap && seed > f32::NEG_INFINITY {
            select(values, cap, skip, pool, f32::NEG_INFINITY);
        }
        max
    }

    /// All-ones lanes where `v` is finite.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn finite(v: __m256) -> __m256 {
        let abs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(v, abs), _mm256_set1_ps(f32::INFINITY))
    }

    /// The scalar insertion ([`super::offer`]) over the finite entries at
    /// or above `max(seed, floor)`, in ascending token order: per chunk,
    /// one compare against the broadcast bound yields the lanes that may
    /// enter the pool, a chunk with none is skipped on one `movemask`, and
    /// the passing lanes go through `offer`. The pool's floor only rises,
    /// so a lane below the chunk's bound fails the scalar test too, and
    /// `offer` re-checks the lanes that pass against the current floor.
    /// The ragged tail runs the same filter scalar.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn select(
        values: &[f32],
        cap: usize,
        skip: &[usize],
        pool: &mut Vec<(f32, usize)>,
        seed: f32,
    ) {
        pool.clear();
        if cap == 0 {
            return;
        }
        let chunks = values.len() / 8;
        let mut floor = f32::NEG_INFINITY;
        let mut bound = _mm256_set1_ps(seed);
        for c in 0..chunks {
            let v = _mm256_loadu_ps(values.as_ptr().add(c * 8));
            let pass = _mm256_and_ps(finite(v), _mm256_cmp_ps::<_CMP_GE_OQ>(v, bound));
            let mut lanes = _mm256_movemask_ps(pass) as u32;
            if lanes == 0 {
                continue;
            }
            while lanes != 0 {
                let t = c * 8 + lanes.trailing_zeros() as usize;
                lanes &= lanes - 1;
                super::offer(values[t], t, cap, skip, pool, &mut floor);
            }
            bound = _mm256_set1_ps(seed.max(floor));
        }
        for (t, &v) in values.iter().enumerate().skip(chunks * 8) {
            if v.is_finite() && v >= seed {
                super::offer(v, t, cap, skip, pool, &mut floor);
            }
        }
    }
}

/// [`top_pool`] plus the log-sum-exp of *every* finite logit (softmax
/// normalizes over the full vocabulary, specials included, before
/// masking): the exact selection pass yields the maximum, then one
/// vectorised [`sum_exp`] pass yields `max + ln Σ e^(l - max)`.
fn top_pool_with_lse(
    logits: &[f32],
    cap: usize,
    skip: &[usize],
    pool: &mut Vec<(f32, usize)>,
) -> f32 {
    let max = top_pool(logits, cap, skip, pool);
    max + sum_exp(logits, max).ln()
}

/// Draws one pooled entry proportionally to its probability renormalized
/// against the pool maximum. `None`, without touching `rng`, for an empty
/// pool.
fn sample_pool(pool: &[(f32, usize)], rng: &mut StdRng) -> Option<(f32, usize)> {
    let &(max, _) = pool.first()?;
    let total: f32 = pool.iter().map(|&(v, _)| (v - max).exp()).sum();
    let mut draw = rng.gen::<f32>() * total;
    for &(v, t) in pool {
        draw -= (v - max).exp();
        if draw <= 0.0 {
            return Some((v, t));
        }
    }
    // Rounding left `draw` positive past the last weight (or every weight
    // was zero): the least-likely pooled token is the consistent choice.
    pool.last().copied()
}

/// Samples one token among the `n` most likely, proportionally to their
/// renormalized probabilities, selecting into the caller's `pool`. A fully
/// degenerate distribution (every log-prob NaN/inf, e.g. a poisoned
/// model) yields PAD, which downstream special-token filters drop: the
/// serve path must not panic.
pub(crate) fn sample_top_n(
    lp: &[f32],
    n: usize,
    rng: &mut StdRng,
    pool: &mut Vec<(f32, usize)>,
) -> usize {
    top_pool(lp, n.max(1), &[], pool);
    sample_pool(pool, rng).map_or(PAD, |(_, t)| t)
}

/// Outcome of one fused decode step: the sampled token and its true model
/// log-prob `log softmax(logits)[token]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FusedStep {
    pub token: usize,
    pub log_prob: f32,
}

/// Fused softmax + top-n-sampling epilogue over raw output *logits*.
///
/// The unfused decode path materializes a full log-softmax vector
/// (`Seq2Seq::step_rows`), masks the special tokens, and only then selects
/// its top-`n` pool. The distilled student instead hands its raw logits
/// straight here: one exact [`top_pool`] pass selects the pool (into the
/// caller's `pool` buffer, so a warm step allocates nothing) and finds
/// the maximum, one vectorised [`sum_exp`] pass gives the log-sum-exp for
/// the true log-prob of whatever gets sampled, then it samples from the
/// pool — no intermediate vocab-sized allocation.
///
/// Semantics mirror the unfused pair exactly: PAD/BOS/UNK are excluded
/// from the pool (they are masked to `-inf` before `sample_top_n` on
/// the teacher path), ties keep ascending token order (the stable-sort
/// order), weights renormalize against the pool maximum, and a fully
/// degenerate input degrades to PAD instead of panicking. Sampling reads
/// only the pool, so the token and every RNG draw are exact; the
/// log-prob is within 1e-5 of the float-exact log-softmax.
pub fn fused_top_n_from_logits(
    logits: &[f32],
    n: usize,
    rng: &mut StdRng,
    pool: &mut Vec<(f32, usize)>,
) -> FusedStep {
    let lse = top_pool_with_lse(logits, n.max(1), &[PAD, BOS, UNK], pool);
    match sample_pool(pool, rng) {
        Some((l, token)) => FusedStep { token, log_prob: l - lse },
        // Fully degenerate logits (every entry NaN/inf, or nothing but
        // specials survives).
        None => FusedStep { token: PAD, log_prob: f32::NEG_INFINITY },
    }
}

/// First-step companion of [`fused_top_n_from_logits`]: the `k` most
/// likely *distinct* first tokens from raw logits, excluding EOS (so no
/// candidate decodes empty) on top of the usual PAD/BOS/UNK mask —
/// the fused mirror of the first step of [`top_n_sampling`].
/// Leaves `pool` holding `(log_prob, token)` best-first, ties in
/// ascending token order.
pub fn top_k_first_tokens_from_logits(logits: &[f32], k: usize, pool: &mut Vec<(f32, usize)>) {
    let lse = top_pool_with_lse(logits, k, &[PAD, BOS, UNK, EOS], pool);
    for (l, _) in pool.iter_mut() {
        *l -= lse;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ComponentKind, ModelConfig};

    fn tiny_model() -> Seq2Seq {
        Seq2Seq::new(ModelConfig::tiny_transformer(24), 5)
    }

    fn rnn_model() -> Seq2Seq {
        let mut cfg = ModelConfig::tiny_transformer(24);
        cfg.enc_kind = ComponentKind::Gru;
        cfg.dec_kind = ComponentKind::Gru;
        Seq2Seq::new(cfg, 5)
    }

    #[test]
    fn greedy_terminates_and_has_no_specials() {
        for m in [tiny_model(), rnn_model()] {
            let h = greedy(&m, &[5, 6, 7]);
            assert!(h.tokens.len() <= m.max_tgt_len() + 1);
            assert!(h.tokens.iter().all(|&t| t >= qrw_text::NUM_SPECIALS));
            assert!(h.log_prob < 0.0);
        }
    }

    #[test]
    fn beam_returns_at_most_beam_sorted_hypotheses() {
        let m = tiny_model();
        let hyps = beam_search(&m, &[5, 6], 4);
        assert!(!hyps.is_empty() && hyps.len() <= 4);
        for w in hyps.windows(2) {
            assert!(w[0].log_prob >= w[1].log_prob);
        }
    }

    #[test]
    fn beam_width_one_matches_greedy_tokens() {
        let m = tiny_model();
        let g = greedy(&m, &[7, 8]);
        let b = &beam_search(&m, &[7, 8], 1)[0];
        // Width-1 beam may stop earlier on EOS rank order, but when both
        // finish they must agree.
        assert_eq!(g.tokens, b.tokens);
        assert!((g.log_prob - b.log_prob).abs() < 1e-3);
    }

    #[test]
    fn length_penalty_reference_values() {
        assert_eq!(length_penalty(1, 0.0), 1.0);
        assert_eq!(length_penalty(1, 0.6), 1.0); // (6/6)^a == 1
        assert!(length_penalty(10, 0.6) > 1.0);
        assert!(length_penalty(10, 0.6) < length_penalty(10, 1.0));
    }

    #[test]
    fn normalized_beam_favours_longer_hypotheses() {
        let m = tiny_model();
        let raw = beam_search_normalized(&m, &[5, 6], 4, 0.0);
        let norm = beam_search_normalized(&m, &[5, 6], 4, 2.0);
        // Exploration is identical; only the final ranking (and therefore
        // which candidates survive truncation) changes. A strong alpha
        // keeps the top hypothesis at least as long, and the returned
        // ranking respects the normalized score.
        assert!(norm[0].tokens.len() >= raw[0].tokens.len());
        for w in norm.windows(2) {
            let a = w[0].log_prob / length_penalty(w[0].tokens.len() + 1, 2.0);
            let b = w[1].log_prob / length_penalty(w[1].tokens.len() + 1, 2.0);
            assert!(a >= b - 1e-5, "normalized ranking violated: {a} < {b}");
        }
    }

    #[test]
    fn top_n_first_tokens_are_distinct() {
        for m in [tiny_model(), rnn_model()] {
            let mut rng = StdRng::seed_from_u64(1);
            let hyps = top_n_sampling(&m, &[5, 6], TopNSampling { k: 3, n: 5 }, &mut rng);
            assert_eq!(hyps.len(), 3);
            let mut firsts: Vec<usize> = hyps.iter().filter_map(|h| h.tokens.first().copied()).collect();
            firsts.sort_unstable();
            firsts.dedup();
            assert_eq!(firsts.len(), hyps.iter().filter(|h| !h.tokens.is_empty()).count());
        }
    }

    #[test]
    fn top_n_is_deterministic_per_seed() {
        let m = tiny_model();
        let cfg = TopNSampling { k: 3, n: 6 };
        let a = top_n_sampling(&m, &[5, 6], cfg, &mut StdRng::seed_from_u64(9));
        let b = top_n_sampling(&m, &[5, 6], cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn top_n_log_probs_are_true_model_scores() {
        let m = tiny_model();
        let mut rng = StdRng::seed_from_u64(2);
        for h in top_n_sampling(&m, &[5, 6, 7], TopNSampling { k: 2, n: 4 }, &mut rng) {
            if h.tokens.is_empty() {
                continue;
            }
            let lp = m.log_prob(&[5, 6, 7], &h.tokens);
            // A candidate that hit the length cap never emitted EOS, so its
            // running score excludes the EOS term that log_prob includes.
            let unfinished_ok = h.tokens.len() >= m.max_tgt_len();
            assert!(
                (lp - h.log_prob).abs() < 1e-2 || unfinished_ok,
                "{} vs {}",
                lp,
                h.log_prob
            );
        }
    }

    #[test]
    fn diverse_beam_produces_group_diverse_outputs() {
        let m = tiny_model();
        let hyps = diverse_beam_search(&m, &[5, 6], 3, 1, 10.0);
        assert!(hyps.len() >= 2);
        // A strong penalty forces distinct first tokens across groups.
        let firsts: Vec<Option<usize>> = hyps.iter().map(|h| h.tokens.first().copied()).collect();
        let mut unique = firsts.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), firsts.len(), "{firsts:?}");
    }

    #[test]
    fn sample_top_n_respects_pool() {
        let mut rng = StdRng::seed_from_u64(3);
        let lp = vec![-0.1, -5.0, -0.2, f32::NEG_INFINITY, -9.0];
        for _ in 0..50 {
            let t = sample_top_n(&lp, 2, &mut rng, &mut Vec::new());
            assert!(t == 0 || t == 2);
        }
    }

    /// The full stable sort every selection site ran before the shared
    /// pool, kept as the oracle [`top_pool`] is pinned against.
    fn full_sort_pool(lp: &[f32], cap: usize, skip: &[usize]) -> Vec<usize> {
        let mut order: Vec<usize> =
            (0..lp.len()).filter(|&t| !skip.contains(&t) && lp[t].is_finite()).collect();
        order.sort_by(|&a, &b| lp[b].total_cmp(&lp[a]));
        order.truncate(cap);
        order
    }

    /// The full-sort sampler over [`full_sort_pool`], draw for draw.
    fn full_sort_sample_top_n(lp: &[f32], n: usize, rng: &mut StdRng) -> usize {
        let order = full_sort_pool(lp, n.max(1), &[]);
        let Some(&best) = order.first() else { return PAD };
        let weights: Vec<f32> = order.iter().map(|&t| (lp[t] - lp[best]).exp()).collect();
        let total: f32 = weights.iter().sum();
        let mut draw = rng.gen::<f32>() * total;
        for (i, &w) in weights.iter().enumerate() {
            draw -= w;
            if draw <= 0.0 {
                return order[i];
            }
        }
        order[order.len() - 1]
    }

    #[test]
    fn pooled_selection_is_bitwise_the_full_sort() {
        // Rows over a small palette, so duplicates, ±0.0, ±inf and NaN
        // all show up next to a few distinct finite entries.
        const PALETTE: [f32; 7] =
            [f32::NAN, f32::NEG_INFINITY, f32::INFINITY, 0.0, -0.0, -1.5, -0.25];
        let mut gen = StdRng::seed_from_u64(0x5eed);
        for case in 0..3000u64 {
            let lp: Vec<f32> = (0..gen.gen_range(1..13usize))
                .map(|_| match PALETTE.get(gen.gen_range(0..10usize)) {
                    Some(&v) => v,
                    None => -6.0 * gen.gen::<f32>(),
                })
                .collect();
            let v = lp.len();
            for n in [1, 3, v - 1, v, v + 5] {
                let mut want_rng = StdRng::seed_from_u64(case);
                let mut got_rng = want_rng.clone();
                let want = full_sort_sample_top_n(&lp, n, &mut want_rng);
                let got = sample_top_n(&lp, n, &mut got_rng, &mut Vec::new());
                assert_eq!(got, want, "case {case} n={n} lp={lp:?}");
                assert_eq!(got_rng.state(), want_rng.state(), "case {case} n={n}: rng drift");
            }
            // The first step's k distinct tokens, k = 0 included.
            for k in [0, 1, 3, v - 1, v, v + 5] {
                let mut got = Vec::new();
                let max = top_pool(&lp, k, &[EOS], &mut got);
                let finite = lp.iter().copied().filter(|v| v.is_finite());
                assert_eq!(max, finite.fold(f32::NEG_INFINITY, f32::max), "case {case} k={k}");
                let toks: Vec<usize> = got.iter().map(|&(_, t)| t).collect();
                assert_eq!(toks, full_sort_pool(&lp, k, &[EOS]), "case {case} k={k} lp={lp:?}");
                assert!(got.iter().all(|&(l, t)| l.to_bits() == lp[t].to_bits()), "case {case}");
            }
        }
    }

    /// The unfused reference: full log-softmax, then PAD/BOS/UNK masked to
    /// `-inf` — exactly what `Seq2Seq::step_rows` feeds `sample_top_n`.
    fn masked_log_probs(logits: &[f32]) -> Vec<f32> {
        let max = logits.iter().copied().filter(|v| v.is_finite()).fold(f32::NEG_INFINITY, f32::max);
        let lse = max + logits.iter().filter(|v| v.is_finite()).map(|&v| (v - max).exp()).sum::<f32>().ln();
        logits
            .iter()
            .enumerate()
            .map(|(t, &l)| {
                if !l.is_finite() || t == PAD || t == BOS || t == UNK {
                    f32::NEG_INFINITY
                } else {
                    l - lse
                }
            })
            .collect()
    }

    #[test]
    fn fused_epilogue_matches_unfused_sampler() {
        let logits = vec![0.5, 3.0, -1.0, 9.0, 1.5, 1.5, -0.25, 0.75, 2.5, -4.0];
        let lp = masked_log_probs(&logits);
        let mut pool = Vec::new();
        for n in [1usize, 2, 3, 5, 40] {
            for seed in 0..60u64 {
                let want = sample_top_n(&lp, n, &mut StdRng::seed_from_u64(seed), &mut Vec::new());
                let mut rng = StdRng::seed_from_u64(seed);
                let got = fused_top_n_from_logits(&logits, n, &mut rng, &mut pool);
                assert_eq!(got.token, want, "n={n} seed={seed}");
                assert!(
                    (got.log_prob - lp[want]).abs() < 1e-5,
                    "n={n} seed={seed}: {} vs {}",
                    got.log_prob,
                    lp[want]
                );
            }
        }
    }

    #[test]
    fn fused_epilogue_is_shift_invariant_in_token_choice() {
        let logits = vec![0.0, 1.0, 2.0, -0.5, 4.0, 3.0, 1.0];
        let shifted: Vec<f32> = logits.iter().map(|v| v + 16.0).collect();
        let mut pool = Vec::new();
        for seed in 0..20u64 {
            let rng = StdRng::seed_from_u64(seed);
            let a = fused_top_n_from_logits(&logits, 3, &mut rng.clone(), &mut pool);
            let b = fused_top_n_from_logits(&shifted, 3, &mut rng.clone(), &mut pool);
            assert_eq!(a.token, b.token, "seed {seed}");
            assert!((a.log_prob - b.log_prob).abs() < 1e-4);
        }
    }

    #[test]
    fn fused_epilogue_degrades_to_pad_on_degenerate_logits() {
        let mut rng = StdRng::seed_from_u64(4);
        for logits in
            [vec![], vec![f32::NAN; 6], vec![f32::NEG_INFINITY; 6], vec![1.0, 2.0, f32::NEG_INFINITY, 0.5]]
        {
            // The last case has finite logits only at maskable special
            // positions (PAD/BOS/UNK; EOS itself stays sampleable).
            let got = fused_top_n_from_logits(&logits, 3, &mut rng, &mut Vec::new());
            assert_eq!(got.token, PAD, "{logits:?}");
            assert_eq!(got.log_prob, f32::NEG_INFINITY);
        }
    }

    #[test]
    fn fused_epilogue_ties_keep_ascending_token_order() {
        // Tokens 5 and 7 tie for the maximum; n=1 must keep the stable
        // (ascending-index) winner, exactly like the unfused stable sort.
        let mut logits = vec![f32::NEG_INFINITY; 9];
        logits[5] = 2.0;
        logits[7] = 2.0;
        logits[4] = 1.0;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            assert_eq!(fused_top_n_from_logits(&logits, 1, &mut rng, &mut Vec::new()).token, 5);
        }
    }

    #[test]
    fn top_k_first_tokens_excludes_specials_and_ranks_desc() {
        let logits = vec![10.0, 10.0, 10.0, 10.0, 1.0, 3.0, 2.0, f32::NAN, 0.0];
        let mut got = Vec::new();
        top_k_first_tokens_from_logits(&logits, 3, &mut got);
        let toks: Vec<usize> = got.iter().map(|&(_, t)| t).collect();
        assert_eq!(toks, vec![5, 6, 4]);
        let lp = masked_log_probs(&logits);
        for &(l, t) in &got {
            assert!((l - lp[t]).abs() < 1e-5, "token {t}: {l} vs {}", lp[t]);
        }
        // k larger than the eligible set returns everything eligible.
        top_k_first_tokens_from_logits(&logits, 10, &mut got);
        assert_eq!(got.len(), 4);
    }
}
