//! The encoder-decoder sequence-to-sequence model.
//!
//! [`Seq2Seq`] composes any encoder kind with any decoder kind from
//! [`ModelConfig`], which yields every architecture the paper evaluates:
//! pure transformer (the main models), attention-RNN (Figure 8 baseline),
//! GRU (Table V), and the §III-G hybrid (transformer encoder + RNN decoder).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use qrw_tensor::rng::StdRng;

use qrw_tensor::tensor::log_softmax_in_place;
use qrw_tensor::{ParamSet, Tape, Tensor, Var};
use qrw_text::{BOS, EOS, PAD, UNK};

use crate::config::{ComponentKind, ModelConfig};
use crate::decode::{
    sample_top_n, top_pool, DecodeRows, DecodeStep, FusedStep, Hypothesis, TopNArena, TopNDecoder,
    TopNSampling,
};
use crate::layers::{Linear, Scratch, TrainCtx};
use crate::rnn::{AttnRnnDecoder, RnnEncoder};
use crate::transformer::{CacheRows, KvCache, TransformerDecoder, TransformerEncoder};

#[cfg(test)]
mod oracle;

enum Encoder {
    Transformer(TransformerEncoder),
    Recurrent(RnnEncoder),
}

enum Decoder {
    Transformer(TransformerDecoder),
    Recurrent(AttnRnnDecoder),
}

/// Decoder inference state carried across [`Seq2Seq::next_log_probs`] calls.
///
/// Recurrent decoders carry their hidden state (constant work per step).
/// The transformer decoder defaults to a per-layer KV cache so each step
/// consumes only the newest token; the stateless prefix-recompute variant
/// is kept as the reference the cached path is checked against (it is the
/// behaviour the paper laments in §III-G: "multi-head self attention needs
/// to be performed for all target tokens at each decoding step").
#[derive(Debug)]
pub enum DecodeState {
    /// Hidden state of a recurrent decoder.
    Recurrent(Tensor),
    /// Incremental transformer decoding state (per-layer KV cache).
    Transformer(KvCache),
    /// Stateless transformer decoding (full prefix recompute per step).
    Stateless,
}

/// `clone_from` between states of the same kind copies into the
/// receiver's buffers: re-forking a candidate allocates nothing once warm.
impl Clone for DecodeState {
    fn clone(&self) -> Self {
        match self {
            DecodeState::Recurrent(h) => DecodeState::Recurrent(h.clone()),
            DecodeState::Transformer(cache) => DecodeState::Transformer(cache.clone()),
            DecodeState::Stateless => DecodeState::Stateless,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (DecodeState::Recurrent(h), DecodeState::Recurrent(src)) => h.clone_from(src),
            (DecodeState::Transformer(cache), DecodeState::Transformer(src)) => {
                cache.clone_from(src)
            }
            (this, source) => *this = source.clone(),
        }
    }
}

/// A placeholder until [`Seq2Seq::start_state`] or a fork fills it.
impl Default for DecodeState {
    fn default() -> Self {
        DecodeState::Stateless
    }
}

/// How the transformer decoder advances during iterative decoding.
///
/// [`TransformerDecodeMode::PrefixRecompute`] exists as the slow reference
/// path: the equivalence test suite pins the cached path to it, and the
/// bench harness measures both to record the speedup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransformerDecodeMode {
    /// Incremental decoding with a per-layer KV cache (the default).
    #[default]
    KvCache,
    /// Re-run the full prefix at every step (reference / baseline).
    PrefixRecompute,
}

/// Cumulative decode telemetry counters (relaxed atomics: decoding may be
/// driven from multiple serving threads over a shared model), one set per
/// model, teacher or student.
#[derive(Debug, Default)]
pub(crate) struct DecodeTelemetry {
    steps: AtomicU64,
    tokens: AtomicU64,
    cache_hits: AtomicU64,
}

/// Snapshot of a model's decode counters.
///
/// * `steps` — next-token distributions computed (one per generated token).
/// * `tokens` — token positions actually pushed through the decoder stack;
///   with prefix recompute this grows quadratically with output length,
///   with the KV cache it equals the tokens generated.
/// * `cache_hits` — prefix positions served from the KV cache instead of
///   being recomputed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodeStats {
    pub steps: u64,
    pub tokens: u64,
    pub cache_hits: u64,
}

impl std::ops::AddAssign for DecodeStats {
    fn add_assign(&mut self, other: DecodeStats) {
        self.steps += other.steps;
        self.tokens += other.tokens;
        self.cache_hits += other.cache_hits;
    }
}

impl DecodeStats {
    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &DecodeStats) -> DecodeStats {
        DecodeStats {
            steps: self.steps.saturating_sub(earlier.steps),
            tokens: self.tokens.saturating_sub(earlier.tokens),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
        }
    }
}

thread_local! {
    /// Every decode run on this thread, across all models.
    static THREAD_DECODES: Cell<DecodeStats> =
        const { Cell::new(DecodeStats { steps: 0, tokens: 0, cache_hits: 0 }) };
}

/// Cumulative decode counters of every model decode (teacher or
/// quantized student) run on the calling thread. A model's own counters
/// are shared by every thread that decodes it, so diffing them around
/// one call also counts other threads' concurrent decodes; diffing these
/// counts exactly the calling thread's decodes in between.
pub fn thread_decode_stats() -> DecodeStats {
    THREAD_DECODES.get()
}

impl DecodeTelemetry {
    /// Publishes one call's decode counts, once, to the model's shared
    /// counters and the calling thread's.
    pub(crate) fn record_decode(&self, counts: DecodeStats) {
        let mut thread = THREAD_DECODES.get();
        thread += counts;
        THREAD_DECODES.set(thread);
        self.steps.fetch_add(counts.steps, Ordering::Relaxed);
        self.tokens.fetch_add(counts.tokens, Ordering::Relaxed);
        self.cache_hits.fetch_add(counts.cache_hits, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub(crate) fn stats(&self) -> DecodeStats {
        DecodeStats {
            steps: self.steps.load(Ordering::Relaxed),
            tokens: self.tokens.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
        }
    }
}

/// Decode rows that are all KV caches one token behind their prefixes,
/// seen as one stacked decoder step: each consumes its prefix's last token.
struct NextTokens<'r, R>(&'r mut R);

impl<R: DecodeRows<DecodeState>> CacheRows for NextTokens<'_, R> {
    fn rows(&self) -> usize {
        self.0.rows()
    }

    fn row(&mut self, r: usize) -> (&mut KvCache, usize) {
        let (state, prefix) = self.0.row_mut(r);
        let DecodeState::Transformer(cache) = state else {
            unreachable!("a stacked step holds only KV caches")
        };
        (cache, *prefix.last().expect("non-empty prefix"))
    }
}

/// One cache catching up alone, one token per step.
struct OneToken<'a> {
    cache: &'a mut KvCache,
    token: usize,
}

impl CacheRows for OneToken<'_> {
    fn rows(&self) -> usize {
        1
    }

    fn row(&mut self, _: usize) -> (&mut KvCache, usize) {
        (&mut *self.cache, self.token)
    }
}

/// Every buffer a teacher decode step and its encoder touch, reused call
/// after call (one per thread, inside the top-n arena): the layer
/// temporaries, the prepared source ids and its encoder memory, the rows'
/// newest hidden states and their masked next-token log-probs.
#[derive(Default)]
pub(crate) struct StepArena {
    layers: Scratch,
    /// The prepared source (truncated, EOS appended).
    ids: Vec<usize>,
    /// The source's encoder memory.
    memory: Tensor,
    /// Row `r`'s newest decoder hidden state.
    hidden: Tensor,
    /// One row's hidden state while it advances alone.
    row: Tensor,
    /// After a step: row `r`'s masked next-token log-probs.
    log_probs: Tensor,
}

thread_local! {
    static ARENA: RefCell<TopNArena<Seq2Seq>> = RefCell::new(TopNArena::default());
}

/// Runs `f` on this thread's step arena (the single-step entry points).
fn with_step_arena<R>(f: impl FnOnce(&mut StepArena) -> R) -> R {
    ARENA.with_borrow_mut(|arena| f(&mut arena.step))
}

/// An encoder-decoder translation model with an output vocabulary
/// projection.
pub struct Seq2Seq {
    config: ModelConfig,
    params: ParamSet,
    enc: Encoder,
    dec: Decoder,
    out: Linear,
    decode_mode: TransformerDecodeMode,
    telemetry: DecodeTelemetry,
}

impl Seq2Seq {
    /// Builds a model with deterministic initialization from `seed`.
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let enc = match config.enc_kind {
            ComponentKind::Transformer => Encoder::Transformer(TransformerEncoder::new(
                &mut params,
                &mut rng,
                "s2s",
                config.vocab,
                config.d_model,
                config.d_ff,
                config.heads,
                config.enc_layers,
                config.max_src_len + 2,
            )),
            kind => Encoder::Recurrent(RnnEncoder::new(
                &mut params,
                &mut rng,
                "s2s",
                kind,
                config.vocab,
                config.d_model,
            )),
        };
        let dec = match config.dec_kind {
            ComponentKind::Transformer => Decoder::Transformer(TransformerDecoder::new(
                &mut params,
                &mut rng,
                "s2s",
                config.vocab,
                config.d_model,
                config.d_ff,
                config.heads,
                config.dec_layers,
                config.max_tgt_len + 2,
            )),
            kind => Decoder::Recurrent(AttnRnnDecoder::new(
                &mut params,
                &mut rng,
                "s2s",
                kind,
                config.vocab,
                config.d_model,
            )),
        };
        let out = Linear::new(&mut params, &mut rng, "s2s.out", config.d_model, config.vocab);
        Seq2Seq {
            config,
            params,
            enc,
            dec,
            out,
            decode_mode: TransformerDecodeMode::default(),
            telemetry: DecodeTelemetry::default(),
        }
    }

    /// How transformer decoding advances (KV cache vs prefix recompute).
    pub fn decode_mode(&self) -> TransformerDecodeMode {
        self.decode_mode
    }

    /// Selects the transformer decoding mode for subsequently created
    /// [`DecodeState`]s. `PrefixRecompute` is the reference/baseline path;
    /// equivalence tests and the bench harness flip this.
    pub fn set_decode_mode(&mut self, mode: TransformerDecodeMode) {
        self.decode_mode = mode;
    }

    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The model's trainable parameters.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Truncates and appends EOS to raw source token ids.
    pub fn prep_src(&self, src: &[usize]) -> Vec<usize> {
        let mut out = Vec::with_capacity(src.len().min(self.config.max_src_len) + 1);
        self.prep_src_into(src, &mut out);
        out
    }

    fn prep_src_into(&self, src: &[usize], out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&src[..src.len().min(self.config.max_src_len)]);
        out.push(EOS);
    }

    fn prep_tgt(&self, tgt: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let cut = tgt.len().min(self.config.max_tgt_len);
        let mut dec_in = Vec::with_capacity(cut + 1);
        dec_in.push(BOS);
        dec_in.extend_from_slice(&tgt[..cut]);
        let mut targets = Vec::with_capacity(cut + 1);
        targets.extend_from_slice(&tgt[..cut]);
        targets.push(EOS);
        (dec_in, targets)
    }

    fn encode_on_tape<'t>(
        &self,
        tape: &'t Tape,
        src: &[usize],
        ctx: &mut Option<TrainCtx<'_>>,
    ) -> Var<'t> {
        let src = self.prep_src(src);
        match &self.enc {
            Encoder::Transformer(e) => e.forward(tape, &src, ctx),
            Encoder::Recurrent(e) => e.forward(tape, &src, ctx),
        }
    }

    fn decode_on_tape<'t>(
        &self,
        tape: &'t Tape,
        dec_in: &[usize],
        memory: Var<'t>,
        ctx: &mut Option<TrainCtx<'_>>,
        attn_sink: Option<&mut Vec<Tensor>>,
    ) -> Var<'t> {
        let hidden = match &self.dec {
            Decoder::Transformer(d) => d.forward(tape, dec_in, memory, ctx, attn_sink),
            Decoder::Recurrent(d) => d.forward(tape, dec_in, memory, ctx, attn_sink),
        };
        self.out.forward(tape, hidden)
    }

    /// Teacher-forced negative log-likelihood of `tgt` given `src`, as a
    /// tape node (so it can be combined with other losses before one
    /// backward pass). Returns `(nll_sum, token_count)`.
    pub fn nll_on_tape<'t>(
        &self,
        tape: &'t Tape,
        src: &[usize],
        tgt: &[usize],
        ctx: &mut Option<TrainCtx<'_>>,
    ) -> (Var<'t>, usize) {
        assert!(!src.is_empty(), "source must be non-empty");
        let memory = self.encode_on_tape(tape, src, ctx);
        let (dec_in, targets) = self.prep_tgt(tgt);
        let logits = self.decode_on_tape(tape, &dec_in, memory, ctx, None);
        let weights = vec![1.0; targets.len()];
        // Label smoothing is a training-time regularizer; scoring and
        // evaluation (ctx == None) use the true likelihood.
        let smoothing = if ctx.is_some() { self.config.label_smoothing } else { 0.0 };
        (
            logits.cross_entropy_sum_smoothed(&targets, &weights, smoothing),
            targets.len(),
        )
    }

    /// The teacher-forced negative log-likelihoods of several
    /// `(src, tgt)` pairs, each scored as [`Self::nll_on_tape`] scores it in
    /// inference mode, as one `k x 1` node whose row `i` is pair `i`'s. A
    /// pure transformer runs the pairs as one stacked pass (see
    /// [`qrw_tensor::Tape`]): the values, and the gradients a backward pass
    /// flushes into the parameters, are bitwise those of `k` separate
    /// passes recorded in pair order. A model with a recurrent component
    /// runs them as those separate passes.
    pub fn nll_stacked_on_tape<'t>(&self, tape: &'t Tape, pairs: &[(&[usize], &[usize])]) -> Var<'t> {
        assert!(!pairs.is_empty(), "no pairs to score");
        let (Encoder::Transformer(enc), Decoder::Transformer(dec)) = (&self.enc, &self.dec) else {
            let nlls: Vec<Var<'t>> =
                pairs.iter().map(|&(src, tgt)| self.nll_on_tape(tape, src, tgt, &mut None).0).collect();
            return Var::stack_rows(&nlls);
        };
        let srcs: Vec<Vec<usize>> = pairs
            .iter()
            .map(|&(src, _)| {
                assert!(!src.is_empty(), "source must be non-empty");
                self.prep_src(src)
            })
            .collect();
        let (dec_ins, targets): (Vec<_>, Vec<_>) = pairs.iter().map(|&(_, tgt)| self.prep_tgt(tgt)).unzip();
        let memory = enc.forward_segmented(tape, &srcs.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let dec_ins: Vec<&[usize]> = dec_ins.iter().map(Vec::as_slice).collect();
        let hidden = dec.forward_segmented(tape, &dec_ins, memory);
        let targets = targets.concat();
        self.out.forward(tape, hidden).cross_entropy_segments(&targets, &vec![1.0; targets.len()])
    }

    /// `log P(tgt | src)` under the model (inference mode, no dropout).
    pub fn log_prob(&self, src: &[usize], tgt: &[usize]) -> f32 {
        let tape = Tape::new();
        let (nll, _) = self.nll_on_tape(&tape, src, tgt, &mut None);
        -nll.item()
    }

    /// Per-token perplexity of `tgt | src`.
    pub fn perplexity(&self, src: &[usize], tgt: &[usize]) -> f32 {
        let tape = Tape::new();
        let (nll, count) = self.nll_on_tape(&tape, src, tgt, &mut None);
        (nll.item() / count as f32).exp()
    }

    /// Encodes `src` into a plain memory tensor for iterative decoding.
    pub fn encode(&self, src: &[usize]) -> Tensor {
        // Into a fresh tensor: the arena keeps the top-n loop's memory.
        with_step_arena(|a| {
            let loop_memory = std::mem::take(&mut a.memory);
            self.encode_into(src, a);
            std::mem::replace(&mut a.memory, loop_memory)
        })
    }

    /// [`Self::encode`] into the arena's memory, reusing its buffer. A
    /// transformer encoder runs its tape-free twin (bitwise the tape's
    /// memory, no allocation once warm); a recurrent one still runs on a
    /// tape.
    fn encode_into(&self, src: &[usize], a: &mut StepArena) {
        let StepArena { layers, ids, memory, .. } = a;
        self.prep_src_into(src, ids);
        match &self.enc {
            Encoder::Transformer(e) => e.forward_inference(ids, memory, layers),
            Encoder::Recurrent(e) => *memory = e.forward(&Tape::new(), ids, &mut None).value(),
        }
    }

    /// Fresh decoder state for a given memory.
    pub fn start_state(&self, memory: &Tensor) -> DecodeState {
        let mut state = DecodeState::Stateless;
        self.reset_state(memory, &mut state);
        state
    }

    /// [`Self::start_state`] into an existing state, reusing a KV cache's
    /// buffers.
    fn reset_state(&self, memory: &Tensor, state: &mut DecodeState) {
        match (&self.dec, self.decode_mode) {
            (Decoder::Transformer(d), TransformerDecodeMode::KvCache) => match state {
                DecodeState::Transformer(cache) => d.reset_cache(memory, cache),
                _ => *state = DecodeState::Transformer(d.start_cache(memory)),
            },
            (Decoder::Transformer(_), TransformerDecodeMode::PrefixRecompute) => {
                *state = DecodeState::Stateless;
            }
            (Decoder::Recurrent(d), _) => {
                *state = DecodeState::Recurrent(d.initial_state_inference(memory));
            }
        }
    }

    /// One row's newest hidden state into `a.row`, advancing its state by
    /// every prefix token it has not consumed.
    ///
    /// The KV-cached path consumes exactly the prefix tokens the cache has
    /// not seen yet (`prefix[cache.pos()..]` — usually just the last one),
    /// so a full decode does linear token work instead of quadratic.
    fn advance_row(
        &self,
        memory: &Tensor,
        state: &mut DecodeState,
        prefix: &[usize],
        a: &mut StepArena,
        counts: &mut DecodeStats,
    ) {
        match (&self.dec, state) {
            (Decoder::Transformer(d), DecodeState::Transformer(cache)) => {
                let seen = cache.pos();
                assert!(
                    seen < prefix.len(),
                    "decode state is ahead of the prefix ({seen} >= {})",
                    prefix.len()
                );
                let tokens = (prefix.len() - seen) as u64;
                *counts += DecodeStats { steps: 1, tokens, cache_hits: seen as u64 };
                for &token in &prefix[seen..] {
                    d.step_into(&mut OneToken { cache, token }, &mut a.row, &mut a.layers);
                }
            }
            (Decoder::Transformer(d), DecodeState::Stateless) => {
                *counts += DecodeStats { steps: 1, tokens: prefix.len() as u64, cache_hits: 0 };
                let tape = Tape::new();
                let mem = tape.constant(memory.clone());
                let h = d.forward(&tape, prefix, mem, &mut None, None);
                a.row = h.slice_rows(prefix.len() - 1, 1).value();
            }
            (Decoder::Recurrent(d), DecodeState::Recurrent(h)) => {
                *counts += DecodeStats { steps: 1, tokens: 1, cache_hits: 0 };
                let last = *prefix.last().expect("non-empty prefix");
                *h = d.step_inference(memory, h, last);
                a.row.clone_from(h);
            }
            _ => unreachable!("decoder kind and state kind always match"),
        }
    }

    /// Advances every row of `rows` (all of one source, whose encoder
    /// memory is `memory`) one decode step and leaves row `r`'s masked
    /// next-token log-probs in row `r` of `a.log_probs`: the one step
    /// kernel behind every decoder of this model. Returns the step's
    /// decode counts; the caller publishes them once per call.
    ///
    /// When every row is a KV cache exactly one token behind its prefix,
    /// all row-independent work (projections, layer norms, FFN, the
    /// vocabulary projection) runs as one `rows`-row matmul per layer and
    /// only attention walks each row's own cache. Otherwise (recurrent
    /// decoders, prefix recompute, a cache behind by several tokens, e.g.
    /// just forked from a shorter parent) each row advances alone and the
    /// rows still share one vocabulary projection. Every per-row
    /// computation (matmul k-accumulation, attention over its own cache,
    /// row-wise norms and softmax) is independent of the other rows, so
    /// batch composition never changes any row's values — see DESIGN.md
    /// § Serving runtime.
    ///
    /// The epilogue is the log-softmax of each logits row in place, then
    /// PAD / BOS / UNK masked to `-inf` so decoders never emit them.
    fn step(
        &self,
        memory: &Tensor,
        rows: &mut impl DecodeRows<DecodeState>,
        a: &mut StepArena,
    ) -> DecodeStats {
        let n = rows.rows();
        let mut counts = DecodeStats::default();
        for r in 0..n {
            assert_eq!(rows.row(r).1.first(), Some(&BOS), "prefix must start with BOS");
        }
        let batchable = (0..n).all(|r| match rows.row(r) {
            (DecodeState::Transformer(cache), prefix) => cache.pos() + 1 == prefix.len(),
            _ => false,
        });
        match &self.dec {
            Decoder::Transformer(d) if batchable => {
                for r in 0..n {
                    if let (DecodeState::Transformer(cache), _) = rows.row(r) {
                        let cache_hits = cache.pos() as u64;
                        counts += DecodeStats { steps: 1, tokens: 1, cache_hits };
                    }
                }
                d.step_into(&mut NextTokens(rows), &mut a.hidden, &mut a.layers);
            }
            _ => {
                a.hidden.resize_zeroed(n, self.config.d_model);
                for r in 0..n {
                    let (state, prefix) = rows.row_mut(r);
                    self.advance_row(memory, state, prefix, a, &mut counts);
                    a.hidden.row_slice_mut(r).copy_from_slice(a.row.row_slice(0));
                }
            }
        }
        self.out.forward_into(&a.hidden, &mut a.log_probs);
        for r in 0..n {
            let lp = a.log_probs.row_slice_mut(r);
            log_softmax_in_place(lp);
            lp[PAD] = f32::NEG_INFINITY;
            lp[BOS] = f32::NEG_INFINITY;
            lp[UNK] = f32::NEG_INFINITY;
        }
        counts
    }

    /// Log-probabilities of the next token given the decoded `prefix`
    /// (which starts with BOS). Advances decoder states in place.
    ///
    /// PAD / BOS / UNK are masked to `-inf` so decoders never emit them.
    pub fn next_log_probs(
        &self,
        memory: &Tensor,
        state: &mut DecodeState,
        prefix: &[usize],
    ) -> Vec<f32> {
        self.next_log_probs_batch(memory, &mut [state], &[prefix])
            .pop()
            .expect("one row in, one row out")
    }

    /// Batched [`Self::next_log_probs`]: advances every candidate of one
    /// source by one step through a single stacked forward.
    pub fn next_log_probs_batch(
        &self,
        memory: &Tensor,
        states: &mut [&mut DecodeState],
        prefixes: &[&[usize]],
    ) -> Vec<Vec<f32>> {
        assert_eq!(states.len(), prefixes.len(), "one prefix per state");
        if states.is_empty() {
            return Vec::new();
        }
        with_step_arena(|a| {
            let counts = self.step(memory, &mut (states, prefixes), a);
            self.telemetry.record_decode(counts);
            (0..prefixes.len()).map(|r| a.log_probs.row_slice(r).to_vec()).collect()
        })
    }

    /// Head-averaged cross-attention maps of a teacher-forced pass
    /// (one per decoder layer for transformers; one for RNN decoders).
    /// Rows index target positions, columns source positions
    /// (source includes the trailing EOS). Used for Figure 6.
    pub fn cross_attention(&self, src: &[usize], tgt: &[usize]) -> Vec<Tensor> {
        let tape = Tape::new();
        let memory = self.encode_on_tape(&tape, src, &mut None);
        let (dec_in, _) = self.prep_tgt(tgt);
        let mut sink = Vec::new();
        match &self.dec {
            Decoder::Transformer(d) => {
                d.forward(&tape, &dec_in, memory, &mut None, Some(&mut sink));
            }
            Decoder::Recurrent(d) => {
                d.forward(&tape, &dec_in, memory, &mut None, Some(&mut sink));
            }
        }
        sink
    }

    /// Maximum target length this model decodes.
    pub fn max_tgt_len(&self) -> usize {
        self.config.max_tgt_len
    }
}

impl DecodeStep for Seq2Seq {
    type State = DecodeState;
    type Arena = StepArena;

    fn top_n(&self, src: &[usize], cfg: TopNSampling, rng: &mut StdRng) -> Vec<Hypothesis> {
        ARENA.with_borrow_mut(|arena| arena.top_n(self, src, cfg, rng))
    }

    fn telemetry(&self) -> &DecodeTelemetry {
        &self.telemetry
    }

    fn max_tgt_len(&self) -> usize {
        self.config.max_tgt_len
    }

    fn reset(&self, src: &[usize], a: &mut StepArena, template: &mut DecodeState) {
        self.encode_into(src, a);
        self.reset_state(&a.memory, template);
    }

    fn new_state(&self, a: &StepArena) -> DecodeState {
        self.start_state(&a.memory)
    }

    /// Drops a KV cache's share of its source's cross-attention K/V, so
    /// the template re-projects the next source into its own buffers.
    fn release(state: &mut DecodeState) {
        if let DecodeState::Transformer(cache) = state {
            cache.release_cross();
        }
    }

    fn step_rows(&self, rows: &mut impl DecodeRows<DecodeState>, a: &mut StepArena) -> DecodeStats {
        // Lend the source's memory out, so the kernel can borrow it beside
        // the arena's buffers.
        let memory = std::mem::take(&mut a.memory);
        let counts = self.step(&memory, rows, a);
        a.memory = memory;
        counts
    }

    fn first_tokens(&self, a: &StepArena, k: usize, pool: &mut Vec<(f32, usize)>) {
        top_pool(a.log_probs.row_slice(0), k, &[EOS], pool);
    }

    fn sample(
        &self,
        a: &StepArena,
        r: usize,
        n: usize,
        rng: &mut StdRng,
        pool: &mut Vec<(f32, usize)>,
    ) -> FusedStep {
        let lp = a.log_probs.row_slice(r);
        let token = sample_top_n(lp, n, rng, pool);
        FusedStep { token, log_prob: lp[token] }
    }
}

impl TopNDecoder for Seq2Seq {
    const NAME: &'static str = "q2q-direct";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(enc: ComponentKind, dec: ComponentKind) -> Seq2Seq {
        let mut cfg = ModelConfig::tiny_transformer(30);
        cfg.enc_kind = enc;
        cfg.dec_kind = dec;
        Seq2Seq::new(cfg, 3)
    }

    fn all_kinds() -> Vec<(ComponentKind, ComponentKind)> {
        use ComponentKind::*;
        vec![(Transformer, Transformer), (Rnn, Rnn), (Gru, Gru), (Transformer, Rnn)]
    }

    #[test]
    fn log_prob_is_finite_and_negative_for_all_architectures() {
        for (e, d) in all_kinds() {
            let m = model(e, d);
            let lp = m.log_prob(&[5, 6, 7], &[8, 9]);
            assert!(lp.is_finite() && lp < 0.0, "{e}/{d}: {lp}");
        }
    }

    #[test]
    fn next_log_probs_is_a_distribution_minus_specials() {
        for (e, d) in all_kinds() {
            let m = model(e, d);
            let mem = m.encode(&[5, 6]);
            let mut st = m.start_state(&mem);
            let lp = m.next_log_probs(&mem, &mut st, &[BOS]);
            assert_eq!(lp.len(), 30);
            assert_eq!(lp[PAD], f32::NEG_INFINITY);
            assert_eq!(lp[BOS], f32::NEG_INFINITY);
            assert_eq!(lp[UNK], f32::NEG_INFINITY);
            let sum: f32 = lp.iter().filter(|v| v.is_finite()).map(|v| v.exp()).sum();
            // Masked entries carried probability mass, so the rest sums < 1.
            assert!(sum > 0.5 && sum <= 1.0 + 1e-4, "{e}/{d}: {sum}");
        }
    }

    /// Chain rule: log P(tgt|src) must equal the sum of stepwise
    /// next-token log-probs along the target (before special masking).
    #[test]
    fn log_prob_matches_stepwise_decoding() {
        for (e, d) in all_kinds() {
            let m = model(e, d);
            let src = [5usize, 6, 7];
            let tgt = [9usize, 10];
            let lp = m.log_prob(&src, &tgt);

            let mem = m.encode(&src);
            let mut st = m.start_state(&mem);
            let mut prefix = vec![BOS];
            let mut total = 0.0;
            for &tok in tgt.iter().chain(std::iter::once(&EOS)) {
                // Recompute without the special-token mask by scoring via a
                // separate full softmax: the mask only hits PAD/BOS/UNK and
                // our targets avoid those, but the renormalization matters,
                // so read the unmasked value through log_prob consistency.
                let lps = m.next_log_probs(&mem, &mut st, &prefix);
                total += lps[tok];
                prefix.push(tok);
            }
            // The masking removes PAD/BOS/UNK mass *after* log_softmax
            // (values untouched), so the sums agree exactly.
            assert!((lp - total).abs() < 1e-3, "{e}/{d}: {lp} vs {total}");
        }
    }

    #[test]
    fn truncation_respects_limits() {
        let m = model(ComponentKind::Transformer, ComponentKind::Transformer);
        let long: Vec<usize> = (4..30).cycle().take(100).collect();
        // Must not panic (inputs are truncated to the configured maxima).
        let lp = m.log_prob(&long, &long);
        assert!(lp.is_finite());
    }

    #[test]
    fn perplexity_positive() {
        let m = model(ComponentKind::Gru, ComponentKind::Gru);
        let ppl = m.perplexity(&[4, 5], &[6]);
        assert!(ppl > 1.0 && ppl.is_finite());
    }

    #[test]
    fn label_smoothing_affects_training_loss_only() {
        let mut cfg = ModelConfig::tiny_transformer(30);
        cfg.label_smoothing = 0.2;
        cfg.dropout = 0.0;
        let m = Seq2Seq::new(cfg, 3);
        // Scoring path (ctx = None): unsmoothed.
        let plain = Seq2Seq::new(ModelConfig::tiny_transformer(30), 3);
        assert_eq!(m.log_prob(&[5, 6], &[7]), plain.log_prob(&[5, 6], &[7]));
        // Training path (ctx = Some): smoothed loss differs.
        let mut rng = qrw_tensor::rng::StdRng::seed_from_u64(1);
        let tape = Tape::new();
        let mut ctx = Some(TrainCtx { rng: &mut rng, dropout: 0.0 });
        let (smoothed, _) = m.nll_on_tape(&tape, &[5, 6], &[7], &mut ctx);
        let (unsmoothed, _) = m.nll_on_tape(&tape, &[5, 6], &[7], &mut None);
        assert!((smoothed.item() - unsmoothed.item()).abs() > 1e-4);
    }

    #[test]
    fn cross_attention_shapes() {
        let m = model(ComponentKind::Transformer, ComponentKind::Transformer);
        let maps = m.cross_attention(&[5, 6, 7], &[8, 9]);
        assert_eq!(maps.len(), 1); // one decoder layer in the tiny config
        // +1 col for source EOS; +1 row for BOS shift (dec_in = BOS + tgt).
        assert_eq!(maps[0].shape(), (3, 4));
    }

    #[test]
    fn training_reduces_nll_on_one_pair() {
        use qrw_tensor::optim::{Adam, AdamConfig};
        let m = model(ComponentKind::Transformer, ComponentKind::Transformer);
        let src = [5usize, 6];
        let tgt = [7usize, 8];
        let before = -m.log_prob(&src, &tgt);
        let mut adam = Adam::new(AdamConfig { lr: 0.01, ..Default::default() });
        for _ in 0..30 {
            m.params().zero_grads();
            let tape = Tape::new();
            let (nll, _) = m.nll_on_tape(&tape, &src, &tgt, &mut None);
            tape.backward(nll);
            adam.step(m.params());
        }
        let after = -m.log_prob(&src, &tgt);
        assert!(after < before * 0.5, "nll did not drop: {before} -> {after}");
    }
}
