//! Cyclic-consistent joint training — the paper's §III-C/§III-D and
//! Algorithm 1.
//!
//! Two translation models are trained on click-log pairs: the forward
//! (query→title) model maximizes `L_f`, the backward (title→query) model
//! `L_b`. After `G` warm-up steps the **cycle-consistency likelihood**
//!
//! ```text
//! L_c = Σ_n log Σ_{ŷ ∈ Ỹ} P(ŷ | x_n; θ_f) · P(x_n | ŷ; θ_b)
//! ```
//!
//! joins the objective with weight `λ`, where `Ỹ` is a top-k set of
//! synthetic titles sampled from the forward model with the top-n sampling
//! decoder (the tractable approximation of Eq. 4/5). Because both models'
//! log-likelihoods are nodes of one autodiff tape, the log-sum-exp couples
//! them and one backward pass produces the Eq. 5 gradients for both
//! parameter sets.

use std::io;
use std::path::Path;

use qrw_obs::Tracer;
use qrw_tensor::rng::StdRng;

use qrw_nmt::{top_n_sampling, Seq2Seq, TopNSampling};
use qrw_tensor::optim::{Adam, AdamConfig, NoamSchedule};
use qrw_tensor::{serialize, Tape, Var};
use qrw_data::Pair;

use crate::checkpoint::{
    self, CheckpointStore, ResumeError, TrainerState, BACKWARD_FILE, FORWARD_FILE, TRAINER_FILE,
};
use crate::config::TrainConfig;

/// The forward (query→title) and backward (title→query) models.
pub struct JointModel {
    pub forward: Seq2Seq,
    pub backward: Seq2Seq,
}

impl JointModel {
    pub fn new(forward: Seq2Seq, backward: Seq2Seq) -> Self {
        JointModel { forward, backward }
    }

    /// The cycle-consistency log-likelihood `log P(x|x)` for one query,
    /// marginalized over `titles` (empty titles skipped), as a tape node.
    ///
    /// Each model scores its k paths in one stacked pass
    /// ([`Seq2Seq::nll_stacked_on_tape`]): the forward model the k
    /// (query → title) pairs, the backward model the k (title → query)
    /// pairs. The path scores `log P(ŷ|x) + log P(x|ŷ)` are one `k x 1`
    /// column under the log-sum-exp. Values and flushed gradients are
    /// bitwise those of 2k separate passes (the frozen per-path oracle in
    /// this module's tests pins that).
    pub fn cyclic_log_likelihood<'t>(
        &self,
        tape: &'t Tape,
        query: &[usize],
        titles: &[Vec<usize>],
    ) -> Var<'t> {
        assert!(!titles.is_empty(), "cyclic term needs at least one synthetic title");
        let titles: Vec<&[usize]> =
            titles.iter().map(Vec::as_slice).filter(|t| !t.is_empty()).collect();
        assert!(!titles.is_empty(), "all synthetic titles were empty");
        let q2t: Vec<(&[usize], &[usize])> = titles.iter().map(|&t| (query, t)).collect();
        let t2q: Vec<(&[usize], &[usize])> = titles.iter().map(|&t| (t, query)).collect();
        let nll_f = self.forward.nll_stacked_on_tape(tape, &q2t);
        let nll_b = self.backward.nll_stacked_on_tape(tape, &t2q);
        // log P_f + log P_b = -(nll_f + nll_b)
        Var::log_sum_exp_scalars(&[nll_f.add(nll_b).scale(-1.0)])
    }

    /// Samples `k` synthetic titles for `query` from the forward model
    /// (top-n sampling, §III-F), dropping empties.
    pub fn sample_titles(
        &self,
        query: &[usize],
        k: usize,
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<usize>> {
        top_n_sampling(&self.forward, query, TopNSampling { k, n }, rng)
            .into_iter()
            .map(|h| h.tokens)
            .filter(|t| !t.is_empty())
            .collect()
    }

    /// Evaluation: `log P(x|x)` marginalized over `k` sampled titles
    /// (the paper's "Log probability" convergence metric).
    pub fn translate_back_log_prob(
        &self,
        query: &[usize],
        k: usize,
        n: usize,
        rng: &mut StdRng,
    ) -> f32 {
        let titles = self.sample_titles(query, k, n, rng);
        if titles.is_empty() {
            return f32::NEG_INFINITY;
        }
        let paths: Vec<f32> = titles
            .iter()
            .map(|t| self.forward.log_prob(query, t) + self.backward.log_prob(t, query))
            .collect();
        qrw_tensor::log_sum_exp(&paths)
    }

    /// Evaluation: fraction of positions where the backward model's argmax
    /// over a synthetic title reproduces the original query token (the
    /// paper's "Accuracy" convergence metric).
    pub fn translate_back_accuracy(
        &self,
        query: &[usize],
        k: usize,
        n: usize,
        rng: &mut StdRng,
    ) -> f32 {
        let titles = self.sample_titles(query, k, n, rng);
        if titles.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        let mut total = 0usize;
        for title in &titles {
            let memory = self.backward.encode(title);
            let mut state = self.backward.start_state(&memory);
            let mut prefix = vec![qrw_text::BOS];
            for &tok in query.iter().chain(std::iter::once(&qrw_text::EOS)) {
                let lp = self.backward.next_log_probs(&memory, &mut state, &prefix);
                let argmax = lp
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                if argmax == tok {
                    correct += 1;
                }
                total += 1;
                prefix.push(tok);
            }
        }
        correct as f32 / total.max(1) as f32
    }
}

/// One evaluation snapshot along the training trajectory (a Figure 7/8/9
/// curve point), including the cumulative divergence-sentinel counters at
/// snapshot time so the persisted curve tells *how* the run got there.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CurvePoint {
    pub step: u64,
    /// Forward (q2t) per-token perplexity on the eval pairs.
    pub ppl_q2t: f32,
    /// Backward (t2q) per-token perplexity on the eval pairs.
    pub ppl_t2q: f32,
    /// Mean translate-back log-probability over eval queries.
    pub log_prob: f32,
    /// Mean translate-back token accuracy over eval queries.
    pub accuracy: f32,
    /// Steps skipped by sentinels (non-finite or spiking loss) so far.
    pub skipped_steps: u64,
    /// Rollbacks to the last good checkpoint so far.
    pub rollbacks: u64,
    /// Non-finite gradient events so far.
    pub nan_grad_events: u64,
}

/// Full training trajectory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainingCurve {
    pub points: Vec<CurvePoint>,
}

impl TrainingCurve {
    pub fn last(&self) -> Option<&CurvePoint> {
        self.points.last()
    }
}

/// Whether the cyclic term is used after warm-up (joint) or never
/// (the paper's "separate" ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainMode {
    Separate,
    Joint,
}

/// Cumulative divergence-sentinel telemetry for one training process —
/// the training-side counterpart of the serving crate's `HealthReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrainHealthReport {
    /// Steps whose batch loss was NaN/Inf.
    pub nan_loss_events: u64,
    /// Steps whose gradient norm was NaN/Inf.
    pub nan_grad_events: u64,
    /// Steps that applied no optimizer update (non-finite or spiking).
    pub skipped_steps: u64,
    /// Loss-spike detections.
    pub loss_spikes: u64,
    /// Rollbacks to the last good checkpoint.
    pub rollbacks: u64,
    /// Checkpoints committed by this trainer.
    pub checkpoints_written: u64,
}

/// Verdict of the loss-spike sentinel for one observed batch loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpikeVerdict {
    /// Within the baseline: apply the update.
    Normal,
    /// Spiking: skip the update, keep the baseline.
    Spike,
    /// `patience` consecutive spikes: roll back if a checkpoint exists.
    Rollback,
}

/// Loss-spike detector: a window of recent *healthy* losses is the
/// baseline; a loss above `factor ×` the window median is a spike. Spikes
/// do not enter the baseline (one bad step must not legitimize the next),
/// and `patience` consecutive spikes escalate to a rollback verdict.
#[derive(Clone, Debug)]
pub struct SpikeDetector {
    window: Vec<f32>,
    capacity: usize,
    factor: f32,
    patience: u32,
    consecutive: u32,
}

impl SpikeDetector {
    pub fn new(capacity: usize, factor: f32, patience: u32) -> Self {
        SpikeDetector { window: Vec::new(), capacity, factor, patience, consecutive: 0 }
    }

    /// Restores a detector snapshot (checkpoint resume).
    pub fn restore(
        capacity: usize,
        factor: f32,
        patience: u32,
        window: Vec<f32>,
        consecutive: u32,
    ) -> Self {
        let mut d = SpikeDetector { window, capacity, factor, patience, consecutive };
        d.window.truncate(capacity.max(1));
        d
    }

    pub fn window(&self) -> &[f32] {
        &self.window
    }

    pub fn consecutive(&self) -> u32 {
        self.consecutive
    }

    /// Classifies `loss` against the baseline and updates detector state.
    /// Detection is armed only once the window is full; capacity 0
    /// disables the detector entirely.
    pub fn observe(&mut self, loss: f32) -> SpikeVerdict {
        if self.capacity == 0 {
            return SpikeVerdict::Normal;
        }
        if self.window.len() == self.capacity && loss > self.factor * self.median() {
            self.consecutive += 1;
            return if self.consecutive >= self.patience.max(1) {
                SpikeVerdict::Rollback
            } else {
                SpikeVerdict::Spike
            };
        }
        self.consecutive = 0;
        self.window.push(loss);
        if self.window.len() > self.capacity {
            self.window.remove(0);
        }
        SpikeVerdict::Normal
    }

    /// Adopts the new loss level as baseline (rollback budget exhausted):
    /// clears history so detection re-arms on post-spike data.
    pub fn rebaseline(&mut self) {
        self.window.clear();
        self.consecutive = 0;
    }

    fn median(&self) -> f32 {
        let mut sorted = self.window.clone();
        sorted.sort_by(f32::total_cmp);
        sorted[sorted.len() / 2]
    }
}

/// The Algorithm 1 trainer.
///
/// Beyond the optimization loop itself, the trainer owns the crash-safety
/// machinery: it accumulates the [`TrainingCurve`] across `train` calls,
/// counts sentinel events, and (when a [`CheckpointStore`] is attached)
/// periodically commits its **full** state — weights, Adam moments, Noam
/// position, shuffle-RNG state, warm-up mode, curve and counters — so
/// [`CyclicTrainer::resume`] continues bit-for-bit where a killed run
/// stopped.
pub struct CyclicTrainer {
    config: TrainConfig,
    adam: Adam,
    schedule: NoamSchedule,
    rng: StdRng,
    step: u64,
    d_model: usize,
    curve: TrainingCurve,
    health: TrainHealthReport,
    spikes: SpikeDetector,
    store: Option<CheckpointStore>,
    tracer: Option<Tracer>,
}

impl CyclicTrainer {
    pub fn new(config: TrainConfig, d_model: usize) -> Self {
        let schedule = NoamSchedule::new(config.lr_factor, d_model, config.noam_warmup);
        CyclicTrainer {
            adam: Adam::new(AdamConfig { lr: 0.05, ..Default::default() }),
            rng: StdRng::seed_from_u64(config.seed),
            spikes: SpikeDetector::new(config.spike_window, config.spike_factor, config.spike_patience),
            schedule,
            config,
            step: 0,
            d_model,
            curve: TrainingCurve::default(),
            health: TrainHealthReport::default(),
            store: None,
            tracer: None,
        }
    }

    /// Attaches a checkpoint store (enables periodic checkpoints, the
    /// rollback sentinel, and [`CyclicTrainer::save_checkpoint`]).
    pub fn with_checkpoints(mut self, store: CheckpointStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches a span tracer: each training step records a `step` span
    /// (trace id = step number) with per-example `forward`/`backward`
    /// children, an `opt` span for the optimizer update, `eval` spans,
    /// and `checkpoint` spans for commits.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached span tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    pub fn step_count(&self) -> u64 {
        self.step
    }

    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// The accumulated training trajectory (across `train` calls and
    /// checkpoint resumes).
    pub fn curve(&self) -> &TrainingCurve {
        &self.curve
    }

    /// Sentinel telemetry for this trainer process.
    pub fn health_report(&self) -> TrainHealthReport {
        self.health
    }

    /// Commits a full-state checkpoint for the current step: the two
    /// models' weights (v2 `QRWT`), the trainer state (`QRWS`), a sealing
    /// manifest, and the `LATEST` pointer — every file through the
    /// atomic temp + fsync + rename path.
    pub fn save_checkpoint(&mut self, model: &JointModel, mode: TrainMode) -> io::Result<()> {
        let store = self.store.as_ref().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "no checkpoint store attached")
        })?;
        let mut span = self.tracer.as_ref().map(|t| t.span(self.step, None, "checkpoint"));
        let state = TrainerState {
            config: self.config.clone(),
            d_model: self.d_model,
            step: self.step,
            mode,
            rng_state: self.rng.state(),
            adam_steps: self.adam.steps(),
            adam_forward: self.adam.export_moments(model.forward.params()),
            adam_backward: self.adam.export_moments(model.backward.params()),
            curve: self.curve.clone(),
            health: self.health,
            spike_window_vals: self.spikes.window().to_vec(),
            spike_consecutive: self.spikes.consecutive(),
        };
        let members = [
            (FORWARD_FILE, serialize::save(model.forward.params())),
            (BACKWARD_FILE, serialize::save(model.backward.params())),
            (TRAINER_FILE, checkpoint::encode_state(&state)),
        ];
        let result = store.save(self.step, &members);
        if let Some(s) = span.as_mut() {
            s.attr("ok", result.is_ok());
        }
        drop(span);
        result?;
        self.health.checkpoints_written += 1;
        Ok(())
    }

    /// Restores the newest committed-and-valid checkpoint under `dir`
    /// into `model` and rebuilds the trainer exactly as it was: the
    /// continuation is bitwise-identical to the uninterrupted run.
    /// Returns the trainer and the [`TrainMode`] the checkpoint was
    /// training under.
    pub fn resume(
        dir: impl AsRef<Path>,
        model: &JointModel,
    ) -> Result<(CyclicTrainer, TrainMode), ResumeError> {
        Self::resume_with_store(CheckpointStore::new(dir.as_ref()), model)
    }

    /// [`CyclicTrainer::resume`] with an explicit store (custom sink).
    pub fn resume_with_store(
        store: CheckpointStore,
        model: &JointModel,
    ) -> Result<(CyclicTrainer, TrainMode), ResumeError> {
        let state = Self::load_latest_into(&store, model)?;
        let mut trainer = Self::from_state(&state, model)?;
        trainer.store = Some(store);
        Ok((trainer, state.mode))
    }

    /// Loads the newest valid checkpoint's weights into `model` and
    /// returns the decoded trainer state. The model is only mutated after
    /// *both* member files parse, so a failed resume never leaves a
    /// half-restored pair.
    fn load_latest_into(
        store: &CheckpointStore,
        model: &JointModel,
    ) -> Result<TrainerState, ResumeError> {
        let (step, path) = store.latest_valid()?;
        let fwd = std::fs::read(path.join(FORWARD_FILE))?;
        let bwd = std::fs::read(path.join(BACKWARD_FILE))?;
        let state = checkpoint::decode_state(&std::fs::read(path.join(TRAINER_FILE))?)?;
        if state.step != step {
            return Err(ResumeError::State(format!(
                "trainer state step {} does not match checkpoint directory step {step}",
                state.step
            )));
        }
        let fwd_records = serialize::parse(&fwd)?;
        let bwd_records = serialize::parse(&bwd)?;
        drop((fwd_records, bwd_records)); // parsed OK: structural validation done
        serialize::load(model.forward.params(), &fwd)?;
        serialize::load(model.backward.params(), &bwd)?;
        Ok(state)
    }

    /// Rebuilds a trainer from decoded state + restored model weights.
    fn from_state(state: &TrainerState, model: &JointModel) -> Result<CyclicTrainer, ResumeError> {
        let mut adam = Adam::new(AdamConfig { lr: 0.05, ..Default::default() });
        adam.set_steps(state.adam_steps);
        adam.import_moments(model.forward.params(), &state.adam_forward)
            .map_err(ResumeError::State)?;
        adam.import_moments(model.backward.params(), &state.adam_backward)
            .map_err(ResumeError::State)?;
        let schedule =
            NoamSchedule::new(state.config.lr_factor, state.d_model, state.config.noam_warmup);
        Ok(CyclicTrainer {
            adam,
            schedule,
            rng: StdRng::seed_from_u64(state.rng_state),
            step: state.step,
            d_model: state.d_model,
            curve: state.curve.clone(),
            health: state.health,
            spikes: SpikeDetector::restore(
                state.config.spike_window,
                state.config.spike_factor,
                state.config.spike_patience,
                state.spike_window_vals.clone(),
                state.spike_consecutive,
            ),
            config: state.config.clone(),
            store: None,
            tracer: None,
        })
    }

    /// Rolls this trainer (and `model`) back to the newest valid
    /// checkpoint. Process-level telemetry (health counters) survives the
    /// rollback — it describes this run, not the restored state. Returns
    /// the step rolled back to.
    pub fn rollback_to_last_good(&mut self, model: &JointModel) -> Result<u64, ResumeError> {
        let store = self.store.as_ref().ok_or(ResumeError::NoCheckpoint)?;
        let state = Self::load_latest_into(store, model)?;
        let health = self.health; // keep this process's telemetry
        let restored = Self::from_state(&state, model)?;
        let step = restored.step;
        self.adam = restored.adam;
        self.schedule = restored.schedule;
        self.rng = restored.rng;
        self.step = restored.step;
        self.curve = restored.curve;
        self.spikes = restored.spikes;
        self.spikes.rebaseline();
        self.health = health;
        self.health.rollbacks += 1;
        Ok(step)
    }

    /// Runs Algorithm 1 for `config.steps` *further* steps over `data`
    /// (query→title pairs), evaluating on `eval` every `eval_every` steps
    /// and at the end of the run. Returns the full accumulated curve, so a
    /// resumed run's return value equals the uninterrupted run's.
    ///
    /// `mode == Separate` trains `L_f` and `L_b` only; `Joint` adds the
    /// `λ L_c` term after `warmup_steps`.
    ///
    /// Divergence sentinels guard every step: a non-finite batch loss or
    /// gradient norm skips the optimizer update, and a spiking loss
    /// (per [`SpikeDetector`]) is first skipped, then — after
    /// `spike_patience` consecutive spikes — rolled back to the last good
    /// checkpoint. The rollback budget is `max_rollbacks` per `train`
    /// call (the trainer is deterministic, so unbounded retries of a
    /// genuinely divergent run would livelock); past the budget the
    /// detector re-baselines and training pushes on.
    pub fn train(
        &mut self,
        model: &JointModel,
        data: &[Pair],
        eval: &[Pair],
        mode: TrainMode,
    ) -> TrainingCurve {
        assert!(!data.is_empty(), "training data must be non-empty");
        // Click-weighted sampling distribution over pairs.
        let cum = cumulative_weights(data);
        // Resume-safe loop bound: `config.steps` more steps from wherever
        // this trainer currently stands (0 for a fresh trainer).
        let end = self.step + self.config.steps;
        let mut rollbacks_done = 0u32;
        // Cheap Arc clone so span guards don't hold a borrow of `self`
        // across the loop's mutations.
        let tracer = self.tracer.clone();

        while self.step < end {
            self.step += 1;
            let lr = self.schedule.lr(self.step);
            let cyclic = mode == TrainMode::Joint && self.step > self.config.warmup_steps;
            // One trace per training step (trace id = step number).
            let mut step_span = tracer.as_ref().map(|t| {
                let mut s = t.span(self.step, None, "step");
                s.attr("lr", f64::from(lr));
                s.attr("cyclic", cyclic);
                s
            });
            let step_ids = step_span.as_ref().map(|s| (s.trace(), s.id()));
            let trace_ctx: Option<(&Tracer, u64, u64)> =
                tracer.as_ref().zip(step_ids).map(|(t, (tr, id))| (t, tr, id));

            model.forward.params().zero_grads();
            model.backward.params().zero_grads();

            // Example indices are drawn sequentially (deterministic), then
            // each batch slot gets an independent RNG derived from
            // (seed, step, slot) so serial and parallel execution use the
            // same per-example randomness.
            let indices: Vec<usize> = (0..self.config.batch_size)
                .map(|_| sample_index(&cum, &mut self.rng))
                .collect();
            let step_seed =
                self.config.seed ^ self.step.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let config = &self.config;
            let process = |slot: usize, idx: usize| {
                let mut rng =
                    StdRng::seed_from_u64(step_seed.wrapping_add(slot as u64 * 0x51_7cc1));
                example_backward(model, &data[idx], cyclic, config, &mut rng, trace_ctx)
            };
            let losses: Vec<Option<f32>> = if self.config.parallel && self.config.batch_size > 1
            {
                // Gradients accumulate behind each Param's lock; summation
                // order (and thus low-order float bits) depends on thread
                // scheduling — the standard data-parallel trade-off. Losses
                // are collected per join handle, so their slot order (and
                // the batch loss) stays deterministic. A worker panic
                // propagates at join; training is offline, so unlike the
                // serve path it may fail loudly.
                std::thread::scope(|scope| {
                    let handles: Vec<_> = indices
                        .iter()
                        .enumerate()
                        .map(|(slot, &idx)| scope.spawn(move || process(slot, idx)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("training worker panicked"))
                        .collect()
                })
            } else {
                indices.iter().enumerate().map(|(slot, &idx)| process(slot, idx)).collect()
            };

            let scale = 1.0 / self.config.batch_size as f32;
            let batch_loss = losses.iter().flatten().sum::<f32>() * scale;

            if !batch_loss.is_finite() {
                // Sentinel 1: poisoned loss. The gradients are tainted too;
                // drop the whole step.
                self.health.nan_loss_events += 1;
                self.health.skipped_steps += 1;
            } else {
                for params in [model.forward.params(), model.backward.params()] {
                    for p in params {
                        p.scale_grad(scale);
                    }
                }
                let grads_finite = model.forward.params().global_grad_norm().is_finite()
                    && model.backward.params().global_grad_norm().is_finite();
                if !grads_finite {
                    // Sentinel 2: finite loss but non-finite gradients
                    // (overflow in backward).
                    self.health.nan_grad_events += 1;
                    self.health.skipped_steps += 1;
                } else {
                    match self.spikes.observe(batch_loss) {
                        SpikeVerdict::Normal => {
                            let opt_span = trace_ctx
                                .map(|(t, tr, id)| t.span(tr, Some(id), "opt"));
                            for params in [model.forward.params(), model.backward.params()] {
                                params.clip_grad_norm(self.config.grad_clip);
                            }
                            self.adam.step_with_lr(model.forward.params(), lr);
                            self.adam.step_with_lr(model.backward.params(), lr);
                            drop(opt_span);
                        }
                        SpikeVerdict::Spike => {
                            // Sentinel 3: loss spike — skip, keep watching.
                            self.health.loss_spikes += 1;
                            self.health.skipped_steps += 1;
                        }
                        SpikeVerdict::Rollback => {
                            self.health.loss_spikes += 1;
                            let can_roll = self.store.is_some()
                                && rollbacks_done < self.config.max_rollbacks;
                            if can_roll && self.rollback_to_last_good(model).is_ok() {
                                rollbacks_done += 1;
                                // Step counter, RNG, curve, optimizer and
                                // weights are all restored; re-run from
                                // the checkpoint.
                                continue;
                            }
                            // No checkpoint (or budget spent): accept the
                            // new loss level instead of livelocking.
                            self.spikes.rebaseline();
                            self.health.skipped_steps += 1;
                        }
                    }
                }
            }

            if let Some(s) = step_span.as_mut() {
                s.attr("loss", f64::from(batch_loss));
            }
            let at_eval =
                self.config.eval_every > 0 && self.step.is_multiple_of(self.config.eval_every);
            if at_eval || self.step == end {
                let eval_span = trace_ctx.map(|(t, tr, id)| t.span(tr, Some(id), "eval"));
                let point = self.evaluate(model, eval);
                drop(eval_span);
                self.curve.points.push(point);
            }
            // Checkpoint after the eval so a snapshot at an eval step
            // carries its own curve point (resume replays from here).
            if self.store.is_some()
                && self.config.checkpoint_every > 0
                && self.step.is_multiple_of(self.config.checkpoint_every)
            {
                // A failed write (e.g. disk full) must not kill training:
                // the previous good checkpoint stays valid and the next
                // interval retries.
                let _ = self.save_checkpoint(model, mode);
            }
        }
        self.curve.clone()
    }

    /// Computes the Figure 7 metrics on the eval pairs with a fixed RNG so
    /// curve noise comes from the models, not the evaluation.
    pub fn evaluate(&self, model: &JointModel, eval: &[Pair]) -> CurvePoint {
        let mut nll_f = 0.0f64;
        let mut tok_f = 0usize;
        let mut nll_b = 0.0f64;
        let mut tok_b = 0usize;
        let mut lp = 0.0f64;
        let mut acc = 0.0f64;
        let mut n_queries = 0usize;
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5eed);
        for pair in eval {
            if pair.src.is_empty() || pair.tgt.is_empty() {
                continue;
            }
            {
                let tape = Tape::new();
                let (nll, count) = model.forward.nll_on_tape(&tape, &pair.src, &pair.tgt, &mut None);
                nll_f += nll.item() as f64;
                tok_f += count;
            }
            {
                let tape = Tape::new();
                let (nll, count) = model.backward.nll_on_tape(&tape, &pair.tgt, &pair.src, &mut None);
                nll_b += nll.item() as f64;
                tok_b += count;
            }
            lp += model
                .translate_back_log_prob(&pair.src, self.config.beam_width, self.config.top_n, &mut rng)
                .max(-1e4) as f64;
            acc += model
                .translate_back_accuracy(&pair.src, self.config.beam_width, self.config.top_n, &mut rng)
                as f64;
            n_queries += 1;
        }
        let nq = n_queries.max(1) as f64;
        CurvePoint {
            step: self.step,
            ppl_q2t: ((nll_f / tok_f.max(1) as f64).exp()) as f32,
            ppl_t2q: ((nll_b / tok_b.max(1) as f64).exp()) as f32,
            log_prob: (lp / nq) as f32,
            accuracy: (acc / nq) as f32,
            skipped_steps: self.health.skipped_steps,
            rollbacks: self.health.rollbacks,
            nan_grad_events: self.health.nan_grad_events,
        }
    }
}

fn train_ctx(rng: &mut StdRng, dropout: f32) -> Option<qrw_nmt::layers::TrainCtx<'_>> {
    if dropout > 0.0 {
        Some(qrw_nmt::layers::TrainCtx { rng, dropout })
    } else {
        None
    }
}

/// One Algorithm 1 example: builds the `L_f + L_b (+ λ L_c)` loss on a
/// fresh tape and flushes gradients into both models' parameters. Safe to
/// run concurrently across batch slots (parameter gradient accumulation
/// is locked per parameter). Returns the example's loss value for the
/// divergence sentinels (`None` for an empty pair, which contributes no
/// gradient).
fn example_backward(
    model: &JointModel,
    pair: &Pair,
    cyclic: bool,
    config: &TrainConfig,
    rng: &mut StdRng,
    trace: Option<(&Tracer, u64, u64)>,
) -> Option<f32> {
    if pair.src.is_empty() || pair.tgt.is_empty() {
        return None;
    }
    let tape = Tape::new();
    let forward_span = trace.map(|(t, tr, parent)| t.span(tr, Some(parent), "forward"));
    let (nll_f, _) = {
        let mut ctx = train_ctx(rng, model.forward.config().dropout);
        model.forward.nll_on_tape(&tape, &pair.src, &pair.tgt, &mut ctx)
    };
    let (nll_b, _) = {
        let mut ctx = train_ctx(rng, model.backward.config().dropout);
        model.backward.nll_on_tape(&tape, &pair.tgt, &pair.src, &mut ctx)
    };
    let mut loss = nll_f.add(nll_b);
    if cyclic {
        let titles = model.sample_titles(&pair.src, config.beam_width, config.top_n, rng);
        if !titles.is_empty() {
            let lc = model.cyclic_log_likelihood(&tape, &pair.src, &titles);
            loss = loss.add(lc.scale(-config.lambda));
        }
    }
    let value = loss.item();
    drop(forward_span);
    let backward_span = trace.map(|(t, tr, parent)| t.span(tr, Some(parent), "backward"));
    tape.backward(loss);
    drop(backward_span);
    Some(value)
}

fn cumulative_weights(data: &[Pair]) -> Vec<f64> {
    let mut cum = Vec::with_capacity(data.len());
    let mut total = 0.0f64;
    for p in data {
        total += f64::from(p.weight.max(1));
        cum.push(total);
    }
    cum
}

fn sample_index(cum: &[f64], rng: &mut StdRng) -> usize {
    let total = *cum.last().expect("non-empty data");
    let draw = rng.gen::<f64>() * total;
    match cum.binary_search_by(|x| x.total_cmp(&draw)) {
        Ok(i) | Err(i) => i.min(cum.len() - 1),
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use qrw_nmt::ModelConfig;

    fn tiny_pairs() -> Vec<Pair> {
        // A 3-pattern toy language: query [10, cat] -> title [20, cat, 21].
        let mut pairs = Vec::new();
        for cat in 4..8usize {
            pairs.push(Pair { src: vec![10, cat], tgt: vec![20, cat, 21], weight: 3 });
            pairs.push(Pair { src: vec![11, cat], tgt: vec![20, cat, 22], weight: 2 });
        }
        pairs
    }

    fn tiny_joint(seed: u64) -> JointModel {
        let cfg = ModelConfig::tiny_transformer(24);
        JointModel::new(Seq2Seq::new(cfg.clone(), seed), Seq2Seq::new(cfg, seed + 1))
    }

    #[test]
    fn cyclic_log_likelihood_is_finite_scalar() {
        let m = tiny_joint(1);
        let tape = Tape::new();
        let lc = m.cyclic_log_likelihood(&tape, &[10, 5], &[vec![20, 5, 21], vec![20, 5, 22]]);
        assert_eq!(lc.shape(), (1, 1));
        assert!(lc.item().is_finite());
        assert!(lc.item() < 0.0);
    }

    #[test]
    fn cyclic_backward_reaches_both_models() {
        let m = tiny_joint(2);
        m.forward.params().zero_grads();
        m.backward.params().zero_grads();
        let tape = Tape::new();
        let lc = m.cyclic_log_likelihood(&tape, &[10, 5], &[vec![20, 5, 21]]);
        tape.backward(lc.scale(-1.0));
        assert!(m.forward.params().global_grad_norm() > 0.0);
        assert!(m.backward.params().global_grad_norm() > 0.0);
    }

    #[test]
    fn training_improves_both_perplexities() {
        let m = tiny_joint(3);
        let data = tiny_pairs();
        let cfg = TrainConfig {
            steps: 60,
            warmup_steps: 40,
            batch_size: 4,
            eval_every: 0,
            top_n: 4,
            lr_factor: 0.4,
            noam_warmup: 20,
            ..Default::default()
        };
        let mut trainer = CyclicTrainer::new(cfg, 32);
        let before = trainer.evaluate(&m, &data);
        let curve = trainer.train(&m, &data, &data, TrainMode::Joint);
        let after = curve.last().unwrap();
        assert!(after.ppl_q2t < before.ppl_q2t, "{} -> {}", before.ppl_q2t, after.ppl_q2t);
        assert!(after.ppl_t2q < before.ppl_t2q, "{} -> {}", before.ppl_t2q, after.ppl_t2q);
        assert!(after.log_prob > before.log_prob);
    }

    #[test]
    fn trainer_is_deterministic() {
        let run = || {
            let m = tiny_joint(4);
            let cfg = TrainConfig {
                steps: 10,
                warmup_steps: 5,
                batch_size: 2,
                eval_every: 0,
                top_n: 4,
                ..Default::default()
            };
            let mut t = CyclicTrainer::new(cfg, 32);
            let curve = t.train(&m, &tiny_pairs(), &tiny_pairs()[..2], TrainMode::Joint);
            curve.last().unwrap().ppl_q2t
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn separate_mode_never_uses_cyclic_term() {
        // Indistinguishable from joint during warm-up; after warm-up the
        // runs diverge. Check separate == separate and separate != joint.
        let run = |mode: TrainMode| {
            let m = tiny_joint(5);
            let cfg = TrainConfig {
                steps: 20,
                warmup_steps: 5,
                batch_size: 2,
                eval_every: 0,
                top_n: 4,
                ..Default::default()
            };
            let mut t = CyclicTrainer::new(cfg, 32);
            let curve = t.train(&m, &tiny_pairs(), &tiny_pairs()[..2], mode);
            curve.last().unwrap().ppl_q2t
        };
        assert_eq!(run(TrainMode::Separate), run(TrainMode::Separate));
        assert_ne!(run(TrainMode::Separate), run(TrainMode::Joint));
    }

    #[test]
    fn parallel_training_improves_metrics_too() {
        let m = tiny_joint(7);
        let data = tiny_pairs();
        let cfg = TrainConfig {
            steps: 40,
            warmup_steps: 25,
            batch_size: 4,
            eval_every: 0,
            top_n: 4,
            parallel: true,
            ..Default::default()
        };
        let mut trainer = CyclicTrainer::new(cfg, 32);
        let before = trainer.evaluate(&m, &data);
        let curve = trainer.train(&m, &data, &data, TrainMode::Joint);
        let after = curve.last().unwrap();
        assert!(after.ppl_q2t < before.ppl_q2t, "{} -> {}", before.ppl_q2t, after.ppl_q2t);
        assert!(after.ppl_q2t.is_finite());
    }

    #[test]
    fn translate_back_metrics_bounded() {
        let m = tiny_joint(6);
        let mut rng = StdRng::seed_from_u64(1);
        let acc = m.translate_back_accuracy(&[10, 5], 2, 4, &mut rng);
        assert!((0.0..=1.0).contains(&acc));
        let lp = m.translate_back_log_prob(&[10, 5], 2, 4, &mut rng);
        assert!(lp < 0.0);
    }

    #[test]
    fn spike_detector_arms_only_on_full_window() {
        let mut d = SpikeDetector::new(3, 2.0, 2);
        // Below capacity nothing is a spike, even a huge loss.
        assert_eq!(d.observe(1.0), SpikeVerdict::Normal);
        assert_eq!(d.observe(100.0), SpikeVerdict::Normal);
        assert_eq!(d.observe(1.0), SpikeVerdict::Normal);
        // Window now [1, 100, 1], median 1: 5.0 > 2×1 is a spike.
        assert_eq!(d.observe(5.0), SpikeVerdict::Spike);
        assert_eq!(d.consecutive(), 1);
        // Second consecutive spike reaches patience → rollback verdict.
        assert_eq!(d.observe(5.0), SpikeVerdict::Rollback);
        // A healthy loss resets the streak and joins the baseline.
        assert_eq!(d.observe(1.5), SpikeVerdict::Normal);
        assert_eq!(d.consecutive(), 0);
    }

    #[test]
    fn spike_detector_baseline_excludes_spikes_and_rebaseline_rearms() {
        let mut d = SpikeDetector::new(2, 2.0, 1);
        assert_eq!(d.observe(1.0), SpikeVerdict::Normal);
        assert_eq!(d.observe(1.0), SpikeVerdict::Normal);
        // Patience 1: first spike escalates straight to rollback, and the
        // spiking value must NOT have entered the window.
        assert_eq!(d.observe(10.0), SpikeVerdict::Rollback);
        assert_eq!(d.window(), &[1.0, 1.0]);
        // After rebaseline the detector re-learns from scratch: the same
        // high loss is now just data.
        d.rebaseline();
        assert_eq!(d.observe(10.0), SpikeVerdict::Normal);
        assert_eq!(d.window(), &[10.0]);
    }

    #[test]
    fn spike_detector_zero_capacity_disables_detection() {
        let mut d = SpikeDetector::new(0, 2.0, 1);
        for x in [1.0, 1e9, f32::MAX] {
            assert_eq!(d.observe(x), SpikeVerdict::Normal);
        }
    }

    #[test]
    fn spike_detector_restore_resumes_mid_streak() {
        let mut a = SpikeDetector::new(3, 2.0, 3);
        for x in [1.0, 1.0, 1.0, 9.0] {
            a.observe(x);
        }
        let mut b =
            SpikeDetector::restore(3, 2.0, 3, a.window().to_vec(), a.consecutive());
        // Identical verdicts from here on — the streak continues where it
        // left off (second spike), then escalates at the third.
        assert_eq!(a.observe(9.0), b.observe(9.0));
        assert_eq!(a.observe(9.0), SpikeVerdict::Rollback);
        assert_eq!(b.observe(9.0), SpikeVerdict::Rollback);
    }

    #[test]
    fn nan_poisoned_weights_skip_every_step_without_updates() {
        let m = tiny_joint(8);
        // Poison one forward parameter: every loss becomes non-finite.
        let p = m.forward.params().iter().next().unwrap();
        let (r, c) = p.shape();
        p.set_value(qrw_tensor::Tensor::from_vec(r, c, vec![f32::NAN; r * c]));
        let cfg = TrainConfig {
            steps: 3,
            warmup_steps: 10,
            batch_size: 2,
            eval_every: 0,
            top_n: 4,
            ..Default::default()
        };
        let mut t = CyclicTrainer::new(cfg, 32);
        let backward_before = serialize::save(m.backward.params());
        let curve = t.train(&m, &tiny_pairs(), &tiny_pairs()[..1], TrainMode::Separate);
        let h = t.health_report();
        assert_eq!(h.nan_loss_events, 3);
        assert_eq!(h.skipped_steps, 3);
        // The sentinel counters ride along on the curve points.
        assert_eq!(curve.last().unwrap().skipped_steps, 3);
        // No optimizer update ever ran: the healthy model is untouched.
        assert_eq!(serialize::save(m.backward.params()), backward_before);
    }

    #[test]
    fn curve_accumulates_across_train_calls_with_resumed_step_numbers() {
        let m = tiny_joint(9);
        let cfg = TrainConfig {
            steps: 4,
            warmup_steps: 10,
            batch_size: 2,
            eval_every: 2,
            top_n: 4,
            ..Default::default()
        };
        let mut t = CyclicTrainer::new(cfg, 32);
        let first = t.train(&m, &tiny_pairs(), &tiny_pairs()[..1], TrainMode::Separate);
        assert_eq!(first.points.iter().map(|p| p.step).collect::<Vec<_>>(), vec![2, 4]);
        // A second call continues at step 5, not back at 1, and returns
        // the full accumulated trajectory.
        let second = t.train(&m, &tiny_pairs(), &tiny_pairs()[..1], TrainMode::Separate);
        assert_eq!(
            second.points.iter().map(|p| p.step).collect::<Vec<_>>(),
            vec![2, 4, 6, 8]
        );
        assert_eq!(t.curve().points.len(), 4);
        assert_eq!(t.step_count(), 8);
    }

    #[test]
    fn weighted_sampling_prefers_heavy_pairs() {
        let data = vec![
            Pair { src: vec![4], tgt: vec![5], weight: 100 },
            Pair { src: vec![6], tgt: vec![7], weight: 1 },
        ];
        let cum = cumulative_weights(&data);
        let mut rng = StdRng::seed_from_u64(8);
        let picks: Vec<usize> = (0..200).map(|_| sample_index(&cum, &mut rng)).collect();
        let zeros = picks.iter().filter(|&&i| i == 0).count();
        assert!(zeros > 150, "heavy pair picked only {zeros}/200 times");
    }
}
