//! The online training loop: incremental fine-tuning on harvested click
//! pairs, crash-safe checkpoints, and zero-downtime model hot-swap.
//!
//! [`OnlineLoop`] owns a [`JointModel`] and the paper's [`CyclicTrainer`]
//! and runs beside serving. Each [`train_tick`](OnlineLoop::train_tick):
//!
//! 1. trains `config.train.steps` further steps on the feedback buffer
//!    (click-weighted sampling, divergence sentinels, the works);
//! 2. commits a full-state checkpoint through the atomic
//!    persist-then-publish `CheckpointStore` discipline — the snapshot
//!    exists durably *before* any traffic can reach the new weights;
//! 3. freezes the forward model into an immutable [`Q2QRewriter`] (a
//!    serialize round-trip, so the published weights share nothing
//!    mutable with the training copy) and publishes it through the
//!    epoch-pinned [`ModelStore`].
//!
//! A failed checkpoint aborts the swap: serving stays on the last good
//! epoch, the failure is counted in [`SwapStats`], and the next tick
//! retries — mirroring how the live-catalog writer treats a failed
//! persist. A killed process resumes via [`OnlineLoop::resume`]: the
//! trainer restarts bit-for-bit from the newest sealed checkpoint and
//! re-publishes it, while the serving tier has kept answering from the
//! epoch it already held (the store never regresses).
//!
//! With a tracer attached each tick records a `train_tick` span (minted
//! trace; `tick`, `buffer`, `steps` attributes) with a child
//! `model_swap` span (`epoch`, `ok`).

use std::io;
use std::sync::Arc;

use qrw_core::{
    CheckpointStore, CyclicTrainer, JointModel, Q2QRewriter, ResumeError, TrainConfig,
    TrainHealthReport, TrainMode, TrainingCurve,
};
use qrw_data::Pair;
use qrw_nmt::{ModelConfig, Seq2Seq};
use qrw_obs::Tracer;
use qrw_search::{ModelStore, SwapStats};
use qrw_tensor::serialize;
use qrw_text::Vocab;


/// Published session models all carry this name, so a response's rung
/// attribution is a pure function of the pinned epoch (the replay tests
/// depend on it).
pub const ONLINE_MODEL_NAME: &str = "q2q-session";

/// Online-loop parameters.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Architecture of the session model (vocab must match the serving
    /// vocabulary).
    pub model: ModelConfig,
    /// Per-tick training budget (`steps` further steps per tick).
    pub train: TrainConfig,
    /// Warm-up vs joint cyclic training.
    pub mode: TrainMode,
    /// Sampling pool for the published rewriter's decoder.
    pub top_n: usize,
    /// Seed for the published rewriter's per-session RNG derivation and
    /// the frozen models' construction.
    pub rewriter_seed: u64,
}

impl OnlineConfig {
    /// A small configuration suitable for tests and smoke benches.
    pub fn smoke(vocab_size: usize) -> Self {
        OnlineConfig {
            model: ModelConfig::tiny_transformer(vocab_size),
            train: TrainConfig { steps: 6, warmup_steps: 2, batch_size: 2, ..TrainConfig::smoke() },
            mode: TrainMode::Joint,
            top_n: 8,
            rewriter_seed: 41,
        }
    }
}

/// What one [`OnlineLoop::train_tick`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickReport {
    /// False when the buffer was empty (nothing ran at all).
    pub trained: bool,
    /// Trainer step counter after the tick.
    pub steps: u64,
    /// The model epoch published by this tick, if the swap went through.
    pub published_epoch: Option<u64>,
    /// True when the checkpoint (or freeze) failed and serving stayed on
    /// the last good epoch.
    pub swap_failed: bool,
}

/// Combined health of the closed loop: training sentinels plus swap
/// telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OnlineHealth {
    pub train: TrainHealthReport,
    pub swaps: SwapStats,
    pub ticks: u64,
}

/// The trainer side of the closed loop (serving holds the
/// [`ModelStore`]; this owns the mutable weights).
pub struct OnlineLoop {
    model: JointModel,
    trainer: CyclicTrainer,
    vocab: Arc<Vocab>,
    store: Arc<ModelStore>,
    config: OnlineConfig,
    tracer: Option<Tracer>,
    ticks: u64,
}

impl OnlineLoop {
    /// A fresh loop: untrained joint model, trainer with `checkpoints`
    /// attached.
    pub fn new(
        config: OnlineConfig,
        vocab: Arc<Vocab>,
        store: Arc<ModelStore>,
        checkpoints: CheckpointStore,
    ) -> Self {
        let model = JointModel::new(
            Seq2Seq::new(config.model.clone(), config.rewriter_seed),
            Seq2Seq::new(config.model.clone(), config.rewriter_seed ^ 1),
        );
        let trainer =
            CyclicTrainer::new(config.train.clone(), config.model.d_model).with_checkpoints(checkpoints);
        OnlineLoop { model, trainer, vocab, store, config, tracer: None, ticks: 0 }
    }

    /// Rebuilds a killed loop from the newest sealed checkpoint under
    /// `checkpoints`: weights, optimizer moments, RNG and curve restore
    /// bit-for-bit; the tick counter restarts (it is process telemetry,
    /// like the health counters).
    pub fn resume(
        config: OnlineConfig,
        vocab: Arc<Vocab>,
        store: Arc<ModelStore>,
        checkpoints: CheckpointStore,
    ) -> Result<Self, ResumeError> {
        let model = JointModel::new(
            Seq2Seq::new(config.model.clone(), config.rewriter_seed),
            Seq2Seq::new(config.model.clone(), config.rewriter_seed ^ 1),
        );
        let (trainer, mode) = CyclicTrainer::resume_with_store(checkpoints, &model)?;
        let config = OnlineConfig { mode, ..config };
        Ok(OnlineLoop { model, trainer, vocab, store, config, tracer: None, ticks: 0 })
    }

    /// Attaches a span tracer for `train_tick` / `model_swap` spans.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    pub fn store(&self) -> &Arc<ModelStore> {
        &self.store
    }

    pub fn model(&self) -> &JointModel {
        &self.model
    }

    pub fn step_count(&self) -> u64 {
        self.trainer.step_count()
    }

    pub fn curve(&self) -> &TrainingCurve {
        self.trainer.curve()
    }

    pub fn health_report(&self) -> OnlineHealth {
        OnlineHealth {
            train: self.trainer.health_report(),
            swaps: self.store.swap_stats(),
            ticks: self.ticks,
        }
    }

    /// Freezes the current forward weights into an immutable serving
    /// model: serialize → fresh [`Seq2Seq`] → load, so the published
    /// rewriter shares no mutable state with the training copy.
    fn freeze(&self) -> io::Result<Q2QRewriter<Seq2Seq>> {
        let bytes = serialize::save(self.model.forward.params());
        let frozen = Seq2Seq::new(self.config.model.clone(), self.config.rewriter_seed);
        serialize::load(frozen.params(), &bytes)
            .map_err(|e| io::Error::other(format!("freeze failed: {e:?}")))?;
        Ok(Q2QRewriter::new(
            Arc::new(frozen),
            Arc::clone(&self.vocab),
            self.config.top_n,
            self.config.rewriter_seed,
        )
        .with_name(ONLINE_MODEL_NAME))
    }

    /// Publishes the current weights without training — e.g. right after
    /// [`resume`](Self::resume), so serving picks the restored model up.
    pub fn publish_now(&mut self) -> io::Result<u64> {
        match self.freeze() {
            Ok(rewriter) => Ok(self.store.publish(Arc::new(rewriter))),
            Err(e) => {
                self.store.record_swap_failure();
                Err(e)
            }
        }
    }

    /// One closed-loop tick: train on `data`, checkpoint, hot-swap.
    /// An empty buffer is a no-op (no step, no checkpoint, no swap).
    pub fn train_tick(&mut self, data: &[Pair], eval: &[Pair]) -> TickReport {
        self.ticks += 1;
        let mut report = TickReport { steps: self.trainer.step_count(), ..Default::default() };
        if data.is_empty() {
            return report;
        }
        let tracer = self.tracer.clone();
        let mut tick_span = tracer.as_ref().map(|t| {
            let mut s = t.span(t.next_trace(), None, "train_tick");
            s.attr("tick", self.ticks);
            s.attr("buffer", data.len() as u64);
            s
        });
        let tick_ids = tick_span.as_ref().map(|s| (s.trace(), s.id()));

        self.trainer.train(&self.model, data, eval, self.config.mode);
        report.trained = true;
        report.steps = self.trainer.step_count();
        if let Some(s) = tick_span.as_mut() {
            s.attr("steps", report.steps);
        }

        // Persist-then-publish: the checkpoint must be durable before the
        // swap; a failed persist leaves serving on the last good epoch.
        let frozen = self
            .trainer
            .save_checkpoint(&self.model, self.config.mode)
            .and_then(|()| self.freeze());
        let mut swap_span = tracer
            .as_ref()
            .zip(tick_ids)
            .map(|(t, (trace, id))| t.span(trace, Some(id), "model_swap"));
        match frozen {
            Ok(rewriter) => {
                let epoch = self.store.publish(Arc::new(rewriter));
                report.published_epoch = Some(epoch);
                if let Some(s) = swap_span.as_mut() {
                    s.attr("epoch", epoch);
                    s.attr("ok", true);
                }
            }
            Err(_) => {
                self.store.record_swap_failure();
                report.swap_failed = true;
                if let Some(s) = swap_span.as_mut() {
                    s.attr("epoch", self.store.swap_stats().current_epoch);
                    s.attr("ok", false);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use qrw_core::{TrainFaultInjector, WriteSink};

    /// Unique temp dir per test invocation.
    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("qrw_online_{tag}_{pid}_{seq}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_vocab() -> Arc<Vocab> {
        let mut vocab = Vocab::new();
        for i in 0..16 {
            vocab.insert(&format!("w{i}"));
        }
        Arc::new(vocab)
    }

    fn tiny_pairs(vocab: &Vocab) -> Vec<Pair> {
        let t = |s: &str| -> Vec<usize> {
            vocab.encode(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
        };
        vec![
            Pair { src: t("w1 w2"), tgt: t("w3"), weight: 2 },
            Pair { src: t("w4"), tgt: t("w5 w6"), weight: 1 },
            Pair { src: t("w7 w8"), tgt: t("w9"), weight: 1 },
        ]
    }

    fn baseline_store(vocab: &Arc<Vocab>, config: &OnlineConfig) -> Arc<ModelStore> {
        let day0 = Q2QRewriter::new(
            Arc::new(Seq2Seq::new(config.model.clone(), config.rewriter_seed)),
            Arc::clone(vocab),
            config.top_n,
            config.rewriter_seed,
        )
        .with_name(ONLINE_MODEL_NAME);
        ModelStore::new(Arc::new(day0))
    }

    #[test]
    fn a_tick_trains_checkpoints_and_publishes() {
        let vocab = tiny_vocab();
        let config = OnlineConfig::smoke(20);
        let store = baseline_store(&vocab, &config);
        let dir = temp_dir("tick");
        let mut lp = OnlineLoop::new(
            config.clone(),
            Arc::clone(&vocab),
            Arc::clone(&store),
            CheckpointStore::new(&dir),
        );
        let pairs = tiny_pairs(&vocab);
        let report = lp.train_tick(&pairs, &pairs[..1]);
        assert!(report.trained);
        assert_eq!(report.steps, config.train.steps);
        assert_eq!(report.published_epoch, Some(2));
        assert!(!report.swap_failed);
        let health = lp.health_report();
        assert_eq!(health.swaps.current_epoch, 2);
        assert_eq!(health.train.checkpoints_written, 1);
        assert_eq!(health.ticks, 1);
        // The published model serves under the stable name.
        let pin = store.pin();
        assert_eq!(pin.epoch(), 2);
        assert_eq!(pin.rewriter().name(), ONLINE_MODEL_NAME);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_buffer_is_a_noop() {
        let vocab = tiny_vocab();
        let config = OnlineConfig::smoke(20);
        let store = baseline_store(&vocab, &config);
        let dir = temp_dir("noop");
        let mut lp =
            OnlineLoop::new(config, Arc::clone(&vocab), Arc::clone(&store), CheckpointStore::new(&dir));
        let report = lp.train_tick(&[], &[]);
        assert!(!report.trained);
        assert_eq!(report.published_epoch, None);
        assert_eq!(lp.step_count(), 0);
        assert_eq!(store.swap_stats().current_epoch, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_checkpoint_degrades_to_the_last_good_epoch() {
        let vocab = tiny_vocab();
        let config = OnlineConfig::smoke(20);
        let store = baseline_store(&vocab, &config);
        let dir = temp_dir("degrade");
        // Every write fails cleanly: the persist-then-publish discipline
        // must refuse to swap.
        let sink = Box::new(TrainFaultInjector::disk_full_at_write(0));
        let mut lp = OnlineLoop::new(
            config,
            Arc::clone(&vocab),
            Arc::clone(&store),
            CheckpointStore::with_sink(&dir, sink),
        );
        let pairs = tiny_pairs(&vocab);
        let report = lp.train_tick(&pairs, &pairs[..1]);
        assert!(report.trained);
        assert!(report.swap_failed);
        assert_eq!(report.published_epoch, None);
        let health = lp.health_report();
        assert_eq!(health.swaps.current_epoch, 1, "serving stays on the last good epoch");
        assert_eq!(health.swaps.swap_failures, 1);
        assert_eq!(health.train.checkpoints_written, 0);
        // The pinned model is still the day-0 baseline.
        assert_eq!(store.pin().epoch(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn successive_ticks_advance_the_epoch_and_differ_in_weights() {
        let vocab = tiny_vocab();
        let config = OnlineConfig::smoke(20);
        let store = baseline_store(&vocab, &config);
        let dir = temp_dir("advance");
        let mut lp = OnlineLoop::new(
            config,
            Arc::clone(&vocab),
            Arc::clone(&store),
            CheckpointStore::new(&dir),
        );
        let pairs = tiny_pairs(&vocab);
        let r1 = lp.train_tick(&pairs, &pairs[..1]);
        let r2 = lp.train_tick(&pairs, &pairs[..1]);
        assert_eq!(r1.published_epoch, Some(2));
        assert_eq!(r2.published_epoch, Some(3));
        assert_eq!(r2.steps, 2 * lp.config.train.steps);
        assert_eq!(store.swap_stats().epochs_published, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tick_spans_nest_model_swap_under_train_tick() {
        let vocab = tiny_vocab();
        let config = OnlineConfig::smoke(20);
        let store = baseline_store(&vocab, &config);
        let dir = temp_dir("spans");
        let tracer = Tracer::logical();
        let mut lp = OnlineLoop::new(
            config,
            Arc::clone(&vocab),
            Arc::clone(&store),
            CheckpointStore::new(&dir),
        )
        .with_tracer(tracer.clone());
        let pairs = tiny_pairs(&vocab);
        lp.train_tick(&pairs, &pairs[..1]);
        lp.train_tick(&[], &[]); // no-op tick records no spans
        let spans = tracer.snapshot();
        let ticks: Vec<_> = spans.iter().filter(|s| s.name == "train_tick").collect();
        let swaps: Vec<_> = spans.iter().filter(|s| s.name == "model_swap").collect();
        assert_eq!(ticks.len(), 1);
        assert_eq!(swaps.len(), 1);
        assert_eq!(swaps[0].parent, Some(ticks[0].id));
        assert_eq!(swaps[0].trace, ticks[0].trace);
        assert!(ticks[0].attr("buffer").is_some());
        assert!(ticks[0].attr("steps").is_some());
        assert!(swaps[0].attr("epoch").is_some());
        assert!(swaps[0].attr("ok").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A killed trainer resumes bit-for-bit and re-publishes; serving
    /// never regressed past the last good epoch. The kill lands mid-way
    /// through the *second* tick's checkpoint (offset measured against
    /// the first tick's clean write traffic), i.e. during the swap.
    #[test]
    fn kill_during_swap_recovers_from_the_last_sealed_checkpoint() {
        let vocab = tiny_vocab();
        let config = OnlineConfig::smoke(20);
        let pairs = tiny_pairs(&vocab);

        // Dry run: measure one tick's checkpoint traffic.
        let probe = Arc::new(TrainFaultInjector::none());
        struct Shared(Arc<TrainFaultInjector>);
        impl WriteSink for Shared {
            fn write_atomic(&self, path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
                self.0.write_atomic(path, bytes)
            }
        }
        let dry = temp_dir("kill_dry");
        let store0 = baseline_store(&vocab, &config);
        let mut lp0 = OnlineLoop::new(
            config.clone(),
            Arc::clone(&vocab),
            Arc::clone(&store0),
            CheckpointStore::with_sink(&dry, Box::new(Shared(Arc::clone(&probe)))),
        );
        lp0.train_tick(&pairs, &pairs[..1]);
        let tick_bytes = probe.total_bytes();
        assert!(tick_bytes > 0);

        // Real run: tick 1 commits cleanly, the process dies mid-tick-2
        // checkpoint.
        let dir = temp_dir("kill");
        let store = baseline_store(&vocab, &config);
        let injector = Arc::new(TrainFaultInjector::kill_at_byte(tick_bytes + tick_bytes / 2));
        let mut lp = OnlineLoop::new(
            config.clone(),
            Arc::clone(&vocab),
            Arc::clone(&store),
            CheckpointStore::with_sink(&dir, Box::new(Shared(Arc::clone(&injector)))),
        );
        let r1 = lp.train_tick(&pairs, &pairs[..1]);
        assert_eq!(r1.published_epoch, Some(2));
        let r2 = lp.train_tick(&pairs, &pairs[..1]);
        assert!(injector.killed(), "the kill fault must have fired during tick 2");
        assert!(r2.swap_failed, "a torn checkpoint must not publish");
        assert_eq!(store.swap_stats().current_epoch, 2, "serving kept the last good epoch");
        let steps_at_seal = r1.steps;
        drop(lp);

        // Recovery: resume from the sealed tick-1 checkpoint and publish.
        let mut resumed = OnlineLoop::resume(
            config.clone(),
            Arc::clone(&vocab),
            Arc::clone(&store),
            CheckpointStore::new(&dir),
        )
        .expect("resume from the sealed checkpoint");
        assert_eq!(resumed.step_count(), steps_at_seal);
        let epoch = resumed.publish_now().unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(store.pin().epoch(), 3);
        // And the loop keeps closing: another tick trains + swaps.
        let r3 = resumed.train_tick(&pairs, &pairs[..1]);
        assert_eq!(r3.published_epoch, Some(4));
        assert_eq!(r3.steps, steps_at_seal + config.train.steps);
        std::fs::remove_dir_all(&dry).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
