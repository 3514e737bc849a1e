//! Training configuration for the cyclic-consistent rewriting system and
//! the Table II hyper-parameter record.

use qrw_nmt::ModelConfig;

/// Configuration of Algorithm 1 and the paper's §IV-A optimizer setup.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainConfig {
    /// Total optimization steps (`T`).
    pub steps: u64,
    /// Warm-up steps before the cyclic term activates (`G`; paper: 40 000).
    pub warmup_steps: u64,
    /// Batch size (`B`).
    pub batch_size: usize,
    /// Synthetic titles sampled per query (`k`, the paper's beam width 3).
    pub beam_width: usize,
    /// Top-n sampling pool (`n`; paper: 40).
    pub top_n: usize,
    /// Cyclic-consistency weight (`λ`; paper: 0.1).
    pub lambda: f32,
    /// Noam schedule factor (paper's base learning rate 0.05).
    pub lr_factor: f32,
    /// Noam schedule warm-up steps.
    pub noam_warmup: u64,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Evaluate metrics every this many steps (0 = only at the end).
    pub eval_every: u64,
    /// RNG seed for batching / sampling / dropout.
    pub seed: u64,
    /// Compute the batch's per-example backward passes on worker threads
    /// (std scoped threads). Per-example randomness is identical to serial
    /// mode, but gradient summation order — and thus low-order float bits
    /// — depends on scheduling.
    pub parallel: bool,
    /// Divergence sentinel: healthy-loss window used as the spike
    /// baseline (0 disables spike detection; non-finite loss/grad
    /// detection is always on).
    pub spike_window: usize,
    /// A step whose batch loss exceeds `spike_factor ×` the window median
    /// counts as a loss spike and is skipped.
    pub spike_factor: f32,
    /// Consecutive spikes before the trainer rolls back to the last good
    /// checkpoint (when a checkpoint store is attached).
    pub spike_patience: u32,
    /// Rollbacks allowed per training run. A deterministic trainer
    /// replays the same batches after a rollback, so an unbounded retry
    /// would livelock on a genuinely divergent configuration; once the
    /// budget is spent the sentinel re-baselines and training continues.
    pub max_rollbacks: u32,
    /// Write a full-state checkpoint every this many steps (0 = only
    /// explicit [`save_checkpoint`](crate::cyclic::CyclicTrainer::save_checkpoint)
    /// calls). Requires an attached checkpoint store.
    pub checkpoint_every: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            steps: 300,
            warmup_steps: 150,
            batch_size: 8,
            beam_width: 3,
            top_n: 8,
            lambda: 0.1,
            lr_factor: 0.6,
            noam_warmup: 60,
            grad_clip: 5.0,
            eval_every: 25,
            seed: 97,
            parallel: false,
            spike_window: 8,
            spike_factor: 4.0,
            spike_patience: 3,
            max_rollbacks: 2,
            checkpoint_every: 0,
        }
    }
}

impl TrainConfig {
    /// A very small budget for unit tests.
    pub fn smoke() -> Self {
        TrainConfig {
            steps: 30,
            warmup_steps: 15,
            batch_size: 4,
            ..Default::default()
        }
    }
}

/// The Table II record: hyper-parameters of the two translation models,
/// paper values side by side with this reproduction's scaled values.
#[derive(Clone, Debug)]
pub struct HyperparamTable {
    pub forward: ModelConfig,
    pub backward: ModelConfig,
}

impl HyperparamTable {
    pub fn new(forward: ModelConfig, backward: ModelConfig) -> Self {
        HyperparamTable { forward, backward }
    }
}

impl std::fmt::Display for HyperparamTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<34} {:>14} {:>14}", "", "Query-to-title", "Title-to-query")?;
        writeln!(
            f,
            "{:<34} {:>14} {:>14}",
            "# Transformer Layer (paper: 4/1)", self.forward.enc_layers, self.backward.enc_layers
        )?;
        writeln!(
            f,
            "{:<34} {:>14} {:>14}",
            "# Head (paper: 8)", self.forward.heads, self.backward.heads
        )?;
        writeln!(
            f,
            "{:<34} {:>14} {:>14}",
            "Hidden Units of FF (paper: 1024)", self.forward.d_ff, self.backward.d_ff
        )?;
        writeln!(
            f,
            "{:<34} {:>14} {:>14}",
            "Embedding Dim (paper: 512)", self.forward.d_model, self.backward.d_model
        )?;
        write!(
            f,
            "{:<34} {:>14} {:>14}",
            "Dropout Rate (paper: 0.1)", self.forward.dropout, self.backward.dropout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_ratios() {
        let c = TrainConfig::default();
        assert_eq!(c.beam_width, 3);
        assert!((c.lambda - 0.1).abs() < 1e-9);
        assert!(c.warmup_steps < c.steps);
    }

    #[test]
    fn table2_display_lists_both_models() {
        let t = HyperparamTable::new(
            ModelConfig::forward_q2t(100),
            ModelConfig::backward_t2q(100),
        );
        let s = t.to_string();
        assert!(s.contains("Query-to-title"));
        assert!(s.contains("Title-to-query"));
        assert!(s.contains("Dropout"));
    }
}
