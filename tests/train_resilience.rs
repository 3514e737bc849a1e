//! Crash-safety of Algorithm 1's checkpoint/resume machinery, end to end:
//! bitwise resume equivalence, a kill-point sweep over every region of a
//! checkpoint commit, silent bit flips, disk-full degradation, and the
//! spike-rollback sentinel — all driven through a deterministic
//! [`Faults`] schedule on the checkpoint write site.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cycle_rewrite::core::checkpoint::{BACKWARD_FILE, FORWARD_FILE, MANIFEST_FILE, TRAINER_FILE};
use cycle_rewrite::data::Pair;
use cycle_rewrite::prelude::*;
use cycle_rewrite::tensor::serialize;
use cycle_rewrite::tensor::Tensor;

/// Unique, self-cleaning temp directory per call (pid + counter, so
/// parallel test binaries and repeated runs never collide).
struct TestDir(PathBuf);

impl TestDir {
    fn new(label: &str) -> TestDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "qrw-resilience-{}-{n}-{label}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TestDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The cyclic.rs toy language: query `[10|11, cat]` → title `[20, cat, 2x]`.
fn tiny_pairs() -> Vec<Pair> {
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

fn base_cfg() -> TrainConfig {
    TrainConfig {
        steps: 6,
        warmup_steps: 2,
        batch_size: 2,
        beam_width: 2,
        top_n: 4,
        eval_every: 3,
        checkpoint_every: 3,
        ..Default::default()
    }
}

fn model_bytes(model: &JointModel) -> (Vec<u8>, Vec<u8>) {
    (serialize::save(model.forward.params()), serialize::save(model.backward.params()))
}

/// A committed checkpoint's member files as `(name, bytes)` pairs.
type Members = Vec<(String, Vec<u8>)>;

/// Trains 6 steps with checkpoints every 3 into `dir`, returning the
/// committed member bytes of the step-3 and step-6 checkpoints. These are
/// the payloads the fault-injection sweeps replay.
fn committed_members(dir: &Path) -> (Members, Members) {
    let model = tiny_joint(1);
    let mut trainer = CyclicTrainer::new(base_cfg(), 32)
        .with_checkpoints(CheckpointStore::new(dir));
    trainer.train(&model, &tiny_pairs(), &tiny_pairs()[..2], TrainMode::Separate);
    assert_eq!(trainer.health_report().checkpoints_written, 2);
    let read = |step: &str| -> Members {
        let sub = dir.join(format!("ckpt-{step}"));
        [FORWARD_FILE, BACKWARD_FILE, TRAINER_FILE, MANIFEST_FILE]
            .iter()
            .map(|name| (name.to_string(), fs::read(sub.join(name)).unwrap()))
            .collect()
    };
    (read("000000000003"), read("000000000006"))
}

/// Replays a clean commit of `m1` at step 3, then a commit of `m2` at
/// step 6 through the given faulty sink. The member lists include the
/// manifest; `CheckpointStore::save` writes its own, byte-identical one.
fn replay(
    dir: &Path,
    sink: Faults,
    m1: &[(String, Vec<u8>)],
    m2: &[(String, Vec<u8>)],
) -> std::io::Result<()> {
    let store = CheckpointStore::with_sink(dir, Box::new(sink));
    fn as_refs(m: &[(String, Vec<u8>)]) -> Vec<(&str, Vec<u8>)> {
        m.iter()
            .filter(|(n, _)| n != MANIFEST_FILE)
            .map(|(n, b)| (n.as_str(), b.clone()))
            .collect()
    }
    store.save(3, &as_refs(m1)).unwrap();
    store.save(6, &as_refs(m2))
}

/// Resumes from `dir` into a fresh (differently-seeded) model and asserts
/// the restored step and weights exactly match one of the two committed
/// checkpoints — never a torn hybrid.
fn assert_clean_resume(
    dir: &Path,
    expected_step: u64,
    m1: &[(String, Vec<u8>)],
    m2: &[(String, Vec<u8>)],
    context: &str,
) {
    let model = tiny_joint(77);
    let (trainer, mode) = CyclicTrainer::resume(dir, &model)
        .unwrap_or_else(|e| panic!("{context}: resume failed: {e}"));
    assert_eq!(mode, TrainMode::Separate, "{context}");
    assert_eq!(trainer.step_count(), expected_step, "{context}");
    let expected = if expected_step == 3 { m1 } else { m2 };
    let (fwd, bwd) = model_bytes(&model);
    assert_eq!(fwd, expected[0].1, "{context}: forward weights are not the committed ones");
    assert_eq!(bwd, expected[1].1, "{context}: backward weights are not the committed ones");
    assert_eq!(trainer.curve().last().unwrap().step, expected_step, "{context}");
}

#[test]
fn resume_is_bitwise_identical_to_uninterrupted_run() {
    for mode in [TrainMode::Separate, TrainMode::Joint] {
        let pairs = tiny_pairs();
        let eval = &pairs[..2];

        // Run A: 6 uninterrupted steps.
        let model_a = tiny_joint(1);
        let mut trainer_a = CyclicTrainer::new(base_cfg(), 32);
        let curve_a = trainer_a.train(&model_a, &pairs, eval, mode);

        // Run B: 3 steps, checkpoint, "kill" (drop everything), resume
        // into a differently-initialised model, 3 more steps.
        let dir = TestDir::new("resume-equiv");
        {
            let model_b = tiny_joint(1);
            let cfg = TrainConfig { steps: 3, ..base_cfg() };
            let mut trainer_b = CyclicTrainer::new(cfg, 32)
                .with_checkpoints(CheckpointStore::new(dir.path()));
            trainer_b.train(&model_b, &pairs, eval, mode);
        }
        let model_b = tiny_joint(42); // init is overwritten by the resume
        let (mut resumed, resumed_mode) =
            CyclicTrainer::resume(dir.path(), &model_b).unwrap();
        assert_eq!(resumed_mode, mode);
        assert_eq!(resumed.step_count(), 3);
        let curve_b = resumed.train(&model_b, &pairs, eval, resumed_mode);

        // The accumulated curve and the final weights are bit-for-bit the
        // uninterrupted run's.
        assert_eq!(curve_b, curve_a, "curve diverged after resume ({mode:?})");
        assert_eq!(model_bytes(&model_b), model_bytes(&model_a), "weights diverged ({mode:?})");
        assert_eq!(resumed.step_count(), 6);
    }
}

#[test]
fn resume_from_empty_dir_is_a_typed_error() {
    let dir = TestDir::new("resume-empty");
    let model = tiny_joint(1);
    match CyclicTrainer::resume(dir.path(), &model) {
        Err(ResumeError::NoCheckpoint) => {}
        Err(other) => panic!("expected NoCheckpoint, got {other:?}"),
        Ok(_) => panic!("resume from an empty directory succeeded"),
    }
}

#[test]
fn kill_point_sweep_never_resumes_torn_state() {
    let src = TestDir::new("kill-src");
    let (m1, m2) = committed_members(src.path());

    let size = |m: &[(String, Vec<u8>)], name: &str| {
        m.iter().find(|(n, _)| n == name).unwrap().1.len() as u64
    };
    let latest_len = "ckpt-000000000003".len() as u64;
    // Cumulative payload bytes of the clean step-3 commit (3 members +
    // manifest + LATEST): kill offsets are relative to the end of it.
    let base: u64 = m1.iter().map(|(_, b)| b.len() as u64).sum::<u64>() + latest_len;
    let f2 = size(&m2, FORWARD_FILE);
    let b2 = size(&m2, BACKWARD_FILE);
    let t2 = size(&m2, TRAINER_FILE);
    let man2 = size(&m2, MANIFEST_FILE);
    // A kill anywhere before the step-6 LATEST pointer write must resume
    // at step 3; a kill during the pointer write leaves ckpt-6 fully
    // committed, so the fallback scan finds it.
    let members_and_manifest = f2 + b2 + t2 + man2;
    let total = members_and_manifest + latest_len;

    let mut offsets: Vec<u64> = (0..total).step_by(8191).collect();
    for start in [0, f2, f2 + b2, f2 + b2 + t2, members_and_manifest] {
        offsets.extend([start, start + 1, start.saturating_sub(1)]);
    }
    offsets.push(total - 1);
    offsets.sort_unstable();
    offsets.dedup();
    offsets.retain(|&o| o < total);

    for rel in offsets {
        let dir = TestDir::new("kill-sweep");
        let err = replay(dir.path(), Faults::default().at_byte(base + rel, Fault::Kill), &m1, &m2);
        assert!(err.is_err(), "kill at relative offset {rel} did not fire");
        let expected = if rel < members_and_manifest { 3 } else { 6 };
        assert_clean_resume(dir.path(), expected, &m1, &m2, &format!("kill at +{rel}"));
    }
}

#[test]
fn bit_flips_in_any_write_fall_back_to_a_committed_checkpoint() {
    let src = TestDir::new("flip-src");
    let (m1, m2) = committed_members(src.path());

    // Write indices 5..10 are the step-6 commit: forward, backward,
    // trainer state, manifest, LATEST.
    for write_index in 5..10u64 {
        for bit in [0u64, 777, 123_456] {
            let dir = TestDir::new("flip");
            let flip =
                Faults::default().nth(Site::CheckpointWrite, write_index, Fault::BitFlip(bit));
            replay(dir.path(), flip, &m1, &m2).unwrap(); // flips are silent: every write "succeeds"
            let context = format!("flip write {write_index} bit {bit}");
            if write_index < 9 {
                // A flipped member or manifest fails verification; the
                // store must fall back to the intact step-3 checkpoint.
                assert_clean_resume(dir.path(), 3, &m1, &m2, &context);
            } else {
                // A flipped LATEST pointer is just a stale hint: the
                // fallback scan still finds the committed step-6 state.
                assert_clean_resume(dir.path(), 6, &m1, &m2, &context);
            }
        }
    }
}

#[test]
fn disk_full_degrades_to_last_committed_checkpoint() {
    let dir = TestDir::new("disk-full");
    // The 6th write (index 5) and everything after fail: the step-3
    // checkpoint commits, the step-6 one never does.
    let sink = Faults::default().from_nth(Site::CheckpointWrite, 5, Fault::DiskFull);
    let store = CheckpointStore::with_sink(dir.path(), Box::new(sink));
    let model = tiny_joint(1);
    let mut trainer = CyclicTrainer::new(base_cfg(), 32).with_checkpoints(store);
    let curve = trainer.train(&model, &tiny_pairs(), &tiny_pairs()[..2], TrainMode::Separate);

    // Training itself survives the full disk and completes all 6 steps.
    assert_eq!(curve.points.iter().map(|p| p.step).collect::<Vec<_>>(), vec![3, 6]);
    assert_eq!(trainer.health_report().checkpoints_written, 1);
    assert_eq!(trainer.health_report().skipped_steps, 0);

    // A restart resumes from the last checkpoint that actually committed.
    let fresh = tiny_joint(42);
    let (resumed, _) = CyclicTrainer::resume(dir.path(), &fresh).unwrap();
    assert_eq!(resumed.step_count(), 3);
}

#[test]
fn spike_sentinel_rolls_back_to_last_good_checkpoint() {
    let cfg = TrainConfig {
        spike_window: 3,
        spike_factor: 2.0,
        spike_patience: 2,
        ..base_cfg()
    };
    let pairs = tiny_pairs();
    let eval = &pairs[..2];

    // Phase 1: 6 healthy steps with checkpoints at 3 and 6.
    let dir = TestDir::new("spike");
    let model = tiny_joint(1);
    let mut trainer = CyclicTrainer::new(cfg, 32)
        .with_checkpoints(CheckpointStore::new(dir.path()));
    trainer.train(&model, &pairs, eval, TrainMode::Separate);
    assert_eq!(trainer.health_report().loss_spikes, 0, "healthy run tripped the detector");

    // Control: an independent resume of the step-6 checkpoint, trained 6
    // more healthy steps in an isolated copy of the store.
    let ctrl_dir = TestDir::new("spike-ctrl");
    let sub = "ckpt-000000000006";
    fs::create_dir_all(ctrl_dir.path().join(sub)).unwrap();
    for name in [FORWARD_FILE, BACKWARD_FILE, TRAINER_FILE, MANIFEST_FILE] {
        fs::copy(dir.path().join(sub).join(name), ctrl_dir.path().join(sub).join(name)).unwrap();
    }
    fs::write(ctrl_dir.path().join("LATEST"), sub).unwrap();
    let ctrl_model = tiny_joint(42);
    let (mut ctrl, ctrl_mode) = CyclicTrainer::resume(ctrl_dir.path(), &ctrl_model).unwrap();
    ctrl.train(&ctrl_model, &pairs, eval, ctrl_mode);

    // Sabotage: blow up the forward model's weights. The next steps'
    // losses spike (finitely), the sentinel skips one step, escalates at
    // patience 2, rolls back to the step-6 checkpoint, and training
    // continues from clean state.
    for p in model.forward.params() {
        let (r, c) = p.shape();
        let scaled: Vec<f32> = p.value().data().iter().map(|x| x * 5.0).collect();
        p.set_value(Tensor::from_vec(r, c, scaled));
    }
    trainer.train(&model, &pairs, eval, TrainMode::Separate);

    let h = trainer.health_report();
    assert_eq!(h.rollbacks, 1, "expected exactly one rollback: {h:?}");
    assert_eq!(h.loss_spikes, 2, "expected spike then escalation: {h:?}");
    assert_eq!(h.nan_loss_events, 0, "sabotage was meant to spike, not poison: {h:?}");

    // After the rollback the continuation is the healthy continuation:
    // final weights are bitwise the control's.
    assert_eq!(model_bytes(&model), model_bytes(&ctrl_model));
    // And the sentinel counters surface on the curve for the bench layer.
    let last = *trainer.curve().last().unwrap();
    assert_eq!(last.rollbacks, 1);
    assert!(last.skipped_steps >= 1);
}
