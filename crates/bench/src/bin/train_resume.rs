//! Crash-safe training smoke check, wired into
//! `scripts/verify.sh --train-resume`.
//!
//! Three scenarios, all offline and deterministic:
//!
//! 1. **Resume equivalence** — train N steps uninterrupted; train N/2
//!    steps, "kill" the process (drop the trainer), resume from the
//!    checkpoint directory into a differently-initialised model and train
//!    the rest. The accumulated curve and the final weights must be
//!    bit-for-bit identical.
//! 2. **Torn-commit recovery** — repeat the run with a fault-injecting
//!    sink that kills the writer mid-way through the second checkpoint
//!    commit; resume must land on the first (intact) checkpoint.
//! 3. **Telemetry** — the resumed curve, sentinel counters included, is
//!    persisted as `CURVE_train_resume.json` and re-validated.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qrw_bench::harness::{curve_to_json, validate_curve_json};
use qrw_core::{CheckpointStore, CyclicTrainer, Fault, Faults, JointModel, TrainConfig, TrainMode};
use qrw_data::Pair;
use qrw_nmt::{ModelConfig, Seq2Seq};
use qrw_tensor::serialize;

fn main() -> ExitCode {
    let out_dir = parse_out_dir();
    let work = std::env::temp_dir().join(format!("qrw-train-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create work dir");
    let result = run(&out_dir, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run(out_dir: &Path, work: &Path) -> ExitCode {
    let pairs = toy_pairs();
    let eval = &pairs[..2];
    let mode = TrainMode::Joint;

    // Scenario 1a: the uninterrupted reference run.
    let model_a = joint(1);
    let mut trainer_a = CyclicTrainer::new(config(6), 32);
    let curve_a = trainer_a.train(&model_a, &pairs, eval, mode);
    println!("uninterrupted: {} steps, {} curve points", 6, curve_a.points.len());

    // Scenario 1b: train half, kill, resume, train the rest.
    let ckpt_dir = work.join("ckpts");
    {
        let model_b = joint(1);
        let mut trainer_b = CyclicTrainer::new(config(3), 32)
            .with_checkpoints(CheckpointStore::new(&ckpt_dir));
        trainer_b.train(&model_b, &pairs, eval, mode);
        // The trainer and model drop here: that is the "kill".
    }
    let model_b = joint(777); // fresh init, overwritten by the resume
    let (mut resumed, resumed_mode) = match CyclicTrainer::resume(&ckpt_dir, &model_b) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("train_resume: resume failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("resumed at step {} ({resumed_mode:?})", resumed.step_count());
    let curve_b = resumed.train(&model_b, &pairs, eval, resumed_mode);

    if curve_b != curve_a {
        eprintln!("train_resume: resumed curve diverged from the uninterrupted run");
        return ExitCode::FAILURE;
    }
    if weights(&model_b) != weights(&model_a) {
        eprintln!("train_resume: resumed weights are not bitwise-identical");
        return ExitCode::FAILURE;
    }
    println!("resume equivalence: curve and weights are bit-for-bit identical");

    // Scenario 2: kill the writer inside the second checkpoint commit.
    // The first commit's size is the sum of its four files plus the
    // LATEST pointer (training is deterministic, so the torn run's
    // layout matches the clean run's).
    let first = ckpt_dir.join("ckpt-000000000003");
    let mut base = "ckpt-000000000003".len() as u64;
    for name in ["forward.qrw", "backward.qrw", "trainer.qrws", "MANIFEST"] {
        base += std::fs::metadata(first.join(name)).expect("read checkpoint member").len();
    }
    let torn_dir = work.join("torn");
    {
        let sink = Faults::default().at_byte(base + 1000, Fault::Kill);
        let model_c = joint(1);
        let mut trainer_c = CyclicTrainer::new(config(6), 32)
            .with_checkpoints(CheckpointStore::with_sink(&torn_dir, Box::new(sink)));
        trainer_c.train(&model_c, &pairs, eval, mode);
    }
    let model_c = joint(888);
    match CyclicTrainer::resume(&torn_dir, &model_c) {
        Ok((t, _)) if t.step_count() == 3 => {
            println!("torn commit: recovered cleanly at step 3");
        }
        Ok((t, _)) => {
            eprintln!("train_resume: torn commit resumed at step {}, expected 3", t.step_count());
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("train_resume: torn commit failed to resume: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Scenario 3: persist + re-validate the curve with its counters.
    let text = curve_to_json("train_resume", &curve_b);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("train_resume: creating {} failed: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let path = out_dir.join("CURVE_train_resume.json");
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("train_resume: writing {} failed: {e}", path.display());
        return ExitCode::FAILURE;
    }
    let reread = std::fs::read_to_string(&path).expect("re-read curve file");
    match validate_curve_json(&reread) {
        Ok((_, parsed)) if parsed == curve_b => println!("wrote {}", path.display()),
        Ok(_) => {
            eprintln!("train_resume: {} did not round-trip the curve", path.display());
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("train_resume: {} is malformed: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn parse_out_dir() -> PathBuf {
    let mut args = std::env::args().skip(1);
    let mut out = PathBuf::from(".");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            other => panic!("unknown argument {other:?} (usage: train_resume [--out DIR])"),
        }
    }
    out
}

/// The toy language used by the core training tests.
fn toy_pairs() -> Vec<Pair> {
    let mut pairs = Vec::new();
    for cat in 4..8usize {
        pairs.push(Pair { src: vec![10, cat], tgt: vec![20, cat, 21], weight: 3 });
        pairs.push(Pair { src: vec![11, cat], tgt: vec![20, cat, 22], weight: 2 });
    }
    pairs
}

fn joint(seed: u64) -> JointModel {
    let cfg = ModelConfig::tiny_transformer(24);
    JointModel::new(Seq2Seq::new(cfg.clone(), seed), Seq2Seq::new(cfg, seed + 1))
}

fn config(steps: u64) -> TrainConfig {
    TrainConfig {
        steps,
        warmup_steps: 2,
        batch_size: 2,
        beam_width: 2,
        top_n: 4,
        eval_every: 3,
        checkpoint_every: 3,
        ..Default::default()
    }
}

fn weights(model: &JointModel) -> (Vec<u8>, Vec<u8>) {
    (serialize::save(model.forward.params()), serialize::save(model.backward.params()))
}
