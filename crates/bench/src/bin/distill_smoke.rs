//! Distill-and-quantize smoke check, wired into
//! `scripts/verify.sh --distill-smoke`.
//!
//! End to end, offline and deterministic:
//!
//! 1. **Distill** — build the smoke corpus, train a cyclic teacher, then
//!    distill a quantized student from the teacher's top-n rewrites
//!    through [`qrw_core::distill_student`] (checkpointed into a temp
//!    dir like any other training run).
//! 2. **Artifact round trip** — export the student as the `QRWT` v3
//!    quantized blob + v2 f32 remainder, rebuild via `from_artifacts`,
//!    and require bitwise-identical logits from the reloaded model.
//! 3. **Quality floor** — oracle win/tie/lose of the student against its
//!    teacher on the held-out evaluation queries: wins + ties must be at
//!    least losses (the student may not be meaningfully worse).
//! 4. **Speed bar** — max-length decode of the quantized student vs the
//!    KV-cached teacher on the same hardware: ≥2x tokens/s.
//! 5. **Telemetry** — everything lands in `BENCH_distill.json`,
//!    re-validated against the distill schema.
//!
//! `--full` (set by `QRW_VERIFY_BUDGET=full`) raises the distillation
//! budget and evaluates every held-out query instead of a prefix.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use qrw_bench::experiment::{train_joint_model, ExperimentData, Scale};
use qrw_bench::harness::{
    bench, group, median_regressions, validate_distill_json, BenchRecord, Derived, Sample,
};
use qrw_core::{
    distill_student, DistillConfig, Q2QRewriter, QueryRewriter, RewritePipeline, TrainMode,
};
use qrw_metrics::oracle;
use qrw_nmt::{DecodeArena, QuantStudent, TransformerDecodeMode};
use qrw_text::BOS;

/// The distilled fast path's acceptance bar: student tokens/s over the
/// KV-cached teacher decode.
const MIN_STUDENT_SPEEDUP: f64 = 2.0;

/// Maximum accepted median slowdown against a committed BENCH_distill.json.
const MAX_MEDIAN_REGRESSION: f64 = 0.20;

/// Labeler indifference band for the oracle pairwise judgement.
const TIE_MARGIN: f64 = 0.05;

struct Budget {
    distill_steps: u64,
    distill_queries: usize,
    eval_queries: usize,
}

impl Budget {
    fn quick() -> Self {
        Budget { distill_steps: 120, distill_queries: 24, eval_queries: 24 }
    }

    fn full() -> Self {
        Budget { distill_steps: 360, distill_queries: 64, eval_queries: usize::MAX }
    }
}

fn main() -> ExitCode {
    let (out_dir, budget) = parse_args();
    let work = std::env::temp_dir().join(format!("qrw-distill-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create work dir");
    let result = run(&out_dir, &work, &budget);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("distill_smoke: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args() -> (PathBuf, Budget) {
    let mut args = std::env::args().skip(1);
    let mut out = PathBuf::from(".");
    let mut budget = Budget::quick();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            "--full" => budget = Budget::full(),
            other => panic!("unknown argument {other:?} (usage: distill_smoke [--out DIR] [--full])"),
        }
    }
    (out, budget)
}

fn run(out_dir: &Path, work: &Path, budget: &Budget) -> Result<(), String> {
    group("teacher (cyclic joint model, smoke scale)");
    let scale = Scale::smoke();
    let data = ExperimentData::build(&scale);
    let vocab = &data.dataset.vocab;
    let (mut teacher, _) = train_joint_model(&data, &scale, TrainMode::Joint, scale.seed);
    println!("teacher trained: vocab {}, {} q2t pairs", vocab.len(), data.dataset.q2t.len());

    // Distillation corpus: distinct q2t sources, training-side only.
    let mut queries: Vec<Vec<usize>> = Vec::new();
    for p in &data.dataset.q2t {
        if !queries.contains(&p.src) {
            queries.push(p.src.clone());
        }
        if queries.len() >= budget.distill_queries {
            break;
        }
    }

    group("distillation (teacher top-n -> quantized student)");
    let mut config = DistillConfig::default();
    config.train.steps = budget.distill_steps;
    let distilled =
        distill_student(&teacher, vocab, &queries, &config, Some(&work.join("ckpts")))?;
    let last = distilled.curve.last().ok_or("distillation produced no curve points")?;
    println!(
        "distilled over {} teacher pairs, {} steps, final student ppl {:.2}",
        distilled.pairs,
        budget.distill_steps,
        last.ppl_q2t
    );

    // QRWT artifact round trip: v3 quantized blob + v2 f32 remainder
    // must rebuild a student with bitwise-identical logits.
    let student = Arc::new(distilled.student);
    let reloaded = QuantStudent::from_artifacts(
        student.config().clone(),
        &student.export_quantized(),
        &student.export_f32(),
    )
    .map_err(|e| format!("artifact round trip failed: {e}"))?;
    let probe = &queries[0];
    if step_logits_trace(&student, probe) != step_logits_trace(&reloaded, probe) {
        return Err("reloaded student logits diverge from the exporter".into());
    }
    println!("artifact round trip: v3+v2 export reloads bitwise-identically");

    group("oracle quality (student vs teacher, held-out queries)");
    let eval: Vec<Vec<String>> =
        data.eval_query_tokens().into_iter().take(budget.eval_queries).collect();
    if eval.is_empty() {
        return Err("no held-out evaluation queries".into());
    }
    let pipeline = RewritePipeline::new(&teacher, vocab, config.k, config.top_n, config.seed)
        .with_name("distill-teacher");
    let student_rw =
        Q2QRewriter::new(Arc::clone(&student), Arc::new(vocab.clone()), config.top_n, config.seed);
    let verdict = oracle::human_eval(
        &data.log.catalog,
        eval.iter(),
        |q| student_rw.rewrite(q, config.k),
        |q| pipeline.rewrite(q, config.k),
        TIE_MARGIN,
    );
    println!("student vs teacher over {} queries: {verdict}", eval.len());
    if verdict.win + verdict.tie < verdict.lose {
        return Err(format!(
            "student loses to the teacher on the held-out set: \
             win {} + tie {} < lose {}",
            verdict.win, verdict.tie, verdict.lose
        ));
    }

    group("decode speed (max-length, same source)");
    let src = &queries[0];
    teacher.forward.set_decode_mode(TransformerDecodeMode::KvCache);
    let fwd = &teacher.forward;
    let memory = fwd.encode(src);
    let teacher_steps = fwd.config().max_tgt_len;
    let teacher_sample = bench("teacher/decode_maxlen", 1, 9, || {
        let mut state = fwd.start_state(&memory);
        let mut prefix = vec![BOS];
        for step in 0..teacher_steps {
            let lp = fwd.next_log_probs(&memory, &mut state, &prefix);
            std::hint::black_box(&lp);
            prefix.push(4 + (step % 8));
        }
    });

    let mut arena = DecodeArena::default();
    student.encode(src, &mut arena);
    let student_steps = student.max_tgt_len();
    let student_sample = bench("student/decode_maxlen", 1, 9, || {
        let mut cache = student.start_cache(&mut arena);
        let mut token = BOS;
        for step in 0..student_steps {
            let logits = student.step_into(&mut cache, token, &mut arena);
            std::hint::black_box(logits);
            token = 4 + (step % 8);
        }
    });

    let teacher_tps = tokens_per_s(teacher_sample, teacher_steps);
    let student_tps = tokens_per_s(student_sample, student_steps);
    let speedup = student_tps / teacher_tps;
    println!("teacher {teacher_tps:.0} tokens/s, student {student_tps:.0} tokens/s ({speedup:.1}x)");
    if speedup < MIN_STUDENT_SPEEDUP {
        return Err(format!(
            "student speedup {speedup:.2}x below the {MIN_STUDENT_SPEEDUP}x bar \
             (teacher median {} ns, student median {} ns)",
            teacher_sample.median_ns, student_sample.median_ns
        ));
    }

    // Persist the record, guard against committed regressions, re-validate.
    let mut record = BenchRecord::new("distill");
    record.push_derived(
        "teacher/decode_maxlen",
        teacher_sample,
        Derived { tokens_per_s: Some(teacher_tps), speedup_vs: None },
    );
    record.push_derived(
        "student/decode_maxlen",
        student_sample,
        Derived {
            tokens_per_s: Some(student_tps),
            speedup_vs: Some(("teacher/decode_maxlen".into(), speedup)),
        },
    );
    for (name, n) in
        [("oracle/win", verdict.win), ("oracle/tie", verdict.tie), ("oracle/lose", verdict.lose)]
    {
        let n = n as u128;
        record.push(name, Sample { median_ns: n, min_ns: n, max_ns: n });
    }

    let path = out_dir.join("BENCH_distill.json");
    if let Ok(text) = std::fs::read_to_string(&path) {
        let committed = validate_distill_json(&text)
            .map_err(|e| format!("committed {} is malformed: {e}", path.display()))?;
        // Only the latency entries carry timing semantics; the oracle
        // counters vary with the verdict and are excluded by comparing
        // against a latency-only view.
        let mut latency_only = BenchRecord::new("distill");
        for name in ["teacher/decode_maxlen", "student/decode_maxlen"] {
            if let Some(s) = committed.entry(name) {
                latency_only.push(name, s);
            }
        }
        median_regressions(&latency_only, &record, MAX_MEDIAN_REGRESSION)
            .map_err(|e| format!("regression vs committed {}: {e}", path.display()))?;
    }
    record.write_validated(&path).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    validate_distill_json(&text).map_err(|e| format!("{} is malformed: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Greedy max-length logits trace — the bitwise fingerprint used to pin
/// the artifact round trip.
fn step_logits_trace(student: &QuantStudent, src: &[usize]) -> Vec<u32> {
    let mut arena = DecodeArena::default();
    student.encode(src, &mut arena);
    let mut cache = student.start_cache(&mut arena);
    let mut out = Vec::new();
    let mut token = BOS;
    for _ in 0..student.max_tgt_len() {
        let logits = student.step_into(&mut cache, token, &mut arena);
        let (best, lp) = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .expect("non-empty logits");
        out.extend(logits.iter().map(|l| l.to_bits()));
        let _ = lp;
        token = best;
    }
    out
}

fn tokens_per_s(s: Sample, steps: usize) -> f64 {
    steps as f64 * 1e9 / s.median_ns.max(1) as f64
}
