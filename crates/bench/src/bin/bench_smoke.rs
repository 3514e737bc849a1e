//! Smoke-sized benchmark run persisting the decode / matmul perf
//! trajectory as machine-readable JSON.
//!
//! Runs in seconds (it is wired into `scripts/verify.sh --bench-smoke`),
//! writes `BENCH_decode.json` and `BENCH_matmul.json` into the output
//! directory (`--out DIR`, default `.`), re-validates both files against
//! the schema, and enforces three bars before overwriting anything:
//!
//! * the KV-cached decode path is at least 3x faster than the
//!   prefix-recompute baseline measured in the same run (the fast-decode
//!   PR's acceptance bar, kept as a regression gate);
//! * the quantized student decodes at least 2x the tokens/s of the
//!   KV-cached teacher (the distill-and-quantize PR's bar);
//! * no entry shared with the committed `BENCH_*.json` regressed its
//!   median by more than 20%.

use std::path::PathBuf;
use std::process::ExitCode;

use qrw_bench::harness::{
    bench, group, median_regressions, validate_bench_json, BenchRecord, Derived,
};
use qrw_nmt::{ComponentKind, ModelConfig, QuantStudent, Seq2Seq, TransformerDecodeMode};
use qrw_tensor::rng::StdRng;
use qrw_tensor::Tensor;
use qrw_text::BOS;

/// Minimum cached-vs-recompute median speedup accepted for the
/// max-length transformer decode (the fast-decode acceptance criterion).
const MIN_DECODE_SPEEDUP: f64 = 3.0;

/// Minimum student-vs-teacher tokens/s ratio (the distilled fast path's
/// acceptance criterion: ≥2x over the KV-cached teacher decode).
const MIN_STUDENT_SPEEDUP: f64 = 2.0;

/// Maximum accepted median slowdown against the committed BENCH files.
const MAX_MEDIAN_REGRESSION: f64 = 0.20;

fn main() -> ExitCode {
    let out_dir = parse_out_dir();
    let decode = bench_decode();
    let matmul = bench_matmul();

    for rec in [&decode, &matmul] {
        let path = out_dir.join(format!("BENCH_{}.json", rec.bench));
        // Regression gate: compare against the committed trajectory before
        // overwriting it. A missing file is fine (first run); a malformed
        // one is not.
        if let Ok(text) = std::fs::read_to_string(&path) {
            let committed = match validate_bench_json(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("bench_smoke: committed {} is malformed: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = median_regressions(&committed, rec, MAX_MEDIAN_REGRESSION) {
                eprintln!("bench_smoke: regression vs committed {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        match rec.write_validated(&path) {
            Ok(_) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("bench_smoke: {e}");
                return ExitCode::FAILURE;
            }
        }
        // Belt and braces: the persisted bytes themselves must re-validate.
        let text = std::fs::read_to_string(&path).expect("re-read bench file");
        if let Err(e) = validate_bench_json(&text) {
            eprintln!("bench_smoke: {} is malformed: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let recompute = decode.entry("transformer_decode_maxlen/prefix_recompute").unwrap();
    let cached = decode.entry("transformer_decode_maxlen/kv_cache").unwrap();
    let speedup = recompute.median_ns as f64 / cached.median_ns.max(1) as f64;
    println!("\nkv-cache median speedup over prefix recompute: {speedup:.1}x");
    if speedup < MIN_DECODE_SPEEDUP {
        eprintln!(
            "bench_smoke: decode speedup {speedup:.2}x below the {MIN_DECODE_SPEEDUP}x bar \
             (recompute median {} ns, cached median {} ns)",
            recompute.median_ns, cached.median_ns
        );
        return ExitCode::FAILURE;
    }

    let (vs, ratio) = decode
        .derived("student_quantized")
        .and_then(|d| d.speedup_vs.clone())
        .expect("student_quantized carries speedup_vs");
    println!("quantized student tokens/s speedup over {vs}: {ratio:.1}x");
    if ratio < MIN_STUDENT_SPEEDUP {
        let student = decode.entry("student_quantized").unwrap();
        eprintln!(
            "bench_smoke: student speedup {ratio:.2}x below the {MIN_STUDENT_SPEEDUP}x bar \
             (teacher kv median {} ns, student median {} ns)",
            cached.median_ns, student.median_ns
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn parse_out_dir() -> PathBuf {
    let mut args = std::env::args().skip(1);
    let mut out = PathBuf::from(".");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(args.next().expect("--out needs a directory")),
            other => panic!("unknown argument {other:?} (usage: bench_smoke [--out DIR])"),
        }
    }
    out
}

/// Decode throughput implied by a max-length decode sample: `steps`
/// tokens emitted per measured iteration.
fn tokens_per_s(s: qrw_bench::harness::Sample, steps: usize) -> f64 {
    steps as f64 * 1e9 / s.median_ns.max(1) as f64
}

/// Max-length decode (15 steps, Table V measurement config) through both
/// transformer decode modes, the quantized student fast path, plus the
/// hybrid RNN-decoder reference point.
fn bench_decode() -> BenchRecord {
    let src: Vec<usize> = (10..22).collect();
    let mut record = BenchRecord::new("decode");

    group("decode_maxlen (latency_bench config, 15 steps)");
    let mut kv_sample = None;
    for (label, mode) in [
        ("prefix_recompute", TransformerDecodeMode::PrefixRecompute),
        ("kv_cache", TransformerDecodeMode::KvCache),
    ] {
        let mut model = Seq2Seq::new(
            ModelConfig::latency_bench(ComponentKind::Transformer, ComponentKind::Transformer),
            99,
        );
        model.set_decode_mode(mode);
        let memory = model.encode(&src);
        let max_len = model.config().max_tgt_len;
        let s = bench(&format!("transformer_decode_maxlen/{label}"), 1, 9, || {
            let mut state = model.start_state(&memory);
            let mut prefix = vec![BOS];
            for step in 0..max_len {
                let lp = model.next_log_probs(&memory, &mut state, &prefix);
                std::hint::black_box(&lp);
                prefix.push(10 + (step % 12));
            }
        });
        let derived = if label == "kv_cache" {
            kv_sample = Some((s, max_len));
            Derived { tokens_per_s: Some(tokens_per_s(s, max_len)), speedup_vs: None }
        } else {
            Derived::default()
        };
        record.push_derived(format!("transformer_decode_maxlen/{label}"), s, derived);
    }

    // The distilled fast path: a quantized student at its serving config
    // (half the teacher's width, same vocab, i8 kernels + fused epilogue),
    // decoding through its incremental cache. The acceptance bar — ≥2x
    // the teacher's KV-cached tokens/s — is recorded in `speedup_vs`.
    let vocab =
        ModelConfig::latency_bench(ComponentKind::Transformer, ComponentKind::Transformer).vocab;
    let student =
        QuantStudent::from_seq2seq(&Seq2Seq::new(ModelConfig::student(vocab), 99)).unwrap();
    let memory = student.encode(&src);
    let max_len = student.max_tgt_len();
    let s = bench("student_quantized", 1, 9, || {
        let mut cache = student.start_cache(&memory);
        let mut token = BOS;
        for step in 0..max_len {
            let logits = student.step_logits(&mut cache, token);
            std::hint::black_box(&logits);
            token = 10 + (step % 12);
        }
    });
    let (kv, kv_steps) = kv_sample.expect("kv_cache benched above");
    let student_tps = tokens_per_s(s, max_len);
    record.push_derived(
        "student_quantized",
        s,
        Derived {
            tokens_per_s: Some(student_tps),
            speedup_vs: Some((
                "transformer_decode_maxlen/kv_cache".into(),
                student_tps / tokens_per_s(kv, kv_steps),
            )),
        },
    );

    // The paper's §III-G serving trick (transformer encoder + RNN decoder)
    // for trajectory context next to the cached transformer numbers.
    let hybrid = Seq2Seq::new(
        ModelConfig::latency_bench(ComponentKind::Transformer, ComponentKind::Rnn),
        99,
    );
    let memory = hybrid.encode(&src);
    let max_len = hybrid.config().max_tgt_len;
    let s = bench("hybrid_rnn_decode_maxlen", 1, 9, || {
        let mut state = hybrid.start_state(&memory);
        let mut prefix = vec![BOS];
        for step in 0..max_len {
            let lp = hybrid.next_log_probs(&memory, &mut state, &prefix);
            std::hint::black_box(&lp);
            prefix.push(10 + (step % 12));
        }
    });
    record.push("hybrid_rnn_decode_maxlen", s);
    record
}

/// Blocked-kernel matmul at serving-relevant shapes, the row-parallel
/// size, and a naive triple loop at 256^3 for the kernel's own trajectory.
fn bench_matmul() -> BenchRecord {
    let mut rng = StdRng::seed_from_u64(42);
    let mut random = |rows: usize, cols: usize| {
        let data = (0..rows * cols).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        Tensor::from_vec(rows, cols, data)
    };
    let mut record = BenchRecord::new("matmul");

    group("matmul kernels");
    for n in [64usize, 128, 256] {
        let a = random(n, n);
        let b = random(n, n);
        let s = bench(&format!("blocked_{n}"), 1, 7, || {
            std::hint::black_box(a.matmul(&b));
        });
        record.push(format!("blocked_{n}"), s);
    }

    // 256^3 = 16.8M MACs, above PAR_MIN_WORK: exercises the row-parallel
    // path. The naive loop at the same size anchors the kernel speedup.
    let a = random(256, 256);
    let b = random(256, 256);
    let s = bench("naive_256", 1, 7, || {
        std::hint::black_box(naive_matmul(&a, &b));
    });
    record.push("naive_256", s);

    // The two transposed layouts at the same size: one GEMM serves all
    // three, so they should sit near blocked_256.
    let s = bench("transpose_a_256", 1, 7, || {
        std::hint::black_box(a.matmul_transpose_a(&b));
    });
    record.push("transpose_a_256", s);
    let s = bench("transpose_b_256", 1, 7, || {
        std::hint::black_box(a.matmul_transpose_b(&b));
    });
    record.push("transpose_b_256", s);

    // Fused epilogue at the decoder's per-step shape (1 row x d_ff).
    let x = random(1, 64);
    let w = random(64, 128);
    let bias = random(1, 128);
    // 50 inner iterations: at ~1 µs per call the timer and scheduler noise
    // dominate smaller batches, which makes the 20% regression guard flaky.
    let s = bench("fused_bias_relu_1x64x128", 50, 9, || {
        std::hint::black_box(x.matmul_bias_act(&w, &bias, qrw_tensor::Activation::Relu));
    });
    record.push("fused_bias_relu_1x64x128", s);
    record
}

fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0f32;
            for p in 0..k {
                sum += a.get(i, p) * b.get(p, j);
            }
            out.set(i, j, sum);
        }
    }
    out
}
