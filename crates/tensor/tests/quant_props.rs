//! Property tests for the i8 quantization path (`qrw_tensor::quant`):
//! round-trip error bounds derived from the per-row scale, saturation
//! edge cases at the i8 boundary, and bitwise determinism of the
//! quantized matmul across reused buffers — the properties the distilled
//! student's serving guarantees rest on.

use qrw_tensor::quant::{dot_i8, quantize_row, QuantizedMatrix, QuantizedRows};
use qrw_tensor::rng::StdRng;
use qrw_tensor::Tensor;

fn random_tensor(rows: usize, cols: usize, seed: u64, spread: f32) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * spread)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Round-to-nearest symmetric quantization: every element's round-trip
/// error is at most half the row's scale, for rows across many
/// magnitudes (1e-6 … 1e6) and shapes.
#[test]
fn roundtrip_error_bounded_by_half_row_scale() {
    for (seed, spread) in [(1u64, 1e-6f32), (2, 0.01), (3, 1.0), (4, 300.0), (5, 1e6)] {
        let t = random_tensor(7, 33, seed, spread);
        let q = QuantizedMatrix::from_rows(&t);
        let back = q.dequantize();
        for r in 0..t.rows() {
            let half_step = q.scales()[r] / 2.0;
            for c in 0..t.cols() {
                let err = (t.get(r, c) - back.get(r, c)).abs();
                // f32 rounding of the scale itself adds a hair of slack.
                assert!(
                    err <= half_step * 1.0001 + f32::EPSILON,
                    "spread {spread} ({r},{c}): err {err} > half-step {half_step}"
                );
            }
        }
    }
}

/// The row scale is exactly `max|row| / 127`, so the largest-magnitude
/// element always round-trips to itself (up to f32 rounding).
#[test]
fn row_max_survives_roundtrip() {
    let t = random_tensor(5, 24, 9, 2.5);
    let q = QuantizedMatrix::from_rows(&t);
    let back = q.dequantize();
    for r in 0..t.rows() {
        let (c_max, x_max) = (0..t.cols())
            .map(|c| (c, t.get(r, c)))
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .unwrap();
        let rel = ((back.get(r, c_max) - x_max) / x_max).abs();
        assert!(rel < 1e-5, "row {r}: max element {x_max} came back {}", back.get(r, c_max));
    }
}

/// Saturation edge cases: the quantizer clamps to ±127 and never emits
/// -128 (so negating a quantized row is always exact), zero rows get a
/// zero scale and zero payload, and a single subnormal outlier cannot
/// produce out-of-range codes.
#[test]
fn saturation_edges() {
    // Extreme values clamp cleanly.
    let (q, s) = quantize_row(&[f32::MAX, -f32::MAX, 0.0]);
    assert_eq!(q, vec![127, -127, 0]);
    assert!(s.is_finite() && s > 0.0);

    // A dominant value with a tiny opposite-sign tail: tail rounds to 0.
    let (q, _) = quantize_row(&[1.0, -1e-12]);
    assert_eq!(q, vec![127, 0]);

    // All-zero (and negative-zero) rows: scale 0, payload 0 — and the
    // integer kernel then produces exact zeros rather than NaN.
    let (q, s) = quantize_row(&[0.0, -0.0, 0.0]);
    assert_eq!(s, 0.0);
    assert!(q.iter().all(|&v| v == 0));
    let m = QuantizedMatrix::from_rows(&Tensor::zeros(3, 8));
    let mut y = Tensor::default();
    m.matmul_into(&random_tensor(2, 8, 10, 1.0), None, &mut y, &mut Vec::new());
    assert_eq!(y.shape(), (2, 3));
    assert!(y.data().iter().all(|&v| v == 0.0));

    // No code ever reaches -128 across a magnitude sweep.
    for seed in 0..20u64 {
        let t = random_tensor(3, 40, seed, 10f32.powi((seed % 9) as i32 - 4));
        let m = QuantizedMatrix::from_rows(&t);
        assert!(m.data().iter().all(|&v| v > -128), "seed {seed} hit -128");
    }
}

/// `i8 × i8 → i32` accumulation cannot overflow for any realistic row
/// width: worst case per term is 127² = 16129, and the kernel's i32
/// accumulator holds 2³¹⁻¹ / 16129 ≈ 133k terms. Check the worst case
/// at a width far beyond any model dimension here.
#[test]
fn integer_accumulation_never_overflows_at_model_widths() {
    let n = 65_536;
    let a = vec![127i8; n];
    let b = vec![127i8; n];
    assert_eq!(dot_i8(&a, &b), 127 * 127 * n as i32);
    let c = vec![-127i8; n];
    assert_eq!(dot_i8(&a, &c), -127 * 127 * n as i32);
}

/// Bitwise determinism across reused buffers: the integer inner loop is
/// exact and the f32 epilogue is per-element, so a warm `out`/`xq` pair
/// left dirty by a differently shaped product must give exactly the bits
/// of fresh buffers — not approximately.
#[test]
fn quantized_matmul_into_warm_buffers_is_bitwise_deterministic() {
    let (mut out, mut xq) = (Tensor::default(), Vec::new());
    for (rows, cols, outs, seed) in [(1usize, 64usize, 3000usize, 1u64), (64, 48, 96, 2), (7, 33, 17, 3)] {
        let x = random_tensor(rows, cols, seed, 1.0);
        let w = random_tensor(cols, outs, seed + 100, 0.5);
        let q = QuantizedMatrix::from_weight(&w);
        let bias: Vec<f32> = (0..outs).map(|i| (i as f32).sin()).collect();
        let mut fresh = Tensor::default();
        q.matmul_into(&x, Some(&bias), &mut fresh, &mut Vec::new());
        q.matmul_into(&x, Some(&bias), &mut out, &mut xq);
        assert_eq!(fresh, out, "{rows}x{cols}x{outs}: warm buffers diverged");
        // And across repeated runs (no hidden global state).
        q.matmul_into(&x, Some(&bias), &mut out, &mut xq);
        assert_eq!(fresh, out);
    }
}

/// Quantized attention scores are shift-free linear maps of integer
/// dots: repeated evaluation and row-incremental growth give identical
/// bits.
#[test]
fn attention_key_cache_scores_deterministic() {
    let keys = random_tensor(12, 32, 8, 1.0);
    let all_at_once = QuantizedRows::from_tensor(&keys);
    let mut grown = QuantizedRows::new(32);
    for r in 0..keys.rows() {
        grown.push_row(keys.row_slice(r));
    }
    let (qv, qs) = quantize_row(random_tensor(1, 32, 9, 1.0).row_slice(0));
    let (mut s1, mut s2) = (Vec::new(), Vec::new());
    all_at_once.scores_into(&qv, qs, 0.25, &mut s1);
    grown.scores_into(&qv, qs, 0.25, &mut s2);
    assert_eq!(s1, s2);
    let mut s3 = Vec::new();
    all_at_once.scores_into(&qv, qs, 0.25, &mut s3);
    assert_eq!(s1, s3);
}

/// The stacked product: `matmul_quantized` over `R` activation rows is,
/// row for row, bitwise `R` single `matvec_quantized` calls and the
/// scalar `dot_i8` epilogue, for R = 1..=4 (and past one four-row group),
/// with and without bias, at widths around the 16- and 32-byte chunks
/// and row counts around the four-row blocks. Activation codes span the
/// whole i8 range, -128 included.
#[test]
fn stacked_matmul_is_bitwise_single_row_matvecs() {
    let mut rng = StdRng::seed_from_u64(0x57AC);
    for cols in [1usize, 15, 16, 17, 31, 32, 33, 48, 64, 100] {
        for rows in [1usize, 3, 4, 5, 8, 23, 499] {
            let w = random_tensor(cols, rows, (cols * rows) as u64, 1.0);
            let q = QuantizedMatrix::from_weight(&w);
            let bias: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.7).sin()).collect();
            for r in [1usize, 2, 3, 4, 6] {
                let xq: Vec<i8> =
                    (0..r * cols).map(|_| rng.gen_range(0u32..256) as u8 as i8).collect();
                let xs: Vec<f32> = (0..r).map(|_| rng.gen::<f32>() * 0.01).collect();
                for b in [Some(&bias[..]), None] {
                    let mut stacked = vec![f32::NAN; r * rows];
                    q.matmul_quantized(&xq, &xs, b, &mut stacked);
                    for (i, got) in stacked.chunks(rows).enumerate() {
                        let x = &xq[i * cols..(i + 1) * cols];
                        let mut single = vec![f32::NAN; rows];
                        q.matvec_quantized(x, xs[i], b, &mut single);
                        for (j, (&g, &s)) in got.iter().zip(&single).enumerate() {
                            let mut want = dot_i8(x, q.row(j)) as f32 * xs[i] * q.scales()[j];
                            if let Some(b) = b {
                                want += b[j];
                            }
                            let bias = b.is_some();
                            let at = format!("R={r} {rows}x{cols} row {i} out {j} bias {bias}");
                            assert_eq!(g.to_bits(), s.to_bits(), "stacked vs single: {at}");
                            assert_eq!(g.to_bits(), want.to_bits(), "stacked vs scalar: {at}");
                        }
                    }
                }
            }
        }
    }
}
