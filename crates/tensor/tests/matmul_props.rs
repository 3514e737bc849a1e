//! Property tests: the register-tiled, row-parallel GEMM (`qrw_tensor::gemm`)
//! must equal the naive triple loop *exactly* (bitwise) in all three
//! layouts, across random shapes including degenerate (0-row, 1-row, zero
//! inner dimension) and non-multiple-of-tile sizes, and on IEEE special
//! values; and its AVX2 copy must equal its portable copy bit for bit.
//! The kernel keeps the per-element k-accumulation in ascending order
//! precisely so this holds; a tolerance here would let accumulation-order
//! drift creep into the KV-cache equivalence guarantees upstream.
//!
//! The exact `f64` body (`gemm::product_exact`, the backward pass's path
//! for tiny gradients) is pinned the same way, on operands built to reach
//! every rounding case it emulates: subnormal inputs and products, ties of
//! the 2⁻¹⁴⁹ grid, the 2⁻¹²⁶ boundary, cancellation into the subnormal
//! range, signed zeros, overflow and non-finite inputs.

use qrw_tensor::gemm::{product_exact, product_portable, Layout};
use qrw_tensor::rng::StdRng;
use qrw_tensor::{avx2_available, Activation, Tensor, PAR_MIN_WORK};

fn random(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Naive `a[m,k] @ b[k,n]`, the reference accumulation order.
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

/// Naive `a[m,k] @ b[n,k]^T`.
fn naive_tb(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.rows();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0f32;
            for p in 0..k {
                sum += a.get(i, p) * b.get(j, p);
            }
            out.set(i, j, sum);
        }
    }
    out
}

/// Naive `a[k,m]^T @ b[k,n]`.
fn naive_ta(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0f32;
            for p in 0..k {
                sum += a.get(p, i) * b.get(p, j);
            }
            out.set(i, j, sum);
        }
    }
    out
}

fn assert_bitwise_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs: {g} vs {w}"
        );
    }
}

/// `(m, k, n)` shapes: degenerate rows, single rows/cols, and a grid that
/// straddles the 4x16 microkernel tile — row counts below, at and above
/// one tile height (so 1-, 2- and 3-row remainders), column counts one
/// short of, at, one past and a multiple of one tile width (the
/// zero-padded fringe panel), and empty or single-step k loops. The
/// wide single-row tiles (4 panels) run on `n >= 64`.
fn shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (1, 1, 1),
        (1, 64, 3000),
        (2, 5, 1),
        (7, 9, 127),
        (8, 16, 128),
        (9, 17, 129),
        (16, 8, 256),
        (33, 31, 65),
    ];
    for m in [1, 2, 3, 4, 5, 6] {
        for n in [15, 16, 17, 48] {
            for k in [0, 1, 13] {
                shapes.push((m, k, n));
            }
        }
    }
    shapes
}

/// The three products of `(m, k, n)` on `rng` draws, as
/// `(layout, a, b, naive result)`.
fn products(
    rng: &mut StdRng,
    (m, k, n): (usize, usize, usize),
    draw: impl Fn(&mut StdRng, usize, usize) -> Tensor,
) -> Vec<(Layout, Tensor, Tensor, Tensor)> {
    let (a, b) = (draw(rng, m, k), draw(rng, k, n));
    let plain = naive_matmul(&a, &b);
    let (at, bt) = (draw(rng, k, m), draw(rng, n, k));
    let ta = naive_ta(&at, &b);
    let tb = naive_tb(&a, &bt);
    vec![
        (Layout::Plain, a.clone(), b.clone(), plain),
        (Layout::TransposeA, at, b, ta),
        (Layout::TransposeB, a, bt, tb),
    ]
}

fn dispatched(a: &Tensor, b: &Tensor, layout: Layout) -> Tensor {
    match layout {
        Layout::Plain => a.matmul(b),
        Layout::TransposeA => a.matmul_transpose_a(b),
        Layout::TransposeB => a.matmul_transpose_b(b),
    }
}

#[test]
fn matmul_matches_naive_exactly() {
    let mut rng = StdRng::seed_from_u64(1);
    for (m, k, n) in shapes() {
        let a = random(&mut rng, m, k);
        let b = random(&mut rng, k, n);
        assert_bitwise_eq(&a.matmul(&b), &naive_matmul(&a, &b), &format!("matmul {m}x{k}x{n}"));
    }
}

#[test]
fn matmul_transpose_b_matches_naive_exactly() {
    let mut rng = StdRng::seed_from_u64(2);
    for (m, k, n) in shapes() {
        let a = random(&mut rng, m, k);
        let b = random(&mut rng, n, k);
        assert_bitwise_eq(&a.matmul_transpose_b(&b), &naive_tb(&a, &b), &format!("tb {m}x{k}x{n}"));
    }
}

#[test]
fn matmul_transpose_a_matches_naive_exactly() {
    let mut rng = StdRng::seed_from_u64(3);
    for (m, k, n) in shapes() {
        let a = random(&mut rng, k, m);
        let b = random(&mut rng, k, n);
        assert_bitwise_eq(&a.matmul_transpose_a(&b), &naive_ta(&a, &b), &format!("ta {m}x{k}x{n}"));
    }
}

/// A shape big enough to cross [`PAR_MIN_WORK`] and take the threaded
/// path; per-row results must still be bitwise identical to naive.
#[test]
fn parallel_path_is_bitwise_identical() {
    let (m, k, n) = (64, 96, 512);
    assert!(m * k * n >= PAR_MIN_WORK, "shape must trigger the parallel path");
    let mut rng = StdRng::seed_from_u64(4);
    let a = random(&mut rng, m, k);
    let b = random(&mut rng, k, n);
    assert_bitwise_eq(&a.matmul(&b), &naive_matmul(&a, &b), "parallel matmul");
    let bt = random(&mut rng, n, k);
    assert_bitwise_eq(&a.matmul_transpose_b(&bt), &naive_tb(&a, &bt), "parallel tb");
    let at = random(&mut rng, k, m);
    assert_bitwise_eq(&at.matmul_transpose_a(&b), &naive_ta(&at, &b), "parallel ta");
}

/// Random fuzz over many irregular shapes (seeded loop, no external
/// proptest): every draw must agree bitwise with naive.
#[test]
fn fuzzed_shapes_match_naive() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..40 {
        let m = rng.gen_range(0..20);
        let k = rng.gen_range(0..20);
        let n = rng.gen_range(0..140);
        let a = random(&mut rng, m, k);
        let b = random(&mut rng, k, n);
        assert_bitwise_eq(&a.matmul(&b), &naive_matmul(&a, &b), &format!("fuzz {m}x{k}x{n}"));
    }
}

/// Signed zeros, infinities, NaN and subnormals go through the kernel's
/// plain `acc += a * b` like any other value: `-0.0` products vanish into
/// the `+0.0` seed, `inf * 0` makes NaN, subnormals are neither flushed nor
/// treated as zero. Compared by bits against the naive loop.
///
/// The NaN input is the one the hardware itself produces (`inf * 0`), so
/// every NaN in a sum carries the same bits: which operand's payload an add
/// of two different NaNs keeps is left open by IEEE 754 and by the compiler.
#[test]
fn special_values_match_naive_bitwise() {
    let nan = std::hint::black_box(f32::INFINITY) * std::hint::black_box(0.0f32);
    assert!(nan.is_nan());
    let specials = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        nan,
        f32::MIN_POSITIVE / 4.0,
        -f32::MIN_POSITIVE / 3.0,
        f32::from_bits(1),
        f32::MAX,
        1.5,
        -2.25,
    ];
    let draw = |rng: &mut StdRng, rows: usize, cols: usize| {
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen::<f32>() < 0.5 {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen::<f32>() * 4.0 - 2.0
                }
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    };
    // All-negative-zero operands: every product is -0.0 and the sum must
    // keep the +0.0 seed.
    let neg = Tensor::full(5, 7, -0.0);
    let pos = Tensor::full(7, 17, 1.0);
    assert!(neg.matmul(&pos).data().iter().all(|v| v.to_bits() == 0));
    let mut rng = StdRng::seed_from_u64(7);
    for shape in shapes() {
        for (layout, a, b, want) in products(&mut rng, shape, draw) {
            let what = format!("special {layout:?} {shape:?}");
            assert_bitwise_eq(&dispatched(&a, &b, layout), &want, &what);
            assert_bitwise_eq(&product_portable(&a, &b, layout), &want, &what);
        }
    }
}

/// The AVX2 copy of the kernel (taken by every product on a CPU with
/// AVX2) against the portable copy, on every shape and layout, bit for
/// bit — the way `dot_i8` pins the i8 kernels.
#[test]
fn avx2_copy_matches_portable_copy_bitwise() {
    if !avx2_available() {
        eprintln!("no AVX2 on this CPU: both sides run the portable copy");
    }
    let mut rng = StdRng::seed_from_u64(8);
    let mut all = shapes();
    all.push((64, 96, 512)); // the threaded path
    for shape in all {
        for (layout, a, b, _) in products(&mut rng, shape, random) {
            assert_bitwise_eq(
                &dispatched(&a, &b, layout),
                &product_portable(&a, &b, layout),
                &format!("avx2 vs portable {layout:?} {shape:?}"),
            );
        }
    }
}

/// Ragged `(m, k, n)` shapes for the exact body: its 2x16 tiles, the
/// 1x32 stripe of a leftover row, empty products, the threaded path, and
/// seeded draws with every dimension in `0..70`.
fn ragged_shapes(rng: &mut StdRng) -> Vec<(usize, usize, usize)> {
    let mut shapes = vec![
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (1, 1, 1),
        (1, 7, 33),
        (2, 5, 16),
        (3, 25, 48),
        (4, 48, 17),
        (25, 48, 48),
        (48, 25, 96),
        (64, 96, 512),
    ];
    shapes.extend(
        (0..24).map(|_| (rng.gen_range(0..70), rng.gen_range(0..70), rng.gen_range(0..70))),
    );
    shapes
}

/// `product_exact` against the naive loops in all three layouts on every
/// ragged shape, with operands from `draw`.
fn exact_matches_naive(seed: u64, draw: impl Fn(&mut StdRng, usize, usize) -> Tensor + Copy) {
    let mut rng = StdRng::seed_from_u64(seed);
    for shape in ragged_shapes(&mut rng) {
        for (layout, a, b, want) in products(&mut rng, shape, draw) {
            let what = format!("exact {layout:?} {shape:?} seed {seed}");
            assert_bitwise_eq(&product_exact(&a, &b, layout), &want, &what);
        }
    }
}

fn tensor_of(
    rng: &mut StdRng,
    rows: usize,
    cols: usize,
    value: impl Fn(&mut StdRng) -> f32,
) -> Tensor {
    let data = (0..rows * cols).map(|_| value(rng)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// An f32 with magnitude bits drawn from `mags` and a random sign.
fn signed(rng: &mut StdRng, mags: std::ops::Range<u32>) -> f32 {
    let mag = rng.gen_range(mags);
    f32::from_bits(mag | if rng.gen::<bool>() { 1 << 31 } else { 0 })
}

/// Operands across the whole subnormal bit range, around 2⁻¹²⁶, ±0, and
/// normals from 2⁻⁹⁰ to 2⁸ whose products land anywhere from the
/// subnormal range up; every value in a product is exact f32 input.
#[test]
fn exact_body_matches_naive_on_subnormal_operands() {
    let draw = |rng: &mut StdRng, rows, cols| {
        tensor_of(rng, rows, cols, |rng| match rng.gen_range(0..10) {
            0..=2 => signed(rng, 0..1 << 23),
            3 => signed(rng, 0x0080_0000 - 8..0x0080_0000 + 8),
            4 => signed(rng, 0..1),
            _ => {
                let scale = 2f32.powi(rng.gen_range(-90..8));
                (rng.gen::<f32>() * 4.0 - 2.0) * scale
            }
        })
    };
    exact_matches_naive(21, draw);
}

/// Products that land on half-way points of the 2⁻¹⁴⁹ grid (ties, both
/// directions of even), exactly on 2⁻¹²⁶, and on the tie just below it
/// that rounds up to 2⁻¹²⁶: `a = (2j+1)·2⁻⁷⁵`, `b = ±2⁻⁷⁵`, and
/// `2⁻⁶³ · 2⁻⁶³`.
#[test]
fn exact_body_rounds_grid_ties_and_the_normal_boundary() {
    let p75 = 2f32.powi(-75);
    let draw = move |rng: &mut StdRng, rows, cols| {
        tensor_of(rng, rows, cols, |rng| match rng.gen_range(0..6) {
            0 => 2f32.powi(-63),
            1 => (2.0 * rng.gen_range(0..1 << 12) as f32 + 1.0) * p75,
            2 => ((1 << 24) - 1) as f32 * p75,
            3 => (2.0 * rng.gen_range(0..1 << 23) as f32 + 1.0) * p75,
            4 => -p75,
            _ => p75,
        })
    };
    exact_matches_naive(22, draw);
    // One product per output, checked directly: ties go to the even grid
    // point, and `(2²⁴ - 1)·2⁻¹⁵⁰` rounds up to 2⁻¹²⁶.
    let cases =
        [(1.0, 0.0), (3.0, 2.0), (5.0, 2.0), (7.0, 4.0), (((1 << 24) - 1) as f32, 8_388_608.0)];
    for (odd, want) in cases {
        let a = Tensor::from_vec(1, 1, vec![odd * p75]);
        let b = Tensor::from_vec(1, 1, vec![p75]);
        let got = product_exact(&a, &b, Layout::Plain).data()[0];
        assert_eq!(got.to_bits(), f32::from_bits(want as u32).to_bits(), "({odd})·2⁻¹⁵⁰");
    }
}

/// Partial sums that cancel from the normal range into the subnormal
/// one and back: normals within a few ulps of ±2⁻¹²⁵ times ±1 and
/// `1 ± 2⁻²³`, with subnormals in between.
#[test]
fn exact_body_matches_naive_on_cancelling_sums() {
    let near = f32::MIN_POSITIVE * 2.0;
    let draw = move |rng: &mut StdRng, rows, cols| {
        tensor_of(rng, rows, cols, |rng| match rng.gen_range(0..6) {
            0 => 1.0,
            1 => -1.0,
            2 => 1.0 + f32::EPSILON,
            3 => signed(rng, 0..1 << 23),
            _ => signed(rng, near.to_bits() - 32..near.to_bits() + 32),
        })
    };
    exact_matches_naive(23, draw);
}

/// `+0.0` and `-0.0` operands: a product of zeros of either sign, or a
/// negative product that rounds to zero, never shows in an output.
#[test]
fn exact_body_keeps_the_positive_zero_seed() {
    let draw = |rng: &mut StdRng, rows, cols| {
        tensor_of(rng, rows, cols, |rng| match rng.gen_range(0..4) {
            0 => 0.0,
            1 => -0.0,
            2 => -f32::from_bits(1),
            _ => 2f32.powi(-30),
        })
    };
    exact_matches_naive(24, draw);
    let neg = Tensor::full(5, 7, -0.0);
    let pos = Tensor::full(7, 17, 1.0);
    assert!(product_exact(&neg, &pos, Layout::Plain).data().iter().all(|v| v.to_bits() == 0));
}

/// Finite operands whose products or sums overflow to ±inf (and then to
/// NaN), and NaN or infinite inputs: both take the f32 body, mixed with
/// subnormals so the exact body would have been chosen otherwise.
#[test]
fn exact_body_routes_overflow_and_non_finite_to_f32() {
    let nan = std::hint::black_box(f32::INFINITY) * std::hint::black_box(0.0f32);
    let overflow = |rng: &mut StdRng, rows, cols| {
        tensor_of(rng, rows, cols, |rng| match rng.gen_range(0..5) {
            0 => f32::MAX * if rng.gen::<bool>() { 0.75 } else { -0.75 },
            1 => 2f32.powi(rng.gen_range(60..100)),
            2 => -2f32.powi(rng.gen_range(60..100)),
            3 => signed(rng, 0..1 << 23),
            _ => rng.gen::<f32>() * 4.0 - 2.0,
        })
    };
    exact_matches_naive(25, overflow);
    let non_finite = move |rng: &mut StdRng, rows, cols| {
        tensor_of(rng, rows, cols, |rng| match rng.gen_range(0..12) {
            0 => f32::INFINITY,
            1 => f32::NEG_INFINITY,
            2 => nan,
            3..=6 => signed(rng, 0..1 << 23),
            _ => rng.gen::<f32>() * 4.0 - 2.0,
        })
    };
    exact_matches_naive(26, non_finite);
}

#[test]
fn fused_bias_act_matches_unfused() {
    let mut rng = StdRng::seed_from_u64(6);
    for (m, k, n) in [(1, 8, 40), (5, 16, 33), (0, 4, 9)] {
        let x = random(&mut rng, m, k);
        let w = random(&mut rng, k, n);
        let b = random(&mut rng, 1, n);
        let plain = x.matmul(&w).add_row_broadcast(&b);
        assert_bitwise_eq(
            &x.matmul_bias_act(&w, &b, Activation::Identity),
            &plain,
            "fused identity",
        );
        let mut relued = plain.clone();
        for v in relued.data_mut() {
            *v = v.max(0.0);
        }
        assert_bitwise_eq(&x.matmul_bias_act(&w, &b, Activation::Relu), &relued, "fused relu");
    }
}

#[test]
fn push_row_grows_incrementally() {
    let mut t = Tensor::with_row_capacity(4, 3);
    assert_eq!(t.shape(), (0, 3));
    t.push_row(&[1.0, 2.0, 3.0]);
    t.push_row(&[4.0, 5.0, 6.0]);
    assert_eq!(t.shape(), (2, 3));
    assert_eq!(t.row_slice(1), &[4.0, 5.0, 6.0]);
}
