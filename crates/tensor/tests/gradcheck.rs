//! Finite-difference gradient checks for every tape op.
//!
//! For each op we build a scalar loss through it, compute analytic parameter
//! gradients with `Tape::backward`, and compare against central differences.
//! Shapes and values are randomized (seeded, reproducible) where it adds
//! coverage.

use qrw_tensor::rng::StdRng;

use qrw_tensor::gemm::{product_portable, Layout};
use qrw_tensor::init;
use qrw_tensor::tape::{Tape, Var};
use qrw_tensor::tensor::Tensor;
use qrw_tensor::Param;

/// Central-difference check: for every scalar in every param, perturb and
/// compare the analytic gradient. `f` must rebuild the loss from scratch.
fn check_grads(params: &[Param], f: &dyn Fn() -> f32, compute_analytic: &dyn Fn(), tol: f32) {
    for p in params {
        p.zero_grad();
    }
    compute_analytic();
    const H: f32 = 1e-2;
    for p in params {
        let analytic = p.grad();
        let base = p.value();
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus.data_mut()[i] += H;
            p.set_value(plus);
            let f_plus = f();
            let mut minus = base.clone();
            minus.data_mut()[i] -= H;
            p.set_value(minus);
            let f_minus = f();
            p.set_value(base.clone());
            let numeric = (f_plus - f_minus) / (2.0 * H);
            let a = analytic.data()[i];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            assert!(
                (a - numeric).abs() / denom < tol,
                "param '{}' [{}]: analytic {a}, numeric {numeric}",
                p.name(),
                i
            );
        }
    }
}

/// Reduce any matrix node to a scalar via a fixed quadratic form, so the
/// gradient exercises every entry with distinct weights.
fn to_scalar<'t>(tape: &'t Tape, x: Var<'t>) -> Var<'t> {
    let (r, c) = x.shape();
    let weights: Vec<f32> = (0..r * c).map(|i| 0.1 * (i as f32 + 1.0)).collect();
    let w = tape.constant(Tensor::from_vec(c, 1, weights[..c].to_vec()));
    let col = x.matmul(w); // r x 1
    let picker: Vec<f32> = (0..r).map(|i| 0.3 * (i as f32 + 1.0)).collect();
    let pick = tape.constant(Tensor::from_vec(1, r, picker));
    pick.matmul(col)
}

fn rand_param(seed: u64, name: &str, rows: usize, cols: usize) -> Param {
    let mut rng = StdRng::seed_from_u64(seed);
    Param::new(name, init::uniform(&mut rng, rows, cols, 1.0))
}

macro_rules! gradcheck {
    ($name:ident, $params:expr, $build:expr) => {
        #[test]
        fn $name() {
            let params: Vec<Param> = $params;
            let build: for<'t> fn(&'t Tape, &[Param]) -> Var<'t> = $build;
            let f = || {
                let tape = Tape::new();
                build(&tape, &params).item()
            };
            let analytic = || {
                let tape = Tape::new();
                let loss = build(&tape, &params);
                tape.backward(loss);
            };
            check_grads(&params, &f, &analytic, 2e-2);
        }
    };
}

gradcheck!(add_grad, vec![rand_param(1, "a", 2, 3), rand_param(2, "b", 2, 3)], |tape: &Tape,
                                                                                ps: &[Param]| {
    let a = tape.param(&ps[0]);
    let b = tape.param(&ps[1]);
    to_scalar(tape, a.add(b))
});

gradcheck!(sub_grad, vec![rand_param(3, "a", 2, 2), rand_param(4, "b", 2, 2)], |tape: &Tape,
                                                                                ps: &[Param]| {
    let a = tape.param(&ps[0]);
    let b = tape.param(&ps[1]);
    to_scalar(tape, a.sub(b))
});

gradcheck!(mul_grad, vec![rand_param(5, "a", 3, 2), rand_param(6, "b", 3, 2)], |tape: &Tape,
                                                                                ps: &[Param]| {
    let a = tape.param(&ps[0]);
    let b = tape.param(&ps[1]);
    to_scalar(tape, a.mul(b))
});

gradcheck!(
    add_broadcast_row_grad,
    vec![rand_param(7, "x", 3, 4), rand_param(8, "row", 1, 4)],
    |tape: &Tape, ps: &[Param]| {
        let x = tape.param(&ps[0]);
        let row = tape.param(&ps[1]);
        to_scalar(tape, x.add_broadcast_row(row))
    }
);

gradcheck!(affine_grad, vec![rand_param(9, "x", 2, 3)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    to_scalar(tape, x.affine(1.7, -0.3))
});

gradcheck!(
    matmul_grad,
    vec![rand_param(10, "a", 2, 3), rand_param(11, "b", 3, 4)],
    |tape: &Tape, ps: &[Param]| {
        let a = tape.param(&ps[0]);
        let b = tape.param(&ps[1]);
        to_scalar(tape, a.matmul(b))
    }
);

gradcheck!(
    matmul_transpose_b_grad,
    vec![rand_param(12, "a", 2, 3), rand_param(13, "b", 4, 3)],
    |tape: &Tape, ps: &[Param]| {
        let a = tape.param(&ps[0]);
        let b = tape.param(&ps[1]);
        to_scalar(tape, a.matmul_transpose_b(b))
    }
);

gradcheck!(transpose_grad, vec![rand_param(14, "x", 2, 3)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    to_scalar(tape, x.transpose())
});

gradcheck!(softmax_grad, vec![rand_param(15, "x", 2, 4)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    to_scalar(tape, x.row_softmax())
});

gradcheck!(log_softmax_grad, vec![rand_param(16, "x", 2, 4)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    to_scalar(tape, x.row_log_softmax())
});

gradcheck!(cross_entropy_grad, vec![rand_param(17, "logits", 3, 5)], |tape: &Tape,
                                                                      ps: &[Param]| {
    let logits = tape.param(&ps[0]);
    logits.cross_entropy_sum(&[2, 0, 4], &[1.0, 0.5, 1.0])
});

gradcheck!(
    cross_entropy_smoothed_grad,
    vec![rand_param(45, "logits", 3, 5)],
    |tape: &Tape, ps: &[Param]| {
        let logits = tape.param(&ps[0]);
        logits.cross_entropy_sum_smoothed(&[2, 0, 4], &[1.0, 0.5, 1.0], 0.1)
    }
);

gradcheck!(relu_grad, vec![rand_param(18, "x", 2, 4)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    // Shift away from the kink at 0 so finite differences are valid.
    to_scalar(tape, x.affine(1.0, 0.3).relu())
});

gradcheck!(sigmoid_grad, vec![rand_param(19, "x", 2, 3)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    to_scalar(tape, x.sigmoid())
});

gradcheck!(tanh_grad, vec![rand_param(20, "x", 2, 3)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    to_scalar(tape, x.tanh())
});

gradcheck!(
    layer_norm_grad,
    vec![rand_param(21, "x", 3, 6), rand_param(22, "gain", 1, 6), rand_param(23, "bias", 1, 6)],
    |tape: &Tape, ps: &[Param]| {
        let x = tape.param(&ps[0]);
        let gain = tape.param(&ps[1]);
        let bias = tape.param(&ps[2]);
        to_scalar(tape, x.layer_norm(gain, bias))
    }
);

gradcheck!(
    concat_cols_grad,
    vec![rand_param(24, "a", 2, 2), rand_param(25, "b", 2, 3)],
    |tape: &Tape, ps: &[Param]| {
        let a = tape.param(&ps[0]);
        let b = tape.param(&ps[1]);
        to_scalar(tape, Var::concat_cols(&[a, b]))
    }
);

gradcheck!(slice_cols_grad, vec![rand_param(26, "x", 2, 5)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    to_scalar(tape, x.slice_cols(1, 3))
});

gradcheck!(slice_rows_grad, vec![rand_param(27, "x", 4, 3)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    to_scalar(tape, x.slice_rows(1, 2))
});

gradcheck!(
    stack_rows_grad,
    vec![rand_param(28, "a", 1, 3), rand_param(29, "b", 2, 3)],
    |tape: &Tape, ps: &[Param]| {
        let a = tape.param(&ps[0]);
        let b = tape.param(&ps[1]);
        to_scalar(tape, Var::stack_rows(&[a, b]))
    }
);

gradcheck!(mean_rows_grad, vec![rand_param(30, "x", 3, 4)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    to_scalar(tape, x.mean_rows())
});

gradcheck!(
    add_n_grad,
    vec![rand_param(31, "a", 2, 2), rand_param(32, "b", 2, 2), rand_param(33, "c", 2, 2)],
    |tape: &Tape, ps: &[Param]| {
        let vars: Vec<_> = ps.iter().map(|p| tape.param(p)).collect();
        to_scalar(tape, Var::add_n(&vars))
    }
);

gradcheck!(
    log_sum_exp_scalars_grad,
    vec![rand_param(34, "a", 1, 1), rand_param(35, "b", 1, 1), rand_param(36, "c", 1, 1)],
    |tape: &Tape, ps: &[Param]| {
        let vars: Vec<_> = ps.iter().map(|p| tape.param(p)).collect();
        Var::log_sum_exp_scalars(&vars)
    }
);

gradcheck!(gather_rows_grad, vec![rand_param(37, "emb", 5, 3)], |tape: &Tape, ps: &[Param]| {
    let x = tape.gather_rows(&ps[0], &[4, 1, 1, 0]);
    to_scalar(tape, x)
});

gradcheck!(dropout_mask_grad, vec![rand_param(38, "x", 2, 4)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    let mask = Tensor::from_vec(2, 4, vec![2.0, 0.0, 2.0, 2.0, 0.0, 2.0, 2.0, 0.0]);
    to_scalar(tape, x.dropout_mask(mask))
});

gradcheck!(add_const_grad, vec![rand_param(39, "x", 2, 3)], |tape: &Tape, ps: &[Param]| {
    let x = tape.param(&ps[0]);
    let c = Tensor::from_vec(2, 3, vec![0.5, -0.25, 1.0, 0.0, 2.0, -1.0]);
    to_scalar(tape, x.add_const(&c))
});

// A composed check resembling one attention head: the kind of graph the
// models actually build.
gradcheck!(
    attention_composite_grad,
    vec![rand_param(40, "q", 3, 4), rand_param(41, "k", 5, 4), rand_param(42, "v", 5, 4)],
    |tape: &Tape, ps: &[Param]| {
        let q = tape.param(&ps[0]);
        let k = tape.param(&ps[1]);
        let v = tape.param(&ps[2]);
        let scores = q.matmul_transpose_b(k).scale(0.5);
        let attn = scores.row_softmax();
        to_scalar(tape, attn.matmul(v))
    }
);

// Matmul gradients hold across random shapes (16 seeded cases).
#[test]
fn prop_matmul_gradcheck() {
    let mut rng = StdRng::seed_from_u64(0x3A73);
    for _ in 0..16 {
        let m = rng.gen_range(1usize..4);
        let k = rng.gen_range(1usize..4);
        let n = rng.gen_range(1usize..4);
        let seed = rng.gen_range(0u64..1000);
        let a = rand_param(seed, "a", m, k);
        let b = rand_param(seed.wrapping_add(1), "b", k, n);
        let params = vec![a, b];
        let build: for<'t> fn(&'t Tape, &[Param]) -> Var<'t> = |tape, ps| {
            let a = tape.param(&ps[0]);
            let b = tape.param(&ps[1]);
            to_scalar(tape, a.matmul(b))
        };
        let f = || {
            let t = Tape::new();
            build(&t, &params).item()
        };
        let analytic = || {
            let t = Tape::new();
            let l = build(&t, &params);
            t.backward(l);
        };
        check_grads(&params, &f, &analytic, 3e-2);
    }
}

// Softmax rows always sum to 1 on tape values too.
#[test]
fn prop_tape_softmax_rows_sum_to_one() {
    let mut rng = StdRng::seed_from_u64(0x50F7);
    for _ in 0..16 {
        let rows = rng.gen_range(1usize..5);
        let cols = rng.gen_range(1usize..6);
        let p = rand_param(rng.gen_range(0u64..1000), "x", rows, cols);
        let tape = Tape::new();
        let s = tape.param(&p).row_softmax().value();
        for r in 0..rows {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
    }
}

// Cross-entropy via the fused op equals -sum(w * log_softmax[target]).
#[test]
fn prop_cross_entropy_consistent() {
    let mut rng = StdRng::seed_from_u64(0xCE11);
    for _ in 0..16 {
        let rows = rng.gen_range(1usize..4);
        let cols = rng.gen_range(2usize..6);
        let seed = rng.gen_range(0u64..1000);
        let p = rand_param(seed, "logits", rows, cols);
        let targets: Vec<usize> = (0..rows).map(|r| (seed as usize + r) % cols).collect();
        let weights = vec![1.0; rows];
        let tape = Tape::new();
        let logits = tape.param(&p);
        let fused = logits.cross_entropy_sum(&targets, &weights).item();
        let logp = p.value().row_log_softmax();
        let manual: f32 = targets.iter().enumerate().map(|(r, &t)| -logp.get(r, t)).sum();
        assert!((fused - manual).abs() < 1e-4);
    }
}

// An upstream gradient scaled into the subnormal range sends the `MatMul`
// and `MatMulTransB` backward products to the exact f64 body; every
// parameter and input gradient must still be, bit for bit, the same
// products on the f32 body, accumulated in the tape's order.
#[test]
fn tiny_upstream_gradients_match_the_f32_body_bitwise() {
    let (m, k, n) = (25, 48, 40);
    let w = rand_param(41, "w", k, n);
    let wt = rand_param(42, "wt", n, k);
    let mut rng = StdRng::seed_from_u64(43);
    let x_value = init::uniform(&mut rng, m, k, 1.0);
    // Subnormal, with normals just above 2⁻¹²⁶ and exact zeros: partial
    // sums stay where every product's rounding shows.
    let s: Vec<f32> = (0..m * n)
        .map(|i| match i % 7 {
            0 => 0.0,
            1 => (rng.gen::<f32>() * 2.0 - 1.0) * 2f32.powi(-124),
            _ => (rng.gen::<f32>() * 2.0 - 1.0) * 2f32.powi(-128),
        })
        .collect();
    let s = Tensor::from_vec(m, n, s);
    assert!(s.data().iter().filter(|v| v.is_subnormal()).count() > m * n / 2);

    let tape = Tape::new();
    let x = tape.constant(x_value.clone());
    let y = x.matmul(tape.param(&w)).add(x.matmul_transpose_b(tape.param(&wt)));
    // loss = 1ᵀ (y ⊙ s) 1, so the upstream gradient of both products is s.
    let scaled = y.mul(tape.constant(s.clone()));
    let ones_m = tape.constant(Tensor::full(1, m, 1.0));
    let ones_n = tape.constant(Tensor::full(n, 1, 1.0));
    let grads = tape.backward(ones_m.matmul(scaled.matmul(ones_n)));

    let dw = product_portable(&x_value, &s, Layout::TransposeA);
    let dwt = product_portable(&s, &x_value, Layout::TransposeA);
    // The later node (`MatMulTransB`) runs backward first.
    let mut dx = product_portable(&s, &wt.value(), Layout::Plain);
    dx.add_assign(&product_portable(&s, &w.value(), Layout::TransposeB));
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&w.grad()), bits(&dw), "dW");
    assert_eq!(bits(&wt.grad()), bits(&dwt), "dWt");
    assert_eq!(bits(grads.get(x).expect("input gradient")), bits(&dx), "dx");
}

// Stacked passes: a node stacking several sequences' rows as segments.
// Each segmented rule gets a finite-difference check through a loss that
// reaches every segment.

gradcheck!(gather_rows_segmented_grad, vec![rand_param(50, "emb", 5, 3)], |tape: &Tape,
                                                                          ps: &[Param]| {
    let x = tape.gather_rows_segmented(&ps[0], &[&[4, 1], &[1, 0, 4]]);
    to_scalar(tape, x)
});

gradcheck!(
    segmented_linear_and_layer_norm_grad,
    vec![
        rand_param(51, "emb", 6, 4),
        rand_param(52, "w", 4, 3),
        rand_param(53, "b", 1, 3),
        rand_param(54, "gain", 1, 3),
        rand_param(55, "bias", 1, 3)
    ],
    |tape: &Tape, ps: &[Param]| {
        let x = tape.gather_rows_segmented(&ps[0], &[&[1, 4], &[0, 5, 2], &[3]]);
        let y = x.matmul(tape.param(&ps[1])).add_broadcast_row(tape.param(&ps[2]));
        to_scalar(tape, y.layer_norm(tape.param(&ps[3]), tape.param(&ps[4])))
    }
);

gradcheck!(
    segmented_matmul_transpose_b_grad,
    vec![rand_param(56, "emb", 5, 3), rand_param(57, "w", 4, 3)],
    |tape: &Tape, ps: &[Param]| {
        let x = tape.gather_rows_segmented(&ps[0], &[&[2, 0, 1], &[4, 3]]);
        to_scalar(tape, x.matmul_transpose_b(tape.param(&ps[1])))
    }
);

// Per-segment attention, as the stacked transformer runs it: shared
// projections over the stack, attention inside each segment, the
// segments' outputs stacked back.
gradcheck!(
    segment_and_stack_segments_grad,
    vec![rand_param(58, "emb", 6, 4), rand_param(59, "wq", 4, 4)],
    |tape: &Tape, ps: &[Param]| {
        let x = tape.gather_rows_segmented(&ps[0], &[&[0, 3, 5], &[1, 2]]);
        let q = x.matmul(tape.param(&ps[1]));
        let parts: Vec<Var> = (0..2)
            .map(|s| {
                let (qs, xs) = (q.segment(s), x.segment(s));
                qs.matmul_transpose_b(xs).scale(0.5).row_softmax().matmul(xs)
            })
            .collect();
        to_scalar(tape, Var::stack_segments(&parts))
    }
);

gradcheck!(
    cross_entropy_segments_and_log_sum_exp_column_grad,
    vec![rand_param(60, "emb", 7, 5)],
    |tape: &Tape, ps: &[Param]| {
        let logits = tape.gather_rows_segmented(&ps[0], &[&[1, 4, 6], &[0, 2]]);
        let nll = logits.cross_entropy_segments(&[2, 0, 4, 1, 3], &[1.0, 0.5, 1.0, 1.0, 0.7]);
        Var::log_sum_exp_scalars(&[nll.scale(-1.0)])
    }
);

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn score<'t>(tape: &'t Tape, x: Var<'t>, [w, b, gain, bias]: [&Param; 4]) -> Var<'t> {
    x.matmul(tape.param(w)).add_broadcast_row(tape.param(b)).layer_norm(tape.param(gain), tape.param(bias))
}

// A stacked pass flushes, into every parameter its segments share, the
// same sequence of gradients that one pass per segment recorded in order
// would (the last segment's first), on top of gradients already there.
// One segment's upstream gradient is subnormal (the exact GEMM body) and
// one is zero (skipped products), beside ordinary ones.
#[test]
fn stacked_pass_flushes_like_one_pass_per_segment_bitwise() {
    let emb = rand_param(61, "emb", 9, 6);
    let w = rand_param(62, "w", 6, 7);
    let b = rand_param(63, "b", 1, 7);
    let (gain, bias) = (rand_param(64, "gain", 1, 7), rand_param(65, "bias", 1, 7));
    let params = [&emb, &w, &b, &gain, &bias];
    // Token 1 is in every segment, so the scatter order shows.
    let seqs: [&[usize]; 4] = [&[1, 8, 1], &[1, 3], &[5, 1, 7, 1], &[1]];
    let scales = [1.0, 2f32.powi(-140), 0.0, -0.75];
    let targets = [0usize, 6, 2, 3, 1, 4, 5, 2, 6, 0];
    let run = |stacked: bool| -> Vec<Vec<u32>> {
        for p in params {
            p.zero_grad();
            // An earlier example's gradients.
            let (r, c) = p.shape();
            let earlier: Vec<f32> = (0..r * c).map(|i| 0.01 * (i as f32 - 3.0)).collect();
            p.accumulate_grad(&Tensor::from_vec(r, c, earlier));
        }
        let tape = Tape::new();
        let shared = [&w, &b, &gain, &bias];
        let column = if stacked {
            let y = score(&tape, tape.gather_rows_segmented(&emb, &seqs), shared);
            y.cross_entropy_segments(&targets, &[1.0; 10])
        } else {
            let mut off = 0;
            let nlls: Vec<Var> = seqs
                .iter()
                .map(|ids| {
                    let y = score(&tape, tape.gather_rows(&emb, ids), shared);
                    let t = &targets[off..off + ids.len()];
                    off += ids.len();
                    y.cross_entropy_sum(t, &vec![1.0; ids.len()])
                })
                .collect();
            Var::stack_rows(&nlls)
        };
        let scaled = column.mul(tape.constant(Tensor::from_vec(4, 1, scales.to_vec())));
        let loss = tape.constant(Tensor::full(1, 4, 1.0)).matmul(scaled);
        tape.backward(loss);
        params.iter().map(|p| bits(&p.grad())).collect()
    };
    let (got, want) = (run(true), run(false));
    for ((p, got), want) in params.iter().zip(&got).zip(&want) {
        assert_eq!(got, want, "{}", p.name());
    }
}

// An all-zero upstream gradient skips both backward products, yet leaves
// the slots as adding the products' `+0.0` outputs would: a `-0.0`
// already in the input's slot becomes `+0.0`. Against an operand holding
// an infinity the products still run (`0 · inf` is NaN).
#[test]
fn zero_upstream_gradients_skip_products_with_the_same_bits() {
    for w_value in [vec![1.5, -2.0, 0.25, 4.0], vec![1.5, f32::INFINITY, 0.25, 4.0]] {
        let w = Param::new("w", Tensor::from_vec(2, 2, w_value.clone()));
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(1, 2, vec![3.0, -1.0]));
        let y = x.matmul(tape.param(&w));
        // Recorded later, so it reaches `x`'s slot first: `-0.0` there.
        let z = x.scale(-0.0);
        let zero = tape.constant(Tensor::zeros(2, 1));
        let loss = y.matmul(zero).add(z.matmul(tape.constant(Tensor::full(2, 1, 1.0))));
        let grads = tape.backward(loss);
        // dy is all zeros; dx = (-0.0 from z) + dy·wᵀ; dw = xᵀ·dy.
        let dy = Tensor::zeros(1, 2);
        let mut dx = Tensor::full(1, 2, -0.0);
        dx.add_assign(&product_portable(&dy, &w.value(), Layout::TransposeB));
        let dw = product_portable(&x.value(), &dy, Layout::TransposeA);
        assert_eq!(bits(grads.get(x).expect("input gradient")), bits(&dx), "dx for w {w_value:?}");
        assert_eq!(bits(&w.grad()), bits(&dw), "dw for w {w_value:?}");
    }
}

gradcheck!(
    attention_grad,
    vec![rand_param(66, "q", 3, 4), rand_param(67, "k", 5, 4), rand_param(68, "v", 5, 4)],
    |tape: &Tape, ps: &[Param]| {
        let [q, k, v] = [0, 1, 2].map(|i| tape.param(&ps[i]));
        let mut mask = Tensor::zeros(3, 5);
        mask.set(0, 4, -1e9);
        to_scalar(tape, q.attention(k, v, 2, Some(&mask)))
    }
);

/// The attention op as the per-head composition of tape ops it replaced.
fn per_head_attention<'t>(q: Var<'t>, k: Var<'t>, v: Var<'t>, heads: usize, mask: Option<&Tensor>) -> Var<'t> {
    let d_head = q.shape().1 / heads;
    let scale = 1.0 / (d_head as f32).sqrt();
    let ctxs: Vec<Var> = (0..heads)
        .map(|h| {
            let off = h * d_head;
            let (qh, kh, vh) = (q.slice_cols(off, d_head), k.slice_cols(off, d_head), v.slice_cols(off, d_head));
            let mut scores = qh.matmul_transpose_b(kh).scale(scale);
            if let Some(m) = mask {
                scores = scores.add_const(m);
            }
            scores.row_softmax().matmul(vh)
        })
        .collect();
    Var::concat_cols(&ctxs)
}

// The attention op's value and the gradients it sends its queries, keys
// and values are bitwise the per-head composition's: one and four heads,
// with and without a causal mask, under an ordinary, a subnormal and an
// all-zero upstream gradient, on top of gradients already in the
// parameters.
#[test]
fn attention_op_matches_the_per_head_composition_bitwise() {
    let (rows, kv_rows, d) = (6, 6, 16);
    let mut causal = Tensor::zeros(rows, kv_rows);
    for i in 0..rows {
        for j in i + 1..kv_rows {
            causal.set(i, j, -1e9);
        }
    }
    for heads in [1, 4] {
        for mask in [None, Some(&causal)] {
            for upstream in [0.37, 2f32.powi(-135), 0.0] {
                let params = [rand_param(69, "q", rows, d), rand_param(70, "k", kv_rows, d), rand_param(71, "v", kv_rows, d)];
                let run = |fused: bool| {
                    for p in &params {
                        p.zero_grad();
                        let (r, c) = p.shape();
                        p.accumulate_grad(&Tensor::from_vec(r, c, (0..r * c).map(|i| 1e-3 * i as f32).collect()));
                    }
                    let tape = Tape::new();
                    let [q, k, v] = [0, 1, 2].map(|i| tape.param(&params[i]));
                    let out = if fused { q.attention(k, v, heads, mask) } else { per_head_attention(q, k, v, heads, mask) };
                    let value = bits(&out.value());
                    // loss = Σ out ⊙ w, so the upstream gradient is w.
                    let w: Vec<f32> = (0..rows * d).map(|i| upstream * ((i % 7) as f32 - 2.0)).collect();
                    let weighted = out.mul(tape.constant(Tensor::from_vec(rows, d, w)));
                    let ones = |n| tape.constant(Tensor::full(n, 1, 1.0));
                    let loss = ones(rows).transpose().matmul(weighted.matmul(ones(d)));
                    tape.backward(loss);
                    (value, params.iter().map(|p| bits(&p.grad())).collect::<Vec<_>>())
                };
                let (want, got) = (run(false), run(true));
                assert_eq!(got.0, want.0, "value: {heads} heads, mask {}, upstream {upstream:e}", mask.is_some());
                for (i, name) in ["q", "k", "v"].iter().enumerate() {
                    assert_eq!(got.1[i], want.1[i], "d{name}: {heads} heads, mask {}, upstream {upstream:e}", mask.is_some());
                }
            }
        }
    }
}
