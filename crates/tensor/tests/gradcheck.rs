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
