//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Tape`] records every tensor operation of one forward pass as a node in
//! a flat, topologically-ordered arena. [`Tape::backward`] walks the arena in
//! reverse, propagating gradients to inputs and flushing gradients of
//! [`Param`] leaves into the parameters themselves (where an optimizer picks
//! them up).
//!
//! Values are computed eagerly at op-construction time, so shape errors
//! surface at the faulty call site. The op set is deliberately closed (an
//! enum, not trait objects): each backward rule lives in one `match` arm and
//! every rule is covered by a finite-difference test in `tests/gradcheck.rs`.

use std::cell::RefCell;
use std::ops::Deref;
use std::sync::Arc;

use crate::gemm::{self, Layout};
use crate::param::Param;
use crate::tensor::Tensor;

/// A handle to a node on a [`Tape`]. Cheap to copy; tied to the tape's
/// lifetime so handles cannot outlive the recorded pass.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    idx: usize,
}

enum Op {
    /// A constant input; no gradient flows.
    Const,
    /// A full trainable parameter; gradient flushes into the `Param`.
    Param(Param),
    /// Rows of an embedding parameter gathered by token id; gradient
    /// scatters into the corresponding parameter rows.
    GatherRows { param: Param, ids: Vec<usize> },
    Add(usize, usize),
    /// `[r,c] + broadcast [1,c]`.
    AddBroadcastRow(usize, usize),
    Sub(usize, usize),
    /// Elementwise product.
    Mul(usize, usize),
    /// `alpha * x + beta` elementwise (beta is constant, so only alpha
    /// participates in the gradient).
    Affine { x: usize, alpha: f32 },
    /// `x + c` for a constant tensor `c` (mask, positional encoding).
    AddConst(usize),
    MatMul(usize, usize),
    /// `a @ b^T` (attention scores layout).
    MatMulTransB(usize, usize),
    Transpose(usize),
    RowSoftmax(usize),
    RowLogSoftmax(usize),
    /// Weighted sum of per-row token negative log-likelihoods with
    /// optional label smoothing:
    /// `sum_r w_r * (-(1-ε)·log p_r[t_r] - ε/V · Σ_c log p_r[c])` -> `1x1`.
    CrossEntropySum { logits: usize, targets: Vec<usize>, weights: Vec<f32>, smoothing: f32 },
    Relu(usize),
    Sigmoid(usize),
    Tanh(usize),
    /// Row-wise layer normalization with learned gain/bias rows.
    LayerNorm { x: usize, gain: usize, bias: usize, normed: Tensor, inv_std: Vec<f32> },
    /// Elementwise multiply by a fixed 0/scale mask (inverted dropout).
    DropoutMask { x: usize, mask: Tensor },
    ConcatCols(Vec<usize>),
    SliceCols { x: usize, start: usize, len: usize },
    SliceRows { x: usize, start: usize, len: usize },
    StackRows(Vec<usize>),
    MeanRows(usize),
    /// Sum of same-shaped nodes.
    AddN(Vec<usize>),
    /// `log sum_i exp(s_i)` over `1x1` scalars -> `1x1`.
    LogSumExpScalars(Vec<usize>),
}

/// A node's forward value: computed and owned, or a parameter's weight
/// shared with its [`Param`], so recording a parameter copies nothing.
enum Value {
    Owned(Tensor),
    Shared(Arc<Tensor>),
}

impl Deref for Value {
    type Target = Tensor;

    fn deref(&self) -> &Tensor {
        match self {
            Value::Owned(t) => t,
            Value::Shared(t) => t,
        }
    }
}

struct Node {
    value: Value,
    op: Op,
}

/// The recorded forward pass.
///
/// ```
/// use qrw_tensor::{Param, Tape, Tensor};
/// // loss = w·x with w = [3, 5], x = [2, 7]  ⇒  ∂loss/∂w = x.
/// let w = Param::new("w", Tensor::from_vec(2, 1, vec![3.0, 5.0]));
/// let tape = Tape::new();
/// let x = tape.constant(Tensor::from_vec(1, 2, vec![2.0, 7.0]));
/// let loss = x.matmul(tape.param(&w));
/// assert_eq!(loss.item(), 41.0);
/// tape.backward(loss);
/// assert_eq!(w.grad().data(), &[2.0, 7.0]);
/// ```
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

/// Per-node gradients produced by [`Tape::backward`], for inspection in
/// tests and diagnostics. Parameter gradients are *also* flushed into their
/// [`Param`]s.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. the value at `var`, if any flowed there.
    pub fn get(&self, var: Var<'_>) -> Option<&Tensor> {
        self.grads.get(var.idx).and_then(Option::as_ref)
    }
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    fn push(&self, value: Tensor, op: Op) -> Var<'_> {
        self.push_value(Value::Owned(value), op)
    }

    fn push_value(&self, value: Value, op: Op) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var { tape: self, idx: nodes.len() - 1 }
    }

    fn value_of(&self, idx: usize) -> Tensor {
        Tensor::clone(&self.nodes.borrow()[idx].value)
    }

    /// Records a constant (no gradient).
    pub fn constant(&self, value: Tensor) -> Var<'_> {
        self.push(value, Op::Const)
    }

    /// Records a trainable parameter leaf, sharing its current value
    /// with the parameter instead of copying it: an optimizer update
    /// while this tape still holds the value copies on write, so the
    /// recorded forward value never changes.
    pub fn param(&self, param: &Param) -> Var<'_> {
        self.push_value(Value::Shared(param.shared_value()), Op::Param(param.clone()))
    }

    /// Embedding lookup: gathers `ids.len()` rows of `param` without
    /// materializing the full table on the tape.
    pub fn gather_rows(&self, param: &Param, ids: &[usize]) -> Var<'_> {
        let (vocab, dim) = param.shape();
        let mut out = Tensor::zeros(ids.len(), dim);
        param.with_value(|table| {
            for (r, &id) in ids.iter().enumerate() {
                assert!(id < vocab, "token id {id} out of vocabulary {vocab}");
                out.row_slice_mut(r).copy_from_slice(table.row_slice(id));
            }
        });
        self.push(out, Op::GatherRows { param: param.clone(), ids: ids.to_vec() })
    }

    /// Runs the backward pass from a `1x1` loss node.
    ///
    /// Flushes parameter gradients into their [`Param`]s (accumulating with
    /// whatever is already there) and returns all per-node gradients.
    pub fn backward(&self, loss: Var<'_>) -> Gradients {
        assert!(std::ptr::eq(loss.tape, self), "loss var belongs to a different tape");
        let nodes = self.nodes.borrow();
        assert_eq!(nodes[loss.idx].value.shape(), (1, 1), "backward requires a scalar loss");

        let mut grads: Vec<Option<Tensor>> = (0..nodes.len()).map(|_| None).collect();
        grads[loss.idx] = Some(Tensor::scalar(1.0));

        for i in (0..nodes.len()).rev() {
            let Some(g) = grads[i].take() else { continue };
            let node = &nodes[i];
            match &node.op {
                Op::Const => {}
                Op::Param(p) => p.accumulate_grad(&g),
                Op::GatherRows { param, ids } => {
                    for (r, &id) in ids.iter().enumerate() {
                        param.accumulate_grad_row(id, g.row_slice(r));
                    }
                }
                Op::Add(a, b) => {
                    accumulate_ref(&mut grads, *a, &g);
                    accumulate_ref(&mut grads, *b, &g);
                }
                Op::AddBroadcastRow(a, b) => {
                    accumulate_ref(&mut grads, *a, &g);
                    let mut col_sum = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for (s, &v) in col_sum.data_mut().iter_mut().zip(g.row_slice(r)) {
                            *s += v;
                        }
                    }
                    accumulate(&mut grads, *b, col_sum);
                }
                Op::Sub(a, b) => {
                    accumulate_ref(&mut grads, *a, &g);
                    accumulate(&mut grads, *b, g.scale(-1.0));
                }
                Op::Mul(a, b) => {
                    let va = &nodes[*a].value;
                    let vb = &nodes[*b].value;
                    accumulate(&mut grads, *a, g.mul(vb));
                    accumulate(&mut grads, *b, g.mul(va));
                }
                Op::Affine { x, alpha } => {
                    accumulate(&mut grads, *x, g.scale(*alpha));
                }
                Op::AddConst(x) => accumulate_ref(&mut grads, *x, &g),
                Op::MatMul(a, b) => {
                    let va = &nodes[*a].value;
                    let vb = &nodes[*b].value;
                    let exact = gemm::has_tiny(g.data());
                    accumulate(&mut grads, *a, grad_product(&g, vb, Layout::TransposeB, exact));
                    accumulate(&mut grads, *b, grad_product(va, &g, Layout::TransposeA, exact));
                }
                Op::MatMulTransB(a, b) => {
                    // out = A B^T ; dA = G B ; dB = G^T A.
                    let va = &nodes[*a].value;
                    let vb = &nodes[*b].value;
                    let exact = gemm::has_tiny(g.data());
                    accumulate(&mut grads, *a, grad_product(&g, vb, Layout::Plain, exact));
                    accumulate(&mut grads, *b, grad_product(&g, va, Layout::TransposeA, exact));
                }
                Op::Transpose(x) => accumulate(&mut grads, *x, g.transpose()),
                Op::RowSoftmax(x) => {
                    // dx_r = s_r ⊙ (g_r - <g_r, s_r>)
                    let s = &node.value;
                    let mut dx = Tensor::zeros(g.rows(), g.cols());
                    for r in 0..g.rows() {
                        let gr = g.row_slice(r);
                        let sr = s.row_slice(r);
                        let inner = crate::tensor::dot(gr, sr);
                        for (d, (&gv, &sv)) in
                            dx.row_slice_mut(r).iter_mut().zip(gr.iter().zip(sr))
                        {
                            *d = sv * (gv - inner);
                        }
                    }
                    accumulate(&mut grads, *x, dx);
                }
                Op::RowLogSoftmax(x) => {
                    // dx_r = g_r - exp(out_r) * sum(g_r)
                    let out = &node.value;
                    let mut dx = Tensor::zeros(g.rows(), g.cols());
                    for r in 0..g.rows() {
                        let gr = g.row_slice(r);
                        let or = out.row_slice(r);
                        let gsum: f32 = gr.iter().sum();
                        for (d, (&gv, &ov)) in
                            dx.row_slice_mut(r).iter_mut().zip(gr.iter().zip(or))
                        {
                            *d = gv - ov.exp() * gsum;
                        }
                    }
                    accumulate(&mut grads, *x, dx);
                }
                Op::CrossEntropySum { logits, targets, weights, smoothing } => {
                    // d/dlogits = w * (softmax - target_distribution), where
                    // the target distribution is (1-ε)·onehot + ε/V.
                    let gout = g.item();
                    let vlogits = &nodes[*logits].value;
                    let vocab = vlogits.cols() as f32;
                    let probs = vlogits.row_softmax();
                    let mut dl = probs;
                    for (r, (&t, &w)) in targets.iter().zip(weights).enumerate() {
                        let row = dl.row_slice_mut(r);
                        row[t] -= 1.0 - smoothing;
                        for v in row.iter_mut() {
                            *v -= smoothing / vocab;
                            *v *= w * gout;
                        }
                    }
                    accumulate(&mut grads, *logits, dl);
                }
                Op::Relu(x) => {
                    let vx = &nodes[*x].value;
                    let mut dx = g.clone();
                    for (d, &v) in dx.data_mut().iter_mut().zip(vx.data()) {
                        if v <= 0.0 {
                            *d = 0.0;
                        }
                    }
                    accumulate(&mut grads, *x, dx);
                }
                Op::Sigmoid(x) => {
                    let s = &node.value;
                    let mut dx = g.clone();
                    for (d, &sv) in dx.data_mut().iter_mut().zip(s.data()) {
                        *d *= sv * (1.0 - sv);
                    }
                    accumulate(&mut grads, *x, dx);
                }
                Op::Tanh(x) => {
                    let t = &node.value;
                    let mut dx = g.clone();
                    for (d, &tv) in dx.data_mut().iter_mut().zip(t.data()) {
                        *d *= 1.0 - tv * tv;
                    }
                    accumulate(&mut grads, *x, dx);
                }
                Op::LayerNorm { x, gain, bias, normed, inv_std } => {
                    let vgain = &nodes[*gain].value;
                    let n = g.cols() as f32;
                    let mut dx = Tensor::zeros(g.rows(), g.cols());
                    let mut dgain = Tensor::zeros(1, g.cols());
                    let mut dbias = Tensor::zeros(1, g.cols());
                    for (r, &istd) in inv_std.iter().enumerate() {
                        let gr = g.row_slice(r);
                        let xr = normed.row_slice(r);
                        // dbias += g ; dgain += g ⊙ x̂
                        for ((db, dg), (&gv, &xh)) in dbias
                            .data_mut()
                            .iter_mut()
                            .zip(dgain.data_mut())
                            .zip(gr.iter().zip(xr))
                        {
                            *db += gv;
                            *dg += gv * xh;
                        }
                        // dxhat = g ⊙ gain
                        // dx = inv_std/n * (n*dxhat - sum(dxhat) - x̂ * sum(dxhat ⊙ x̂))
                        let mut sum_dxh = 0.0;
                        let mut sum_dxh_xh = 0.0;
                        for ((&gv, &gain_v), &xh) in
                            gr.iter().zip(vgain.data()).zip(xr)
                        {
                            let dxh = gv * gain_v;
                            sum_dxh += dxh;
                            sum_dxh_xh += dxh * xh;
                        }
                        for (d, ((&gv, &gain_v), &xh)) in dx
                            .row_slice_mut(r)
                            .iter_mut()
                            .zip(gr.iter().zip(vgain.data()).zip(xr))
                        {
                            let dxh = gv * gain_v;
                            *d = istd / n * (n * dxh - sum_dxh - xh * sum_dxh_xh);
                        }
                    }
                    accumulate(&mut grads, *x, dx);
                    accumulate(&mut grads, *gain, dgain);
                    accumulate(&mut grads, *bias, dbias);
                }
                Op::DropoutMask { x, mask } => {
                    accumulate(&mut grads, *x, g.mul(mask));
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let w = nodes[p].value.cols();
                        accumulate(&mut grads, p, g.slice_cols(off, w));
                        off += w;
                    }
                }
                Op::SliceCols { x, start, len } => {
                    let vx = &nodes[*x].value;
                    let mut dx = Tensor::zeros(vx.rows(), vx.cols());
                    for r in 0..g.rows() {
                        dx.row_slice_mut(r)[*start..start + len].copy_from_slice(g.row_slice(r));
                    }
                    accumulate(&mut grads, *x, dx);
                }
                Op::SliceRows { x, start, len } => {
                    let vx = &nodes[*x].value;
                    let mut dx = Tensor::zeros(vx.rows(), vx.cols());
                    for r in 0..*len {
                        dx.row_slice_mut(start + r).copy_from_slice(g.row_slice(r));
                    }
                    accumulate(&mut grads, *x, dx);
                }
                Op::StackRows(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let h = nodes[p].value.rows();
                        accumulate(&mut grads, p, g.slice_rows(off, h));
                        off += h;
                    }
                }
                Op::MeanRows(x) => {
                    let vx = &nodes[*x].value;
                    let inv = 1.0 / vx.rows() as f32;
                    let mut dx = Tensor::zeros(vx.rows(), vx.cols());
                    for r in 0..vx.rows() {
                        for (d, &gv) in dx.row_slice_mut(r).iter_mut().zip(g.row_slice(0)) {
                            *d = gv * inv;
                        }
                    }
                    accumulate(&mut grads, *x, dx);
                }
                Op::AddN(parts) => {
                    for &p in parts {
                        accumulate_ref(&mut grads, p, &g);
                    }
                }
                Op::LogSumExpScalars(parts) => {
                    let lse = node.value.item();
                    let gout = g.item();
                    for &p in parts {
                        let v = nodes[p].value.item();
                        let w = if lse.is_finite() { (v - lse).exp() } else { 0.0 };
                        accumulate(&mut grads, p, Tensor::scalar(gout * w));
                    }
                }
            }
            grads[i] = Some(g);
        }
        Gradients { grads }
    }
}

/// A backward product with the upstream gradient as one operand: on the
/// exact body when the gradient holds tiny values (the products would
/// otherwise run on f32 subnormals), else on the f32 body. Both give the
/// same bits.
fn grad_product(a: &Tensor, b: &Tensor, layout: Layout, exact: bool) -> Tensor {
    if exact {
        gemm::product_exact(a, b, layout)
    } else {
        gemm::product(a, b, layout)
    }
}

/// Adds a freshly computed gradient into slot `idx`, moving it in when
/// the slot is still empty.
fn accumulate(grads: &mut [Option<Tensor>], idx: usize, delta: Tensor) {
    match &mut grads[idx] {
        Some(g) => g.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

/// [`accumulate`] for a borrowed gradient (a node passing its own `g`
/// through, which stays in its slot): copied only into an empty slot.
fn accumulate_ref(grads: &mut [Option<Tensor>], idx: usize, delta: &Tensor) {
    match &mut grads[idx] {
        Some(g) => g.add_assign(delta),
        slot @ None => *slot = Some(delta.clone()),
    }
}

impl<'t> Var<'t> {
    /// The forward value at this node (copied).
    pub fn value(&self) -> Tensor {
        self.tape.value_of(self.idx)
    }

    /// `(rows, cols)` of the forward value.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.nodes.borrow()[self.idx].value.shape()
    }

    /// Scalar value of a `1x1` node.
    pub fn item(&self) -> f32 {
        self.value().item()
    }

    /// Records `op` with the value `f` computes from this node's value,
    /// borrowed in place rather than copied.
    fn unary(&self, f: impl FnOnce(&Tensor) -> Tensor, op: Op) -> Var<'t> {
        let v = f(&self.tape.nodes.borrow()[self.idx].value);
        self.tape.push(v, op)
    }

    /// Records `op` with the value `f` computes from both operands'
    /// values, borrowed in place under one borrow of the tape.
    fn binary(
        &self,
        other: Var<'t>,
        f: impl FnOnce(&Tensor, &Tensor) -> Tensor,
        op: Op,
    ) -> Var<'t> {
        debug_assert!(std::ptr::eq(self.tape, other.tape), "vars from different tapes");
        let v = {
            let nodes = self.tape.nodes.borrow();
            f(&nodes[self.idx].value, &nodes[other.idx].value)
        };
        self.tape.push(v, op)
    }

    pub fn add(&self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Tensor::add, Op::Add(self.idx, other.idx))
    }

    /// Adds a `1 x cols` row vector (e.g. a bias) to every row.
    pub fn add_broadcast_row(&self, row: Var<'t>) -> Var<'t> {
        self.binary(row, Tensor::add_row_broadcast, Op::AddBroadcastRow(self.idx, row.idx))
    }

    pub fn sub(&self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Tensor::sub, Op::Sub(self.idx, other.idx))
    }

    pub fn mul(&self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Tensor::mul, Op::Mul(self.idx, other.idx))
    }

    /// `alpha * x + beta` elementwise.
    pub fn affine(&self, alpha: f32, beta: f32) -> Var<'t> {
        let f = |x: &Tensor| {
            let mut v = x.clone();
            v.affine_in_place(alpha, beta);
            v
        };
        self.unary(f, Op::Affine { x: self.idx, alpha })
    }

    pub fn scale(&self, alpha: f32) -> Var<'t> {
        self.affine(alpha, 0.0)
    }

    /// `1 - x`, convenient for gate complements.
    pub fn one_minus(&self) -> Var<'t> {
        self.affine(-1.0, 1.0)
    }

    /// Adds a constant tensor (mask / positional encoding); no gradient to it.
    pub fn add_const(&self, c: &Tensor) -> Var<'t> {
        self.unary(|x| x.add(c), Op::AddConst(self.idx))
    }

    pub fn matmul(&self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Tensor::matmul, Op::MatMul(self.idx, other.idx))
    }

    /// `self @ other^T`.
    pub fn matmul_transpose_b(&self, other: Var<'t>) -> Var<'t> {
        self.binary(other, Tensor::matmul_transpose_b, Op::MatMulTransB(self.idx, other.idx))
    }

    pub fn transpose(&self) -> Var<'t> {
        let v = self.value().transpose();
        self.tape.push(v, Op::Transpose(self.idx))
    }

    pub fn row_softmax(&self) -> Var<'t> {
        self.unary(Tensor::row_softmax, Op::RowSoftmax(self.idx))
    }

    pub fn row_log_softmax(&self) -> Var<'t> {
        self.unary(Tensor::row_log_softmax, Op::RowLogSoftmax(self.idx))
    }

    /// Weighted token-level negative log-likelihood, summed:
    /// `sum_r weights[r] * (-log softmax(self_r)[targets[r]])` -> `1x1`.
    ///
    /// `weights[r] = 0.0` masks padding positions out of the loss.
    pub fn cross_entropy_sum(&self, targets: &[usize], weights: &[f32]) -> Var<'t> {
        self.cross_entropy_sum_smoothed(targets, weights, 0.0)
    }

    /// Cross entropy against the label-smoothed target distribution
    /// `(1-ε)·onehot(target) + ε/V` (the original transformer recipe;
    /// `smoothing = 0` reduces to plain cross entropy).
    pub fn cross_entropy_sum_smoothed(
        &self,
        targets: &[usize],
        weights: &[f32],
        smoothing: f32,
    ) -> Var<'t> {
        assert!((0.0..1.0).contains(&smoothing), "smoothing must be in [0, 1)");
        let logits = self.value();
        assert_eq!(logits.rows(), targets.len(), "one target per logits row");
        assert_eq!(targets.len(), weights.len(), "one weight per target");
        let vocab = logits.cols() as f32;
        let logp = logits.row_log_softmax();
        let mut total = 0.0;
        for (r, (&t, &w)) in targets.iter().zip(weights).enumerate() {
            assert!(t < logits.cols(), "target {t} out of vocab {}", logits.cols());
            let mut nll = -(1.0 - smoothing) * logp.get(r, t);
            if smoothing > 0.0 {
                let mean_logp: f32 =
                    logp.row_slice(r).iter().sum::<f32>() / vocab;
                nll -= smoothing * mean_logp;
            }
            total += w * nll;
        }
        self.tape.push(
            Tensor::scalar(total),
            Op::CrossEntropySum {
                logits: self.idx,
                targets: targets.to_vec(),
                weights: weights.to_vec(),
                smoothing,
            },
        )
    }

    pub fn relu(&self) -> Var<'t> {
        let mut v = self.value();
        for x in v.data_mut() {
            *x = x.max(0.0);
        }
        self.tape.push(v, Op::Relu(self.idx))
    }

    pub fn sigmoid(&self) -> Var<'t> {
        let mut v = self.value();
        for x in v.data_mut() {
            *x = 1.0 / (1.0 + (-*x).exp());
        }
        self.tape.push(v, Op::Sigmoid(self.idx))
    }

    pub fn tanh(&self) -> Var<'t> {
        let mut v = self.value();
        for x in v.data_mut() {
            *x = x.tanh();
        }
        self.tape.push(v, Op::Tanh(self.idx))
    }

    /// Row-wise layer normalization with learned `1 x cols` gain and bias.
    pub fn layer_norm(&self, gain: Var<'t>, bias: Var<'t>) -> Var<'t> {
        let mut out = self.value();
        let mut normed = Tensor::default();
        let mut inv_std = Vec::with_capacity(out.rows());
        {
            let nodes = self.tape.nodes.borrow();
            let (vgain, vbias) = (&nodes[gain.idx].value, &nodes[bias.idx].value);
            out.layer_norm_in_place(vgain, vbias, Some((&mut normed, &mut inv_std)));
        }
        self.tape.push(
            out,
            Op::LayerNorm { x: self.idx, gain: gain.idx, bias: bias.idx, normed, inv_std },
        )
    }

    /// Inverted dropout with a caller-supplied 0-or-`1/keep` mask.
    ///
    /// The caller owns randomness so training stays deterministic per seed.
    pub fn dropout_mask(&self, mask: Tensor) -> Var<'t> {
        assert_eq!(self.shape(), mask.shape(), "dropout mask shape");
        let v = self.value().mul(&mask);
        self.tape.push(v, Op::DropoutMask { x: self.idx, mask })
    }

    /// Concatenates nodes left-to-right (multi-head merge).
    pub fn concat_cols(parts: &[Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty());
        let tape = parts[0].tape;
        let values: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let v = Tensor::concat_cols(&refs);
        tape.push(v, Op::ConcatCols(parts.iter().map(|p| p.idx).collect()))
    }

    pub fn slice_cols(&self, start: usize, len: usize) -> Var<'t> {
        self.unary(|x| x.slice_cols(start, len), Op::SliceCols { x: self.idx, start, len })
    }

    pub fn slice_rows(&self, start: usize, len: usize) -> Var<'t> {
        self.unary(|x| x.slice_rows(start, len), Op::SliceRows { x: self.idx, start, len })
    }

    /// Stacks nodes top-to-bottom (RNN step outputs into a sequence).
    pub fn stack_rows(parts: &[Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty());
        let tape = parts[0].tape;
        let values: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let v = Tensor::stack_rows(&refs);
        tape.push(v, Op::StackRows(parts.iter().map(|p| p.idx).collect()))
    }

    pub fn mean_rows(&self) -> Var<'t> {
        self.unary(Tensor::mean_rows, Op::MeanRows(self.idx))
    }

    /// Sum of same-shaped nodes.
    pub fn add_n(parts: &[Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty());
        let tape = parts[0].tape;
        let mut v = parts[0].value();
        for p in &parts[1..] {
            v.add_assign(&p.value());
        }
        tape.push(v, Op::AddN(parts.iter().map(|p| p.idx).collect()))
    }

    /// Numerically stable `log sum exp` over `1x1` scalar nodes.
    ///
    /// This is the reduction at the heart of the cycle-consistency
    /// likelihood: `L_c = log Σ_i exp(log P_f(ŷ_i|x) + log P_b(x|ŷ_i))`.
    pub fn log_sum_exp_scalars(parts: &[Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty());
        let tape = parts[0].tape;
        let vals: Vec<f32> = parts
            .iter()
            .map(|p| {
                assert_eq!(p.shape(), (1, 1), "log_sum_exp_scalars needs 1x1 nodes");
                p.item()
            })
            .collect();
        let lse = crate::tensor::log_sum_exp(&vals);
        tape.push(Tensor::scalar(lse), Op::LogSumExpScalars(parts.iter().map(|p| p.idx).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorded parameter shares the weight, and updating or replacing
    /// the weight while the tape holds it copies on write: the tape's
    /// forward value and the gradients it flushes keep the old weight.
    #[test]
    fn recorded_param_keeps_its_value_across_updates() {
        let w = Param::new("w", Tensor::from_vec(2, 1, vec![3.0, 5.0]));
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(1, 2, vec![2.0, 7.0]));
        let wv = tape.param(&w);
        let loss = x.matmul(wv);
        assert_eq!(loss.item(), 41.0);
        w.update(|v, _| v.iter_mut().for_each(|v| *v += 1.0));
        assert_eq!(wv.value().data(), &[3.0, 5.0]);
        assert_eq!(w.value().data(), &[4.0, 6.0]);
        w.set_value(Tensor::from_vec(2, 1, vec![-1.0, -1.0]));
        assert_eq!(wv.value().data(), &[3.0, 5.0]);
        // loss = w·x, so the gradient is x whatever w now holds.
        tape.backward(loss);
        assert_eq!(w.grad().data(), &[2.0, 7.0]);
        assert_eq!(w.value().data(), &[-1.0, -1.0]);
    }

    #[test]
    fn forward_values_are_eager() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let b = tape.constant(Tensor::from_vec(1, 2, vec![3.0, 4.0]));
        let c = a.add(b);
        assert_eq!(c.value().data(), &[4.0, 6.0]);
        assert_eq!(tape.len(), 3);
    }

    #[test]
    fn simple_param_gradient() {
        // loss = sum over CE of a single logit row is awkward here; use
        // loss = (w * x) summed via matmul with a 1x1 result.
        let w = Param::new("w", Tensor::from_vec(2, 1, vec![3.0, 5.0]));
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(1, 2, vec![2.0, 7.0]));
        let wv = tape.param(&w);
        let loss = x.matmul(wv); // 1x1 = 2*3 + 7*5 = 41
        assert_eq!(loss.item(), 41.0);
        tape.backward(loss);
        assert_eq!(w.grad().data(), &[2.0, 7.0]);
    }

    #[test]
    fn gradient_accumulates_across_tapes() {
        let w = Param::new("w", Tensor::scalar(1.0));
        for _ in 0..3 {
            let tape = Tape::new();
            let x = tape.constant(Tensor::scalar(2.0));
            let loss = x.mul(tape.param(&w));
            tape.backward(loss);
        }
        assert_eq!(w.grad().item(), 6.0);
    }

    #[test]
    fn diamond_graph_sums_both_paths() {
        // loss = x*x + x  => dx = 2x + 1
        let w = Param::new("x", Tensor::scalar(3.0));
        let tape = Tape::new();
        let x = tape.param(&w);
        let loss = x.mul(x).add(x);
        assert_eq!(loss.item(), 12.0);
        tape.backward(loss);
        assert_eq!(w.grad().item(), 7.0);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let tape = Tape::new();
        let logits = tape.constant(Tensor::from_vec(2, 3, vec![1., 2., 3., 0., 0., 0.]));
        let loss = logits.cross_entropy_sum(&[2, 0], &[1.0, 1.0]);
        let row0 = -(3.0f32 - crate::tensor::log_sum_exp(&[1., 2., 3.]));
        let row1 = -(0.0f32 - crate::tensor::log_sum_exp(&[0., 0., 0.]));
        assert!((loss.item() - (row0 + row1)).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_weight_masks_row() {
        let tape = Tape::new();
        let logits = tape.constant(Tensor::from_vec(2, 3, vec![1., 2., 3., 9., 9., 9.]));
        let masked = logits.cross_entropy_sum(&[2, 0], &[1.0, 0.0]);
        let row0 = -(3.0f32 - crate::tensor::log_sum_exp(&[1., 2., 3.]));
        assert!((masked.item() - row0).abs() < 1e-5);
    }

    #[test]
    fn log_sum_exp_scalars_value_and_grad() {
        let a = Param::new("a", Tensor::scalar(0.0));
        let b = Param::new("b", Tensor::scalar(0.0));
        let tape = Tape::new();
        let va = tape.param(&a);
        let vb = tape.param(&b);
        let lse = Var::log_sum_exp_scalars(&[va, vb]);
        assert!((lse.item() - (2.0f32).ln()).abs() < 1e-6);
        tape.backward(lse);
        // Softmax weights are 0.5 each.
        assert!((a.grad().item() - 0.5).abs() < 1e-6);
        assert!((b.grad().item() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn one_minus_and_affine() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(1, 2, vec![0.25, 0.75]));
        assert_eq!(x.one_minus().value().data(), &[0.75, 0.25]);
        assert_eq!(x.affine(2.0, 1.0).value().data(), &[1.5, 2.5]);
    }

    #[test]
    fn gather_rows_scatters_grads() {
        let emb = Param::new("emb", Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]));
        let tape = Tape::new();
        let x = tape.gather_rows(&emb, &[2, 0, 2]);
        assert_eq!(x.value().data(), &[5., 6., 1., 2., 5., 6.]);
        // loss = sum of all entries via matmul with ones.
        let ones = tape.constant(Tensor::from_vec(2, 1, vec![1.0, 1.0]));
        let rows = x.matmul(ones); // 3x1
        let colones = tape.constant(Tensor::from_vec(1, 3, vec![1.0; 3]));
        let loss = colones.matmul(rows);
        tape.backward(loss);
        let g = emb.grad();
        assert_eq!(g.row_slice(0), &[1.0, 1.0]);
        assert_eq!(g.row_slice(1), &[0.0, 0.0]);
        assert_eq!(g.row_slice(2), &[2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(2, 2));
        tape.backward(x);
    }

    #[test]
    fn gradients_inspectable_for_non_params() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::scalar(4.0));
        let y = x.mul(x);
        let grads = tape.backward(y);
        assert_eq!(grads.get(x).unwrap().item(), 8.0);
    }
}
