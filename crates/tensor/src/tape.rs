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
//!
//! **Stacked passes.** Several independent sequences (the cyclic
//! trainer's k paths) can run as one pass whose nodes stack the
//! sequences' rows: [`Tape::gather_rows_segmented`] and
//! [`Var::stack_segments`] start a *stacked* node, whose row segments every
//! row-wise op passes on. A product or broadcast of a stacked node with an
//! unstacked one (a weight every segment shares) gives the unstacked one
//! one gradient partial per segment instead of a sum over all rows, and a
//! [`Param`] flushes those partials last segment first — exactly the
//! sequence of flushes the segments would make as separate passes recorded
//! in order. Each backward product picks its kernel body per segment.

use std::cell::RefCell;
use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::gemm::{self, GradKind, Layout, Mat};
use crate::param::Param;
use crate::tensor::{softmax_and_log_sum_exp, softmax_in_place, Tensor};

/// A handle to a node on a [`Tape`]. Cheap to copy; tied to the tape's
/// lifetime so handles cannot outlive the recorded pass.
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    idx: usize,
}

/// The row bounds of a stacked node's segments: segment `s` is rows
/// `bounds[s]..bounds[s + 1]`.
type Bounds = Arc<[usize]>;

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
    /// `sum_r w_r * (-(1-ε)·log p_r[t_r] - ε/V · Σ_c log p_r[c])`, one sum
    /// over all rows (`1x1`) or one per segment of `segments` (`k x 1`).
    /// `probs` holds the rows' softmax, computed once in the forward pass.
    CrossEntropySum {
        logits: usize,
        targets: Vec<usize>,
        weights: Vec<f32>,
        smoothing: f32,
        probs: Tensor,
        segments: Option<Bounds>,
    },
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
    /// `log sum_i exp(s_i)` over every entry of the parts -> `1x1`.
    LogSumExpScalars(Vec<usize>),
    /// Multi-head attention of queries `q` over keys `k` and values `v`;
    /// `probs` holds each head's softmax weights.
    Attention { q: usize, k: usize, v: usize, heads: usize, probs: Vec<Tensor> },
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
    /// The row segments of a stacked node; `None` for an unstacked one.
    segments: Option<Bounds>,
}

/// A gradient slot during [`Tape::backward`].
enum Grad {
    Whole(Tensor),
    /// One partial per segment of a stacked consumer, for an unstacked
    /// operand that every segment shares.
    Parts(Vec<Tensor>),
}

impl Grad {
    /// The gradient as one tensor: partials are summed last segment first,
    /// the order a [`Param`] flushes them in.
    fn into_whole(self) -> Tensor {
        match self {
            Grad::Whole(t) => t,
            Grad::Parts(parts) => {
                let mut parts = parts.into_iter().rev();
                let mut sum = parts.next().expect("a stacked node has segments");
                parts.for_each(|p| sum.add_assign(&p));
                sum
            }
        }
    }
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
    grads: Vec<Option<Grad>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. the value at `var`, if any flowed there
    /// as one tensor (not for a parameter that a stacked node shared).
    pub fn get(&self, var: Var<'_>) -> Option<&Tensor> {
        match self.grads.get(var.idx) {
            Some(Some(Grad::Whole(t))) => Some(t),
            _ => None,
        }
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

    /// Records `op`, stacked as its operands are (see [`derived_segments`]).
    fn push_value(&self, value: Value, op: Op) -> Var<'_> {
        let segments = derived_segments(&self.nodes.borrow(), &op);
        self.push_node(Node { value, op, segments })
    }

    fn push_node(&self, node: Node) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(node);
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
        self.push(gather(param, ids), Op::GatherRows { param: param.clone(), ids: ids.to_vec() })
    }

    /// [`Self::gather_rows`] over several id sequences at once, as a
    /// stacked node with one segment per sequence. Its gradient scatters
    /// segment by segment, the last first.
    pub fn gather_rows_segmented(&self, param: &Param, seqs: &[&[usize]]) -> Var<'_> {
        let ids = seqs.concat();
        let value = Value::Owned(gather(param, &ids));
        let segments = Some(bounds(seqs.iter().map(|s| s.len())));
        self.push_node(Node { value, op: Op::GatherRows { param: param.clone(), ids }, segments })
    }

    /// Runs the backward pass from a `1x1` loss node.
    ///
    /// Flushes parameter gradients into their [`Param`]s (accumulating with
    /// whatever is already there) and returns all per-node gradients.
    pub fn backward(&self, loss: Var<'_>) -> Gradients {
        assert!(std::ptr::eq(loss.tape, self), "loss var belongs to a different tape");
        let nodes = self.nodes.borrow();
        assert_eq!(nodes[loss.idx].value.shape(), (1, 1), "backward requires a scalar loss");

        let mut grads: Vec<Option<Grad>> = (0..nodes.len()).map(|_| None).collect();
        grads[loss.idx] = Some(Grad::Whole(Tensor::scalar(1.0)));

        for i in (0..nodes.len()).rev() {
            let Some(slot) = grads[i].take() else { continue };
            let node = &nodes[i];
            let g = match (&node.op, slot) {
                (Op::Param(p), Grad::Parts(parts)) => {
                    // The flushes the segments' own passes would make, the
                    // last segment's first.
                    parts.iter().rev().for_each(|part| p.accumulate_grad(part));
                    grads[i] = Some(Grad::Parts(parts));
                    continue;
                }
                (_, slot) => slot.into_whole(),
            };
            // Row segments of `g` (and of this node's value).
            let segs = node.segments.as_deref();
            match &node.op {
                Op::Const => {}
                Op::Param(p) => p.accumulate_grad(&g),
                Op::GatherRows { param, ids } => {
                    for rows in segment_ranges(segs, g.rows()).rev() {
                        for r in rows {
                            param.accumulate_grad_row(ids[r], g.row_slice(r));
                        }
                    }
                }
                Op::Add(a, b) => {
                    accumulate_ref(&mut grads, *a, &g);
                    accumulate_ref(&mut grads, *b, &g);
                }
                Op::AddBroadcastRow(a, b) => {
                    accumulate_ref(&mut grads, *a, &g);
                    let split = shared_segments(segs, &nodes[*b]);
                    let db = per_segment(split, g.rows(), |rows| col_sums(&g, rows, None));
                    accumulate_grad(&mut grads, *b, db);
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
                    // out = A B ; dA = G B^T ; dB = A^T G.
                    let va = &nodes[*a].value;
                    let vb = &nodes[*b].value;
                    accumulate(&mut grads, *a, row_products(&g, vb, Layout::TransposeB, segs));
                    let split = shared_segments(segs, &nodes[*b]);
                    let db = per_segment(split, g.rows(), |rows| row_sum_product(va, &g, rows, false));
                    accumulate_grad(&mut grads, *b, db);
                }
                Op::MatMulTransB(a, b) => {
                    // out = A B^T ; dA = G B ; dB = G^T A.
                    let va = &nodes[*a].value;
                    let vb = &nodes[*b].value;
                    accumulate(&mut grads, *a, row_products(&g, vb, Layout::Plain, segs));
                    let split = shared_segments(segs, &nodes[*b]);
                    let db = per_segment(split, g.rows(), |rows| row_sum_product(va, &g, rows, true));
                    accumulate_grad(&mut grads, *b, db);
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
                Op::CrossEntropySum { logits, targets, weights, smoothing, probs, segments } => {
                    // d/dlogits = w * (softmax - target_distribution), where
                    // the target distribution is (1-ε)·onehot + ε/V; each
                    // segment's rows scale by that segment's upstream value.
                    let vocab = probs.cols() as f32;
                    let mut dl = probs.clone();
                    for (s, rows) in segment_ranges(segments.as_deref(), dl.rows()).enumerate() {
                        let gout = g.data()[s];
                        for r in rows {
                            let (t, w) = (targets[r], weights[r]);
                            let row = dl.row_slice_mut(r);
                            row[t] -= 1.0 - smoothing;
                            for v in row.iter_mut() {
                                *v -= smoothing / vocab;
                                *v *= w * gout;
                            }
                        }
                    }
                    accumulate(&mut grads, *logits, dl);
                }
                Op::Relu(x) => {
                    let vx = &nodes[*x].value;
                    let dx = g
                        .data()
                        .iter()
                        .zip(vx.data())
                        .map(|(&d, &v)| if v <= 0.0 { 0.0 } else { d })
                        .collect();
                    accumulate(&mut grads, *x, Tensor::from_vec(g.rows(), g.cols(), dx));
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
                    for (r, &istd) in inv_std.iter().enumerate() {
                        let gr = g.row_slice(r);
                        let xr = normed.row_slice(r);
                        // dxhat = g ⊙ gain
                        // dx = inv_std/n * (n*dxhat - sum(dxhat) - x̂ * sum(dxhat ⊙ x̂))
                        let mut sum_dxh = 0.0;
                        let mut sum_dxh_xh = 0.0;
                        for ((&gv, &gain_v), &xh) in gr.iter().zip(vgain.data()).zip(xr) {
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
                    // dgain = Σ g ⊙ x̂ ; dbias = Σ g
                    let split = shared_segments(segs, &nodes[*gain]);
                    let dgain = per_segment(split, g.rows(), |rows| col_sums(&g, rows, Some(normed)));
                    accumulate_grad(&mut grads, *gain, dgain);
                    let split = shared_segments(segs, &nodes[*bias]);
                    let dbias = per_segment(split, g.rows(), |rows| col_sums(&g, rows, None));
                    accumulate_grad(&mut grads, *bias, dbias);
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
                    if let Some(Grad::Whole(dx)) = &mut grads[*x] {
                        // In place, as adding the zero-padded slice would:
                        // the rows outside it get `+ 0.0` (a `-0.0` there
                        // becomes `+0.0`).
                        let rows = *start..start + len;
                        for (r, row) in dx.data_mut().chunks_exact_mut(g.cols()).enumerate() {
                            if rows.contains(&r) {
                                row.iter_mut().zip(g.row_slice(r - start)).for_each(|(d, &v)| *d += v);
                            } else {
                                row.iter_mut().for_each(|d| *d += 0.0);
                            }
                        }
                    } else {
                        let vx = &nodes[*x].value;
                        let mut dx = Tensor::zeros(vx.rows(), vx.cols());
                        for r in 0..*len {
                            dx.row_slice_mut(start + r).copy_from_slice(g.row_slice(r));
                        }
                        accumulate(&mut grads, *x, dx);
                    }
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
                        let mut dp = nodes[p].value.clone();
                        for v in dp.data_mut() {
                            let w = if lse.is_finite() { (*v - lse).exp() } else { 0.0 };
                            *v = gout * w;
                        }
                        accumulate(&mut grads, p, dp);
                    }
                }
                Op::Attention { q, k, v, heads, probs } => {
                    let (vq, vk, vv) = (&nodes[*q].value, &nodes[*k].value, &nodes[*v].value);
                    let d_head = vq.cols() / heads;
                    let scale = 1.0 / (d_head as f32).sqrt();
                    let mut dq = Tensor::zeros(vq.rows(), vq.cols());
                    let mut dk = Tensor::zeros(vk.rows(), vk.cols());
                    let mut dv = Tensor::zeros(vv.rows(), vv.cols());
                    let [mut gh, mut qh, mut kh, mut vh, mut d_attn, mut ds, mut dqh, mut dkh, mut dvh] =
                        std::array::from_fn(|_| Tensor::default());
                    for (h, attn) in probs.iter().enumerate() {
                        let off = h * d_head;
                        // out_h = attn · v_h: d_attn = g_h · v_hᵀ ; dv_h = attnᵀ · g_h.
                        cols_into(&g, off, d_head, &mut gh);
                        cols_into(vv, off, d_head, &mut vh);
                        row_products_into(&gh, &vh, Layout::TransposeB, None, &mut d_attn);
                        row_sum_product_into(attn, &gh, 0..gh.rows(), false, &mut dvh);
                        // attn = softmax(q_h k_hᵀ · scale (+ mask)):
                        // ds = attn ⊙ (d_attn - <d_attn, attn>) · scale.
                        ds.resize_zeroed(attn.rows(), attn.cols());
                        for r in 0..attn.rows() {
                            let (gr, sr) = (d_attn.row_slice(r), attn.row_slice(r));
                            let inner = crate::tensor::dot(gr, sr);
                            for (d, (&gv, &sv)) in ds.row_slice_mut(r).iter_mut().zip(gr.iter().zip(sr)) {
                                *d = sv * (gv - inner) * scale;
                            }
                        }
                        // dq_h = ds · k_h ; dk_h = dsᵀ · q_h.
                        cols_into(vq, off, d_head, &mut qh);
                        cols_into(vk, off, d_head, &mut kh);
                        row_products_into(&ds, &kh, Layout::Plain, None, &mut dqh);
                        row_sum_product_into(&qh, &ds, 0..ds.rows(), true, &mut dkh);
                        for (dst, src) in [(&mut dq, &dqh), (&mut dk, &dkh), (&mut dv, &dvh)] {
                            for r in 0..src.rows() {
                                dst.row_slice_mut(r)[off..off + d_head].copy_from_slice(src.row_slice(r));
                            }
                        }
                    }
                    // The per-head composition summed each head's columns
                    // zero-padded. Adding `+0.0` changes only a `-0.0`, and
                    // a product summed from a `+0.0` seed (or a skipped
                    // one) is never `-0.0`, so the columns are its sums.
                    accumulate(&mut grads, *v, dv);
                    accumulate(&mut grads, *k, dk);
                    accumulate(&mut grads, *q, dq);
                }
            }
            grads[i] = Some(Grad::Whole(g));
        }
        Gradients { grads }
    }
}

/// Rows `ids` of `param`'s table.
fn gather(param: &Param, ids: &[usize]) -> Tensor {
    let (vocab, dim) = param.shape();
    let mut out = Tensor::zeros(ids.len(), dim);
    param.with_value(|table| {
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < vocab, "token id {id} out of vocabulary {vocab}");
            out.row_slice_mut(r).copy_from_slice(table.row_slice(id));
        }
    });
    out
}

/// The bounds of consecutive segments of `lens` rows each.
fn bounds(lens: impl Iterator<Item = usize>) -> Bounds {
    let mut bounds = vec![0];
    for len in lens {
        assert!(len > 0, "a stacked node's segments must be non-empty");
        bounds.push(bounds.last().copied().unwrap_or(0) + len);
    }
    assert!(bounds.len() > 1, "a stacked node needs at least one segment");
    bounds.into()
}

/// The segments of a node recording `op`: row-wise ops keep their stacked
/// operand's segments, everything else is unstacked.
fn derived_segments(nodes: &[Node], op: &Op) -> Option<Bounds> {
    let of = |i: &usize| nodes[*i].segments.as_ref();
    // The operands' one set of segments (unstacked operands aside).
    let common = |ids: &[usize]| {
        let mut stacked = ids.iter().filter_map(of);
        let first = stacked.next()?;
        assert!(stacked.all(|b| b[..] == first[..]), "operands stacked differently");
        Some(Bounds::clone(first))
    };
    match op {
        Op::Const
        | Op::Param(_)
        | Op::GatherRows { .. }
        | Op::SliceRows { .. }
        | Op::StackRows(_)
        | Op::MeanRows(_)
        | Op::CrossEntropySum { .. }
        | Op::LogSumExpScalars(_) => None,
        Op::Attention { q, k, v, .. } => {
            assert!([q, k, v].iter().all(|i| of(i).is_none()), "attention over a stacked node");
            None
        }
        Op::Transpose(x) => {
            assert!(of(x).is_none(), "transpose of a stacked node");
            None
        }
        Op::Affine { x, .. }
        | Op::AddConst(x)
        | Op::RowSoftmax(x)
        | Op::RowLogSoftmax(x)
        | Op::Relu(x)
        | Op::Sigmoid(x)
        | Op::Tanh(x)
        | Op::LayerNorm { x, .. }
        | Op::DropoutMask { x, .. }
        | Op::SliceCols { x, .. }
        | Op::AddBroadcastRow(x, _) => of(x).cloned(),
        Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => common(&[*a, *b]),
        Op::MatMul(a, b) | Op::MatMulTransB(a, b) => {
            assert!(of(a).is_none() || of(b).is_none(), "product of two stacked nodes");
            of(a).cloned()
        }
        Op::ConcatCols(parts) | Op::AddN(parts) => common(parts),
    }
}

/// The row ranges of `segs`, or all `rows` as one range.
fn segment_ranges(segs: Option<&[usize]>, rows: usize) -> impl DoubleEndedIterator<Item = Range<usize>> + '_ {
    let whole = segs.is_none().then_some(0..rows);
    let parts = segs.unwrap_or(&[]).windows(2).map(|w| w[0]..w[1]);
    whole.into_iter().chain(parts)
}

/// A stacked node's segments as seen by its `operand`: `Some` when the
/// operand is unstacked, that is a value every segment shares, whose
/// row-reducing gradients then split per segment.
fn shared_segments<'a>(segs: Option<&'a [usize]>, operand: &Node) -> Option<&'a [usize]> {
    segs.filter(|_| operand.segments.is_none())
}

/// `f` over each segment's rows when `split` is given (one partial each),
/// else over all `rows`.
fn per_segment(split: Option<&[usize]>, rows: usize, f: impl FnMut(Range<usize>) -> Tensor) -> Grad {
    match split {
        Some(_) => Grad::Parts(segment_ranges(split, rows).map(f).collect()),
        None => Grad::Whole({ f }(0..rows)),
    }
}

/// Columns `start..start + len` of `src` into `out` (reshaped, its
/// allocation reused).
fn cols_into(src: &Tensor, start: usize, len: usize, out: &mut Tensor) {
    out.resize_zeroed(src.rows(), len);
    for r in 0..src.rows() {
        out.row_slice_mut(r).copy_from_slice(&src.row_slice(r)[start..start + len]);
    }
}

/// The column sums of rows `rows` of `g`, each row weighted elementwise
/// by the same row of `weights` if given: one `1 x cols` row, accumulated
/// from `+0.0` in ascending row order.
fn col_sums(g: &Tensor, rows: Range<usize>, weights: Option<&Tensor>) -> Tensor {
    let mut sums = Tensor::zeros(1, g.cols());
    for r in rows {
        let gr = g.row_slice(r);
        match weights {
            Some(w) => {
                for (s, (&gv, &wv)) in sums.data_mut().iter_mut().zip(gr.iter().zip(w.row_slice(r))) {
                    *s += gv * wv;
                }
            }
            None => {
                for (s, &gv) in sums.data_mut().iter_mut().zip(gr) {
                    *s += gv;
                }
            }
        }
    }
    sums
}

/// Which kernel body a backward product of gradient `g` against `other`
/// runs on: none when `g` is all zeros and `other` finite (every output is
/// then `+0.0`), else the exact body for tiny gradients (the f32 body would
/// run on subnormals) or the f32 body. All give the same bits.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Body {
    Skip,
    Exact,
    F32,
}

fn body(g: &[f32], other: impl FnOnce() -> bool) -> Body {
    match gemm::grad_kind(g) {
        GradKind::Zero if other() => Body::Skip,
        GradKind::Tiny => Body::Exact,
        _ => Body::F32,
    }
}

fn all_finite(x: &[f32]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// `g · w` (`Plain`) or `g · wᵀ` (`TransposeB`): row-wise in `g`, so each
/// run of `g`'s segments that take the same body is one product into its
/// own rows of the output.
fn row_products(g: &Tensor, w: &Tensor, layout: Layout, segs: Option<&[usize]>) -> Tensor {
    let mut out = Tensor::default();
    row_products_into(g, w, layout, segs, &mut out);
    out
}

/// [`row_products`] into `out` (reshaped, its allocation reused).
fn row_products_into(g: &Tensor, w: &Tensor, layout: Layout, segs: Option<&[usize]>, out: &mut Tensor) {
    let n = if layout == Layout::TransposeB { w.rows() } else { w.cols() };
    out.resize_zeroed(g.rows(), n);
    let mut w_finite = None;
    // Runs of consecutive segments on one body, each one product.
    let mut run: Option<(Range<usize>, Body)> = None;
    for rows in segment_ranges(segs, g.rows()).map(Some).chain([None]) {
        let next = rows.map(|rows| {
            let data = &g.data()[rows.start * g.cols()..rows.end * g.cols()];
            (rows, body(data, || *w_finite.get_or_insert_with(|| all_finite(w.data()))))
        });
        match (&mut run, next) {
            (Some((run, last)), Some((rows, kind))) if *last == kind => run.end = rows.end,
            (done, next) => {
                if let Some((rows, kind)) = std::mem::replace(done, next) {
                    if kind != Body::Skip {
                        let dst = &mut out.data_mut()[rows.start * n..rows.end * n];
                        let exact = kind == Body::Exact;
                        gemm::product_mats_into(Mat::rows_of(g, rows), w.into(), layout, exact, dst);
                    }
                }
            }
        }
    }
}

/// The sum over rows `rows` of the outer products of `x` and `g`:
/// `x[rows]ᵀ · g[rows]`, or `g[rows]ᵀ · x[rows]` when `g_first`.
fn row_sum_product(x: &Tensor, g: &Tensor, rows: Range<usize>, g_first: bool) -> Tensor {
    let mut out = Tensor::default();
    row_sum_product_into(x, g, rows, g_first, &mut out);
    out
}

/// [`row_sum_product`] into `out` (reshaped, its allocation reused).
fn row_sum_product_into(x: &Tensor, g: &Tensor, rows: Range<usize>, g_first: bool, out: &mut Tensor) {
    let (xm, gm) = (Mat::rows_of(x, rows.clone()), Mat::rows_of(g, rows.clone()));
    let ((a, b), (m, n)) = if g_first { ((gm, xm), (g.cols(), x.cols())) } else { ((xm, gm), (x.cols(), g.cols())) };
    out.resize_zeroed(m, n);
    let g_rows = &g.data()[rows.start * g.cols()..rows.end * g.cols()];
    let x_rows = &x.data()[rows.start * x.cols()..rows.end * x.cols()];
    match body(g_rows, || all_finite(x_rows)) {
        Body::Skip => {}
        kind => gemm::product_mats_into(a, b, Layout::TransposeA, kind == Body::Exact, out.data_mut()),
    }
}

/// Adds a gradient into slot `idx`, moving it in when the slot is still
/// empty. Partials add segment by segment; a mix of partials and a whole
/// gradient (a shared value also used unstacked) collapses to one tensor.
fn accumulate_grad(grads: &mut [Option<Grad>], idx: usize, delta: Grad) {
    let slot = &mut grads[idx];
    match (slot.take(), delta) {
        (None, d) => *slot = Some(d),
        (Some(Grad::Whole(mut g)), Grad::Whole(d)) => {
            g.add_assign(&d);
            *slot = Some(Grad::Whole(g));
        }
        (Some(Grad::Parts(mut ps)), Grad::Parts(ds)) if ps.len() == ds.len() => {
            ps.iter_mut().zip(&ds).for_each(|(p, d)| p.add_assign(d));
            *slot = Some(Grad::Parts(ps));
        }
        (Some(g), d) => {
            let mut g = g.into_whole();
            g.add_assign(&d.into_whole());
            *slot = Some(Grad::Whole(g));
        }
    }
}

/// Adds a freshly computed gradient into slot `idx`.
fn accumulate(grads: &mut [Option<Grad>], idx: usize, delta: Tensor) {
    accumulate_grad(grads, idx, Grad::Whole(delta));
}

/// [`accumulate`] for a borrowed gradient (a node passing its own `g`
/// through, which stays in its slot): copied only into an empty slot.
fn accumulate_ref(grads: &mut [Option<Grad>], idx: usize, delta: &Tensor) {
    match &mut grads[idx] {
        Some(Grad::Whole(g)) => g.add_assign(delta),
        _ => accumulate(grads, idx, delta.clone()),
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

    /// The number of segments of a stacked node, or `None` for an
    /// unstacked one.
    pub fn segment_count(&self) -> Option<usize> {
        self.tape.nodes.borrow()[self.idx].segments.as_ref().map(|b| b.len() - 1)
    }

    /// Segment `s` of a stacked node, as an unstacked node of its rows.
    pub fn segment(&self, s: usize) -> Var<'t> {
        let (start, end) = {
            let nodes = self.tape.nodes.borrow();
            let b = nodes[self.idx].segments.as_ref().expect("segment of an unstacked node");
            (b[s], b[s + 1])
        };
        self.slice_rows(start, end - start)
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
        self.cross_entropy(targets, weights, smoothing, None)
    }

    /// [`Self::cross_entropy_sum`] of each segment of a stacked node:
    /// `k x 1`, row `s` summing segment `s`'s rows.
    pub fn cross_entropy_segments(&self, targets: &[usize], weights: &[f32]) -> Var<'t> {
        let segments = self.tape.nodes.borrow()[self.idx].segments.clone();
        assert!(segments.is_some(), "cross_entropy_segments of an unstacked node");
        self.cross_entropy(targets, weights, 0.0, segments)
    }

    fn cross_entropy(
        &self,
        targets: &[usize],
        weights: &[f32],
        smoothing: f32,
        segments: Option<Bounds>,
    ) -> Var<'t> {
        assert!((0.0..1.0).contains(&smoothing), "smoothing must be in [0, 1)");
        let (totals, probs) = {
            let nodes = self.tape.nodes.borrow();
            let logits = &nodes[self.idx].value;
            assert_eq!(logits.rows(), targets.len(), "one target per logits row");
            assert_eq!(targets.len(), weights.len(), "one weight per target");
            let vocab = logits.cols() as f32;
            let mut probs = Tensor::zeros(logits.rows(), logits.cols());
            let mut totals = Vec::new();
            for rows in segment_ranges(segments.as_deref(), logits.rows()) {
                let mut total = 0.0;
                for r in rows {
                    let (t, w) = (targets[r], weights[r]);
                    assert!(t < logits.cols(), "target {t} out of vocab {}", logits.cols());
                    let x = logits.row_slice(r);
                    // log p[c] = x[c] - lse.
                    let lse = softmax_and_log_sum_exp(x, probs.row_slice_mut(r));
                    let mut nll = -(1.0 - smoothing) * (x[t] - lse);
                    if smoothing > 0.0 {
                        let mean_logp: f32 = x.iter().map(|&v| v - lse).sum::<f32>() / vocab;
                        nll -= smoothing * mean_logp;
                    }
                    total += w * nll;
                }
                totals.push(total);
            }
            (totals, probs)
        };
        let value = if segments.is_some() {
            Tensor::from_vec(totals.len(), 1, totals)
        } else {
            Tensor::scalar(totals[0])
        };
        self.tape.push(
            value,
            Op::CrossEntropySum {
                logits: self.idx,
                targets: targets.to_vec(),
                weights: weights.to_vec(),
                smoothing,
                probs,
                segments,
            },
        )
    }

    /// Multi-head scaled dot-product attention of `self` (the queries)
    /// over `keys` and `values`, all `rows x d` with `d = heads · d_head`
    /// and three distinct nodes: per head `h`, over its `d_head` columns,
    /// `softmax(q_h · k_hᵀ · (1/√d_head) + mask) · v_h`, the heads side by
    /// side. `mask` (if given, `q_rows x kv_rows`) is added to the scaled
    /// scores (`0` = visible, `-1e9` = hidden).
    ///
    /// One node for what the per-head composition of `slice_cols`,
    /// `matmul_transpose_b`, `scale`, `add_const`, `row_softmax`, `matmul`
    /// and `concat_cols` records: the same kernels in the same order, so
    /// its value and the gradients it sends are bitwise that
    /// composition's (`tests/gradcheck.rs` pins it), with one node and a
    /// few reused buffers instead of eight nodes per head.
    pub fn attention(
        &self,
        keys: Var<'t>,
        values: Var<'t>,
        heads: usize,
        mask: Option<&Tensor>,
    ) -> Var<'t> {
        let ids = [self.idx, keys.idx, values.idx];
        assert!(ids[0] != ids[1] && ids[0] != ids[2] && ids[1] != ids[2], "attention inputs must be distinct nodes");
        let (merged, probs) = {
            let nodes = self.tape.nodes.borrow();
            let [q, k, v] = ids.map(|i| &*nodes[i].value);
            let d = q.cols();
            assert!(heads > 0 && d % heads == 0, "{d} columns do not split into {heads} heads");
            assert_eq!(k.cols(), d, "attention keys width");
            assert_eq!(v.shape(), k.shape(), "attention keys/values shape");
            if let Some(m) = mask {
                assert_eq!(m.shape(), (q.rows(), k.rows()), "attention mask shape");
            }
            let d_head = d / heads;
            let scale = 1.0 / (d_head as f32).sqrt();
            let mut merged = Tensor::zeros(q.rows(), d);
            let [mut qh, mut kh, mut vh, mut ctx] = std::array::from_fn(|_| Tensor::default());
            let mut probs = Vec::with_capacity(heads);
            for h in 0..heads {
                let off = h * d_head;
                cols_into(q, off, d_head, &mut qh);
                cols_into(k, off, d_head, &mut kh);
                cols_into(v, off, d_head, &mut vh);
                let mut attn = Tensor::default();
                gemm::product_into(&qh, &kh, Layout::TransposeB, &mut attn);
                attn.affine_in_place(scale, 0.0);
                if let Some(m) = mask {
                    attn.add_assign(m);
                }
                for r in 0..attn.rows() {
                    softmax_in_place(attn.row_slice_mut(r));
                }
                gemm::product_into(&attn, &vh, Layout::Plain, &mut ctx);
                for r in 0..q.rows() {
                    merged.row_slice_mut(r)[off..off + d_head].copy_from_slice(ctx.row_slice(r));
                }
                probs.push(attn);
            }
            (merged, probs)
        };
        let op = Op::Attention { q: ids[0], k: ids[1], v: ids[2], heads, probs };
        self.tape.push(merged, op)
    }

    /// Each head's softmax weights (`q_rows x kv_rows`) at an
    /// [`Self::attention`] node.
    pub fn attention_weights(&self) -> Vec<Tensor> {
        match &self.tape.nodes.borrow()[self.idx].op {
            Op::Attention { probs, .. } => probs.clone(),
            _ => panic!("attention_weights of a node that is not an attention"),
        }
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
        let v = Self::joined(parts, Tensor::concat_cols);
        parts[0].tape.push(v, Op::ConcatCols(parts.iter().map(|p| p.idx).collect()))
    }

    /// `join` of the parts' values, borrowed in place.
    fn joined(parts: &[Var<'t>], join: impl FnOnce(&[&Tensor]) -> Tensor) -> Tensor {
        assert!(!parts.is_empty());
        let nodes = parts[0].tape.nodes.borrow();
        join(&parts.iter().map(|p| &*nodes[p.idx].value).collect::<Vec<_>>())
    }

    pub fn slice_cols(&self, start: usize, len: usize) -> Var<'t> {
        self.unary(|x| x.slice_cols(start, len), Op::SliceCols { x: self.idx, start, len })
    }

    pub fn slice_rows(&self, start: usize, len: usize) -> Var<'t> {
        self.unary(|x| x.slice_rows(start, len), Op::SliceRows { x: self.idx, start, len })
    }

    /// Stacks nodes top-to-bottom (RNN step outputs into a sequence).
    pub fn stack_rows(parts: &[Var<'t>]) -> Var<'t> {
        let v = Self::joined(parts, Tensor::stack_rows);
        parts[0].tape.push(v, Op::StackRows(parts.iter().map(|p| p.idx).collect()))
    }

    /// [`Self::stack_rows`] as a stacked node with one segment per part.
    pub fn stack_segments(parts: &[Var<'t>]) -> Var<'t> {
        let value = Value::Owned(Self::joined(parts, Tensor::stack_rows));
        let segments = Some(bounds(parts.iter().map(|p| p.shape().0)));
        let op = Op::StackRows(parts.iter().map(|p| p.idx).collect());
        parts[0].tape.push_node(Node { value, op, segments })
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

    /// Numerically stable `log sum exp` over every entry of `parts`
    /// (`1x1` scalars, or columns such as the `k x 1` of
    /// [`Self::cross_entropy_segments`]), in order.
    ///
    /// This is the reduction at the heart of the cycle-consistency
    /// likelihood: `L_c = log Σ_i exp(log P_f(ŷ_i|x) + log P_b(x|ŷ_i))`.
    pub fn log_sum_exp_scalars(parts: &[Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty());
        let tape = parts[0].tape;
        let vals: Vec<f32> = {
            let nodes = tape.nodes.borrow();
            parts.iter().flat_map(|p| nodes[p.idx].value.data().iter().copied()).collect()
        };
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

    /// A row slice's gradient adds into its rows of an existing slot in
    /// place, and `+ 0.0` into the others, as adding the zero-padded slice
    /// did: a `-0.0` outside the slice becomes `+0.0`.
    #[test]
    fn slice_rows_gradient_adds_in_place_like_the_padded_slice() {
        let tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let top = x.slice_rows(0, 2);
        // Recorded later, so it fills `x`'s slot first, with `-0.0`s.
        let zeroed = x.scale(-0.0);
        let ones = |n| tape.constant(Tensor::full(1, n, 1.0));
        let loss = ones(2).matmul(top).add(ones(3).matmul(zeroed));
        let grads = tape.backward(loss);
        let dx: Vec<u32> = grads.get(x).unwrap().data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(dx, [1.0f32.to_bits(), 1.0f32.to_bits(), 0.0f32.to_bits()]);
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
