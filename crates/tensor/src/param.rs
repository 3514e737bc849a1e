//! Trainable parameters and parameter collections.
//!
//! A [`Param`] is a shared, mutable tensor plus its accumulated gradient.
//! Model layers hold `Param` handles; the autodiff tape records which
//! parameters participated in a forward pass and flushes gradients into them
//! during the backward pass. Optimizers then walk a [`ParamSet`] and update
//! values in place.

use std::sync::Arc;

use crate::sync::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::tensor::Tensor;

static NEXT_PARAM_ID: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
struct ParamInner {
    name: String,
    /// Shared with every tape that recorded this parameter since its last
    /// update; [`Param::update`] copies on write while one still does.
    value: Arc<Tensor>,
    grad: Tensor,
}

/// A shared trainable parameter.
///
/// Cloning a `Param` clones the *handle*: both clones refer to the same
/// underlying value and gradient. Parameters are identified by a unique id so
/// optimizers can keep per-parameter state (e.g. Adam moments) across steps.
#[derive(Clone, Debug)]
pub struct Param {
    id: u64,
    inner: Arc<RwLock<ParamInner>>,
}

impl Param {
    /// Creates a parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let (rows, cols) = value.shape();
        Param {
            id: NEXT_PARAM_ID.fetch_add(1, Ordering::Relaxed),
            inner: Arc::new(RwLock::new(ParamInner {
                name: name.into(),
                value: Arc::new(value),
                grad: Tensor::zeros(rows, cols),
            })),
        }
    }

    /// Globally unique id of this parameter.
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn name(&self) -> String {
        self.inner.read().name.clone()
    }

    /// `(rows, cols)` of the value.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.read().value.shape()
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.inner.read().value.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the current value.
    pub fn value(&self) -> Tensor {
        Tensor::clone(&self.inner.read().value)
    }

    /// The current value, shared rather than copied (what
    /// [`crate::Tape::param`] records).
    pub(crate) fn shared_value(&self) -> Arc<Tensor> {
        Arc::clone(&self.inner.read().value)
    }

    /// Copies out the accumulated gradient.
    pub fn grad(&self) -> Tensor {
        self.inner.read().grad.clone()
    }

    /// Runs `f` with a shared borrow of the value, without copying.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.inner.read().value)
    }

    /// Replaces the value (shape must match).
    pub fn set_value(&self, value: Tensor) {
        let mut inner = self.inner.write();
        assert_eq!(inner.value.shape(), value.shape(), "set_value: shape mismatch");
        match Arc::get_mut(&mut inner.value) {
            Some(v) => *v = value,
            None => inner.value = Arc::new(value),
        }
    }

    /// Accumulates `delta` into the gradient.
    pub fn accumulate_grad(&self, delta: &Tensor) {
        self.inner.write().grad.add_assign(delta);
    }

    /// Accumulates into a single gradient row (embedding scatter).
    pub fn accumulate_grad_row(&self, row: usize, delta: &[f32]) {
        let mut inner = self.inner.write();
        let slot = inner.grad.row_slice_mut(row);
        debug_assert_eq!(slot.len(), delta.len());
        for (g, d) in slot.iter_mut().zip(delta) {
            *g += d;
        }
    }

    /// Zeroes the accumulated gradient, keeping the allocation.
    pub fn zero_grad(&self) {
        self.inner.write().grad.fill_zero();
    }

    /// Applies an in-place update `value[i] += f(i, grad[i])` style closure.
    ///
    /// The closure receives `(value_slice, grad_slice)` and may mutate the
    /// value; used by optimizers to avoid copying.
    pub fn update(&self, f: impl FnOnce(&mut [f32], &[f32])) {
        let mut inner = self.inner.write();
        let ParamInner { value, grad, .. } = &mut *inner;
        f(Arc::make_mut(value).data_mut(), grad.data());
    }

    /// L2 norm of the accumulated gradient.
    pub fn grad_norm(&self) -> f32 {
        self.inner.read().grad.norm()
    }

    /// Scales the accumulated gradient in place (for gradient clipping).
    pub fn scale_grad(&self, alpha: f32) {
        let mut inner = self.inner.write();
        for g in inner.grad.data_mut() {
            *g *= alpha;
        }
    }
}

/// An ordered collection of parameters (a model's trainable state).
#[derive(Clone, Debug, Default)]
pub struct ParamSet {
    params: Vec<Param>,
}

impl ParamSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers and returns a new parameter.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> Param {
        let p = Param::new(name, value);
        self.params.push(p.clone());
        p
    }

    /// Registers an existing parameter handle.
    pub fn push(&mut self, param: Param) {
        self.params.push(param);
    }

    /// Appends all parameters of `other` (handles are shared, not copied).
    pub fn extend(&mut self, other: &ParamSet) {
        self.params.extend(other.params.iter().cloned());
    }

    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(Param::len).sum()
    }

    pub fn zero_grads(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Global L2 norm over all gradients.
    pub fn global_grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| {
                let n = p.grad_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Clips gradients so the global norm is at most `max_norm`.
    ///
    /// Returns the pre-clip norm.
    pub fn clip_grad_norm(&self, max_norm: f32) -> f32 {
        let norm = self.global_grad_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in &self.params {
                p.scale_grad(scale);
            }
        }
        norm
    }
}

impl<'a> IntoIterator for &'a ParamSet {
    type Item = &'a Param;
    type IntoIter = std::slice::Iter<'a, Param>;
    fn into_iter(self) -> Self::IntoIter {
        self.params.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_ids_are_unique() {
        let a = Param::new("a", Tensor::zeros(1, 1));
        let b = Param::new("b", Tensor::zeros(1, 1));
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id(), a.clone().id());
    }

    #[test]
    fn clone_shares_storage() {
        let a = Param::new("a", Tensor::scalar(1.0));
        let b = a.clone();
        a.set_value(Tensor::scalar(5.0));
        assert_eq!(b.value().item(), 5.0);
        b.accumulate_grad(&Tensor::scalar(2.0));
        assert_eq!(a.grad().item(), 2.0);
    }

    #[test]
    fn grad_accumulates_and_zeroes() {
        let p = Param::new("p", Tensor::zeros(2, 2));
        p.accumulate_grad(&Tensor::full(2, 2, 1.0));
        p.accumulate_grad(&Tensor::full(2, 2, 2.0));
        assert_eq!(p.grad().data(), &[3.0; 4]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0; 4]);
    }

    #[test]
    fn accumulate_grad_row_scatters() {
        let p = Param::new("emb", Tensor::zeros(3, 2));
        p.accumulate_grad_row(1, &[1.0, 2.0]);
        p.accumulate_grad_row(1, &[1.0, 0.0]);
        let g = p.grad();
        assert_eq!(g.row_slice(0), &[0.0, 0.0]);
        assert_eq!(g.row_slice(1), &[2.0, 2.0]);
    }

    #[test]
    fn clip_grad_norm_scales_down_only_when_needed() {
        let mut set = ParamSet::new();
        let p = set.add("p", Tensor::zeros(1, 2));
        p.accumulate_grad(&Tensor::from_vec(1, 2, vec![3.0, 4.0]));
        let pre = set.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((set.global_grad_norm() - 1.0).abs() < 1e-5);
        // Already below the cap: untouched.
        let pre2 = set.clip_grad_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
        assert!((set.global_grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn param_set_counts_scalars() {
        let mut set = ParamSet::new();
        set.add("a", Tensor::zeros(2, 3));
        set.add("b", Tensor::zeros(1, 4));
        assert_eq!(set.len(), 2);
        assert_eq!(set.num_scalars(), 10);
    }
}
