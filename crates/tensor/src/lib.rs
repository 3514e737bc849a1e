//! # qrw-tensor
//!
//! A minimal CPU tensor library with reverse-mode automatic differentiation,
//! built as the neural-network substrate for the reproduction of *"Query
//! Rewriting via Cycle-Consistent Translation for E-Commerce Search"*
//! (ICDE 2021).
//!
//! The paper's models are standard NMT encoder-decoders (transformer,
//! attention-RNN, GRU); this crate provides exactly the op set they need:
//!
//! * [`Tensor`] — dense row-major `f32` matrices with the usual kernels
//!   (matmul, softmax, layer norm building blocks).
//! * [`gemm`] — the one register-tiled f32 GEMM behind all three matmul
//!   layouts, bitwise identical to the naive triple loop, and its exact
//!   `f64`-lane body that the backward pass takes on subnormal gradients
//!   (same bits, no microcode assists).
//! * [`Tape`] / [`Var`] — an eager autodiff tape with a closed op set; every
//!   backward rule is finite-difference tested.
//! * [`Param`] / [`ParamSet`] — shared trainable parameters; gradients
//!   accumulate across tapes, which is what lets the cycle-consistency loss
//!   couple two separate models in one backward pass.
//! * [`optim`] — Adam and the Noam schedule, the paper's §IV-A training
//!   setup.
//! * [`quant`] — i8 per-row-scaled matrices with dequant-free integer
//!   microkernels (the distilled student's fast path).
//! * [`init`] — deterministic, seeded initializers.
//! * [`serialize`] — tiny binary checkpoints.
//! * [`rng`] — the in-repo SplitMix64 generator (hermetic builds: no
//!   external `rand`).
//! * [`sync`] — poison-recovering locks over `std::sync`.

pub mod gemm;
pub mod init;
pub mod optim;
pub mod param;
pub mod quant;
pub mod rng;
pub mod serialize;
pub mod sync;
pub mod tape;
pub mod tensor;

pub use param::{Param, ParamSet};
pub use quant::{dot_i8, quantize_row, QuantizedMatrix, QuantizedRows};
pub use rng::StdRng;
pub use tape::{Gradients, Tape, Var};
pub use gemm::PAR_MIN_WORK;
pub use tensor::{log_sum_exp, Activation, Tensor};

/// True when the CPU supports AVX2, the one probe behind every SIMD
/// dispatch in this crate (the f32 [`gemm`] and the i8 [`quant`]
/// kernels). Always false off x86-64; the detection macro caches it.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
