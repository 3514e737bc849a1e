//! The one f32 GEMM behind [`Tensor::matmul`],
//! [`Tensor::matmul_transpose_a`] and [`Tensor::matmul_transpose_b`].
//!
//! A register-tiled microkernel computes an `MR x NR` block of outputs at
//! a time: the block's accumulators stay in registers for the whole k loop
//! and each output is stored once. Per k step it loads one `NR`-wide row
//! segment of `b` and broadcasts `MR` values of `a`, read through
//! `(row, col)` strides so a transposed `a` needs no copy. Rows short of a
//! whole `MR` block (a decode step's single row) run as `1 x 4·NR` or
//! `2 x 2·NR` blocks in the same registers. A transposed `b` is packed
//! once per call into a reused per-thread buffer (8×8 blocks at a time
//! through AVX2 registers), as is the last `NR`-wide column panel of `b`
//! when `n` is not a multiple of `NR` (zero padded; the padding lanes are
//! computed and never stored).
//!
//! **Bitwise contract.** Every output starts at `+0.0` and accumulates
//! `acc += a[i,p] * b[p,j]` for `p` ascending, one rounded multiply and one
//! rounded add at a time — exactly the naive triple loop. Tiling only
//! changes *which* output is updated next, never the terms within one, so
//! results are bitwise identical to the naive loop, to each other across
//! the three layouts, and across thread counts (each output row belongs to
//! one thread).
//!
//! **Dispatch.** The body is compiled twice: once for the portable target
//! and once inside an `#[target_feature(enable = "avx2")]` wrapper chosen
//! at run time by [`crate::avx2_available`]. The wrapper enables AVX2
//! (256-bit lanes) but not FMA, and Rust never contracts `a * b + c` into
//! a fused multiply-add, so both copies round identically;
//! `tests/matmul_props.rs` pins the dispatched copy against
//! [`product_portable`] on every shape.
//!
//! **The exact body.** On x86, every vector multiply or add whose input or
//! result is an f32 subnormal takes a microcode assist. A backward product
//! whose upstream gradient carries a tiny log-sum-exp path weight is full
//! of them: a 25×48 gradient, two-thirds subnormal, times a 48×48 weight
//! took ~250 µs on the f32 body against ~7 µs on ordinary values. [`product_exact`] runs the
//! same tiling over `f64` lanes that hold f32 values and round to f32
//! after every operation, computing `acc = round_f32(acc +
//! round_f32(a·b))` for `p` ascending from `+0.0`: the same sequence of
//! f32 values as the f32 body, so the same bits. Two rounding facts make
//! this exact:
//!
//! - *The product.* An f32·f32 product has at most 48 significant bits and
//!   an exponent within `[-298, 256]`, so it is exact in f64 (and normal
//!   there); rounding it once to f32 is the f32 multiply.
//! - *The sum.* Rounding an f32 + f32 sum to f64 and then to f32 equals
//!   rounding it to f32 once, because double rounding is innocuous when
//!   the wide precision is at least twice the narrow one plus two
//!   (53 ≥ 2·24 + 2). A sum smaller than 2⁻¹²⁶ is a multiple of 2⁻¹⁴⁹
//!   with at most 23 significant bits, so f64 holds it exactly and f32
//!   needs no rounding.
//!
//! `round_f32` rounds in f64 arithmetic alone: adding and subtracting a
//! shifter `1.5·2^(e+29)`, where `2^e` is the value's binade floored at
//! 2⁻¹²⁶, leaves the value on the f32 grid of its binade (the shifter's
//! f64 ulp is `2^(e-23)`), ties to even because the shifter is an even
//! multiple of that ulp. Below 2⁻¹²⁶ the shifter is `1.5·2⁻⁹⁷`, whose ulp
//! is the subnormal step 2⁻¹⁴⁹. A negative product that rounds to zero
//! comes out `+0.0`, not `-0.0`; no output can show it, because an f32
//! sum from a `+0.0` seed is never `-0.0` (an exact nonzero sum of f32
//! values never rounds to zero, and `x + (±0.0)` is `x` for `x ≠ 0` and
//! `+0.0` for `x = +0.0`). No f64 value on this path is subnormal
//! (the smallest nonzero one is 2⁻¹⁴⁹), and operands are widened and
//! results narrowed with integer bit operations, since a float conversion
//! from or to an f32 subnormal takes the assist too. Operands holding a
//! non-finite value, or large enough that a sum could overflow, run on
//! the f32 body instead, so `round_f32` never sees an infinity. The tape
//! sends a backward product here when its upstream gradient holds a
//! nonzero magnitude below [`TINY_GRADIENT`]; both bodies give the same
//! bits, so that rule decides speed only.

use std::cell::RefCell;
use std::ops::Range;

use crate::tensor::Tensor;

/// Multiply-accumulate count above which a product fans out over threads.
/// Below it, thread-spawn overhead (~tens of µs) exceeds the arithmetic —
/// the serving-time single-row vocabulary projections stay serial.
pub const PAR_MIN_WORK: usize = 1 << 21;

/// Output rows per microkernel tile.
const MR: usize = 4;
/// Output columns per microkernel tile: two 8-lane AVX registers, so the
/// `MR x NR` accumulators take 8 of the 16 `ymm` registers.
const NR: usize = 16;
/// Output rows per tile of the exact body: its `f64` lanes are half as
/// many per register, so `2 x NR` accumulators take the same 8 registers.
const MR_EXACT: usize = 2;

/// An upstream gradient holding a nonzero magnitude below this (2⁻¹²³)
/// sends its backward products to [`product_exact`]: their products with
/// weights of ordinary size land below 2⁻¹²⁶, where the f32 body's vector
/// arithmetic takes a microcode assist. Measured per backward GEMM of the
/// cyclic trainer, grouped by the gradient's least nonzero magnitude, the
/// exact body was faster below 2⁻¹²³ (7.5× for a subnormal one, 1.8× in
/// `[2⁻¹²⁴, 2⁻¹²³)`), level in `[2⁻¹²³, 2⁻¹²²)` and slower above.
pub const TINY_GRADIENT: f32 = 1.0 / (1u128 << 123) as f32;

/// Which operand of `a @ b` is stored transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `a[m,k] @ b[k,n]`.
    Plain,
    /// `a[k,m]^T @ b[k,n]`.
    TransposeA,
    /// `a[m,k] @ b[n,k]^T`.
    TransposeB,
}

thread_local! {
    /// Packed `b` panels of the calling thread, reused across calls.
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The exact body's widened `a` rows and `b` panels of the calling
    /// thread, reused across calls.
    static WIDE: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// A row-major `rows x cols` matrix borrowed from a [`Tensor`]: all of
/// it, or a contiguous run of its rows.
#[derive(Clone, Copy)]
pub(crate) struct Mat<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl<'a> Mat<'a> {
    /// Rows `rows` of `t`.
    pub(crate) fn rows_of(t: &'a Tensor, rows: Range<usize>) -> Self {
        let cols = t.cols();
        Mat { data: &t.data()[rows.start * cols..rows.end * cols], rows: rows.len(), cols }
    }
}

impl<'a> From<&'a Tensor> for Mat<'a> {
    fn from(t: &'a Tensor) -> Self {
        Mat { data: t.data(), rows: t.rows(), cols: t.cols() }
    }
}

/// The product of `a` and `b` in `layout`, on the fastest kernel copy the
/// CPU supports.
pub(crate) fn product(a: &Tensor, b: &Tensor, layout: Layout) -> Tensor {
    product_mats(a.into(), b.into(), layout, false)
}

/// [`product`] written into `out` (reshaped to `m x n`, its allocation
/// reused once it has held that many values).
pub(crate) fn product_into(a: &Tensor, b: &Tensor, layout: Layout, out: &mut Tensor) {
    product_tensor(a.into(), b.into(), layout, crate::avx2_available(), false, out);
}

/// The product on the portable kernel copy: the reference the dispatched
/// copy is pinned against.
pub fn product_portable(a: &Tensor, b: &Tensor, layout: Layout) -> Tensor {
    let mut out = Tensor::default();
    product_tensor(a.into(), b.into(), layout, false, false, &mut out);
    out
}

/// The product on the exact `f64` body (see the module doc): bitwise the
/// f32 body's ([`Tensor::matmul`] and its transposed twins), without
/// arithmetic on f32 subnormals. Operands holding a NaN or an infinity,
/// or whose magnitudes could overflow a sum, take the f32 body.
pub fn product_exact(a: &Tensor, b: &Tensor, layout: Layout) -> Tensor {
    product_mats(a.into(), b.into(), layout, true)
}

/// The product of two views on the exact body (`exact`) or the f32 one.
pub(crate) fn product_mats(a: Mat, b: Mat, layout: Layout, exact: bool) -> Tensor {
    let mut out = Tensor::default();
    product_tensor(a, b, layout, crate::avx2_available(), exact, &mut out);
    out
}

/// [`product_mats`] written over `out`, which holds exactly the `m·n`
/// outputs.
pub(crate) fn product_mats_into(a: Mat, b: Mat, layout: Layout, exact: bool, out: &mut [f32]) {
    product_with(a, b, layout, crate::avx2_available(), exact, out);
}

/// What a backward product has to do with its upstream gradient.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GradKind {
    /// Every value is `+0.0` or `-0.0` (or there are none): against a
    /// finite operand every output is `+0.0`, so the product is skipped.
    Zero,
    /// A nonzero magnitude below [`TINY_GRADIENT`]: the exact body.
    Tiny,
    /// Anything else: the f32 body.
    Normal,
}

/// Classifies `g` in one integer pass over its bits: no float arithmetic
/// touches a subnormal.
pub(crate) fn grad_kind(g: &[f32]) -> GradKind {
    // `|x| - 1` wraps a zero to the top of the range, out of both tests.
    let least = g.iter().map(|x| (x.to_bits() & ABS32).wrapping_sub(1)).fold(u32::MAX, u32::min);
    if least == u32::MAX {
        GradKind::Zero
    } else if least < TINY_GRADIENT.to_bits() - 1 {
        GradKind::Tiny
    } else {
        GradKind::Normal
    }
}

/// `(m, k, n)` of the product, checking that the inner dimensions agree.
fn dims(a: Mat, b: Mat, layout: Layout) -> (usize, usize, usize) {
    // The inner dimension `b` brings is the last.
    let (m, k, n, b_k) = match layout {
        Layout::Plain => (a.rows, a.cols, b.cols, b.rows),
        Layout::TransposeA => (a.cols, a.rows, b.cols, b.rows),
        Layout::TransposeB => (a.rows, a.cols, b.rows, b.cols),
    };
    assert_eq!(k, b_k, "matmul {layout:?}: {}x{} with {}x{}", a.rows, a.cols, b.rows, b.cols);
    (m, k, n)
}

fn product_tensor(a: Mat, b: Mat, layout: Layout, avx2: bool, exact: bool, out: &mut Tensor) {
    let (m, _, n) = dims(a, b, layout);
    out.resize_zeroed(m, n);
    product_with(a, b, layout, avx2, exact, out.data_mut());
}

fn product_with(a: Mat, b: Mat, layout: Layout, avx2: bool, exact: bool, out: &mut [f32]) {
    let (m, k, n) = dims(a, b, layout);
    assert_eq!(out.len(), m * n, "matmul {layout:?}: output of {} values", out.len());
    let a_strided = match layout {
        Layout::TransposeA => Strided { data: a.data, rs: 1, cs: m },
        Layout::Plain | Layout::TransposeB => Strided { data: a.data, rs: k, cs: 1 },
    };
    if m == 0 || n == 0 || k == 0 {
        // Empty sums: every output is its `+0.0` seed.
        out.fill(0.0);
        return;
    }
    if exact && exact_fits(a.data, b.data, k) {
        PACK.with_borrow_mut(|pack| {
            WIDE.with_borrow_mut(|(wide_a, wide_b)| {
                let a = widen_strided(&a_strided, wide_a);
                let b = widen_panels(b.data, layout, k, n, pack, wide_b, avx2);
                parallel_rows(m, m * k * n, out, n, |row0, out_rows| {
                    // At most one row is left below the 2-row blocks.
                    run::<f64, MR_EXACT, { 2 * NR }, { 2 * NR }>(&a, &b, row0, k, n, out_rows, avx2);
                });
            });
        });
        return;
    }
    PACK.with_borrow_mut(|pack| {
        let b = Panels::pack(b.data, layout, k, n, pack, avx2);
        parallel_rows(m, m * k * n, out, n, |row0, out_rows| {
            run::<f32, MR, { 4 * NR }, { 2 * NR }>(&a_strided, &b, row0, k, n, out_rows, avx2);
        });
    });
}

/// A read-only matrix addressed as `data[i * rs + p * cs]`.
struct Strided<'a, T> {
    data: &'a [T],
    rs: usize,
    cs: usize,
}

/// `b[k,n]` as column panels of width `NR`: the first `full` panels are
/// read from `main` (row stride `ld`), the rest — at most one — from the
/// zero-padded `fringe` (row stride `NR`).
struct Panels<'a, T> {
    main: &'a [T],
    ld: usize,
    full: usize,
    fringe: &'a [T],
}

impl<'a> Panels<'a, f32> {
    /// Lays out `b` for the microkernel, packing into `pack` only what
    /// cannot be read in place: all of a transposed `b` (padded to whole
    /// panels), or the partial last panel of a plain one.
    fn pack(
        b: &'a [f32],
        layout: Layout,
        k: usize,
        n: usize,
        pack: &'a mut Vec<f32>,
        avx2: bool,
    ) -> Self {
        pack.clear();
        if layout == Layout::TransposeB {
            let ld = n.next_multiple_of(NR);
            pack.resize(k * ld, 0.0);
            transpose_into(b, n, k, pack, ld, avx2);
            let pack: &'a [f32] = pack;
            return Panels { main: pack, ld, full: ld / NR, fringe: &[] };
        }
        let full = n / NR;
        let (j0, nr) = (full * NR, n % NR);
        if nr > 0 {
            pack.resize(k * NR, 0.0);
            for (dst, src) in pack.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
                dst[..nr].copy_from_slice(&src[j0..]);
            }
        }
        let pack: &'a [f32] = pack;
        Panels { main: b, ld: n, full, fringe: pack }
    }
}

/// Writes the transpose of the row-major `rows x cols` matrix `src` into
/// `dst` at row stride `ld` (`dst[c * ld + r] = src[r * cols + c]`),
/// leaving the other values of `dst` as they are. With `avx2`, whole 8×8
/// blocks move through eight registers; the ragged edges move one value at
/// a time. It only moves values, so the bits are the input's.
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32], ld: usize, avx2: bool) {
    assert!(src.len() >= rows * cols && ld >= rows, "transpose bounds");
    assert!(cols == 0 || dst.len() >= (cols - 1) * ld + rows, "transpose bounds");
    let (rows8, cols8) = if avx2 { (rows / 8 * 8, cols / 8 * 8) } else { (0, 0) };
    #[cfg(target_arch = "x86_64")]
    if rows8 > 0 && cols8 > 0 {
        for r in (0..rows8).step_by(8) {
            for c in (0..cols8).step_by(8) {
                // SAFETY: `avx2` is set only when `crate::avx2_available()`
                // found AVX2 (callers pass the probe `product_into` and
                // `product_exact` made), the one precondition of the
                // `#[target_feature]` call. The block reads rows `r..r + 8`,
                // columns `c..c + 8` of `src` with `r + 8 <= rows` and
                // `c + 8 <= cols`, so below `rows * cols <= src.len()`, and
                // writes rows `c..c + 8`, columns `r..r + 8` of `dst`, below
                // `(cols - 1) * ld + rows <= dst.len()`: both asserted above.
                unsafe {
                    transpose8x8(
                        src.as_ptr().add(r * cols + c),
                        cols,
                        dst.as_mut_ptr().add(c * ld + r),
                        ld,
                    );
                }
            }
        }
    }
    for r in 0..rows {
        let done = if r < rows8 { cols8 } else { 0 };
        for c in done..cols {
            dst[c * ld + r] = src[r * cols + c];
        }
    }
}

/// One 8×8 block of [`transpose_into`]: eight row loads, the usual
/// unpack / shuffle / lane-permute network, eight row stores.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose8x8(src: *const f32, src_ld: usize, dst: *mut f32, dst_ld: usize) {
    use std::arch::x86_64::*;
    let r: [__m256; 8] = std::array::from_fn(|i| _mm256_loadu_ps(src.add(i * src_ld)));
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    let rows = [
        _mm256_permute2f128_ps::<0x20>(s0, s4),
        _mm256_permute2f128_ps::<0x20>(s1, s5),
        _mm256_permute2f128_ps::<0x20>(s2, s6),
        _mm256_permute2f128_ps::<0x20>(s3, s7),
        _mm256_permute2f128_ps::<0x31>(s0, s4),
        _mm256_permute2f128_ps::<0x31>(s1, s5),
        _mm256_permute2f128_ps::<0x31>(s2, s6),
        _mm256_permute2f128_ps::<0x31>(s3, s7),
    ];
    for (i, v) in rows.into_iter().enumerate() {
        _mm256_storeu_ps(dst.add(i * dst_ld), v);
    }
}

impl<T> Panels<'_, T> {
    fn count(&self) -> usize {
        self.full + usize::from(!self.fringe.is_empty())
    }

    /// Panel `jp` as `(data, row stride, first column within data)`.
    #[inline(always)]
    fn get(&self, jp: usize) -> (&[T], usize, usize) {
        if jp < self.full {
            (self.main, self.ld, jp * NR)
        } else {
            (self.fringe, NR, 0)
        }
    }
}

/// The accumulator lane of a kernel body: `f32` itself, or an `f64` that
/// holds an f32 value and rounds to f32 after every operation.
trait Lane: Copy + Sync {
    const ZERO: Self;
    /// `acc + a·b` with one f32 rounding after the multiply and one after
    /// the add.
    fn mul_add(acc: Self, a: Self, b: Self) -> Self;
    /// The f32 this lane holds.
    fn narrow(self) -> f32;
}

impl Lane for f32 {
    const ZERO: f32 = 0.0;

    #[inline(always)]
    fn mul_add(acc: f32, a: f32, b: f32) -> f32 {
        acc + a * b
    }

    #[inline(always)]
    fn narrow(self) -> f32 {
        self
    }
}

impl Lane for f64 {
    const ZERO: f64 = 0.0;

    #[inline(always)]
    fn mul_add(acc: f64, a: f64, b: f64) -> f64 {
        round_f32(acc + round_f32(a * b))
    }

    #[inline(always)]
    fn narrow(self) -> f32 {
        narrow(self)
    }
}

/// The f32 sign bit cleared.
const ABS32: u32 = 0x7FFF_FFFF;
/// The f64 exponent field.
const EXP64: u64 = 0x7FF0_0000_0000_0000;
/// 2⁻¹²⁶, the smallest normal f32: the floor of every binade `round_f32`
/// rounds in.
const MIN_NORMAL: f64 = f32::MIN_POSITIVE as f64;
/// Scales a binade `2^e` to its shifter `1.5·2^(e+29)`, whose f64 ulp is
/// the f32 ulp `2^(e-23)` of that binade.
const TO_SHIFTER: f64 = 1.5 * (1u64 << 29) as f64;
/// Added to the bits of a binade `2^e`, makes those of its shifter.
const TO_SHIFTER_BITS: u64 = TO_SHIFTER.to_bits() - 1f64.to_bits();
/// `1.5·2⁻⁹⁷`, the shifter below 2⁻¹²⁶: its f64 ulp is 2⁻¹⁴⁹, so its bits
/// plus `m` are the value `SUBNORMAL_SHIFTER + m·2⁻¹⁴⁹` for `m < 2²³`.
const SUBNORMAL_SHIFTER: f64 = MIN_NORMAL * TO_SHIFTER;
/// The f64 exponent bias minus the f32 one.
const REBIAS: u64 = 1023 - 127;

/// `x` rounded to the nearest f32, ties to even, with gradual underflow,
/// in f64 arithmetic that never goes subnormal. `x` must be finite and
/// below 2¹²⁸ in magnitude.
#[inline(always)]
fn round_f32(x: f64) -> f64 {
    // The shifter of `x`'s binade, built on its bits, floored at the one
    // below 2⁻¹²⁶ (`max` against a constant that is not NaN is one `maxpd`).
    let shifter = f64::from_bits((x.to_bits() & EXP64) + TO_SHIFTER_BITS).max(SUBNORMAL_SHIFTER);
    (x + shifter) - shifter
}

/// `f64::from(x)` for a finite `x`, in integer bit operations plus, for a
/// subnormal, one f64 subtraction of normal values.
fn widen(x: f32) -> f64 {
    let bits = x.to_bits();
    let mag = u64::from(bits & ABS32);
    // A normal f32: the same fraction under the f64 exponent bias.
    let normal = (mag << 29) + (REBIAS << 52);
    // A zero or subnormal f32 is `mag·2⁻¹⁴⁹`. Both forms are computed
    // without touching a subnormal, so the choice can be a select.
    let subnormal =
        (f64::from_bits(SUBNORMAL_SHIFTER.to_bits() + mag) - SUBNORMAL_SHIFTER).to_bits();
    let wide = if mag >= u64::from(f32::MIN_POSITIVE.to_bits()) { normal } else { subnormal };
    f64::from_bits(wide | (u64::from(bits >> 31) << 63))
}

/// The f32 an f64 holds, for `v` on the f32 grid and below 2¹²⁸ in
/// magnitude, by the inverse bit operations of [`widen`].
fn narrow(v: f64) -> f32 {
    let bits = v.to_bits();
    let mag = bits & !(1 << 63);
    let mag32 = if mag >= MIN_NORMAL.to_bits() {
        (mag >> 29) - (REBIAS << 23)
    } else {
        (f64::from_bits(mag) + SUBNORMAL_SHIFTER).to_bits() - SUBNORMAL_SHIFTER.to_bits()
    };
    f32::from_bits(mag32 as u32 | ((bits >> 32) as u32 & !ABS32))
}

/// Whether the exact body can take `a` and `b` with inner dimension `k`:
/// every value finite, and `k·max|a|·max|b| ≤ 2¹²⁰`. Each rounding grows
/// a partial sum by at most a factor `1 + 2⁻²⁴`, so for `k < 2²³` every
/// product and partial sum then stays below 2¹²¹, far from overflow.
fn exact_fits(a: &[f32], b: &[f32], k: usize) -> bool {
    let max_abs = |x: &[f32]| x.iter().map(|v| v.to_bits() & ABS32).max().unwrap_or(0);
    let (a_max, b_max) = (max_abs(a), max_abs(b));
    let inf = f32::INFINITY.to_bits();
    a_max < inf
        && b_max < inf
        && k < 1 << 23
        && k as f64 * widen(f32::from_bits(a_max)) * widen(f32::from_bits(b_max))
            <= (1u128 << 120) as f64
}

/// `a` widened into `wide`, read through the same strides.
fn widen_strided<'a>(a: &Strided<f32>, wide: &'a mut Vec<f64>) -> Strided<'a, f64> {
    wide.clear();
    wide.extend(a.data.iter().map(|&v| widen(v)));
    Strided { data: wide, rs: a.rs, cs: a.cs }
}

/// `b[k,n]` in `layout` widened into `wide` as whole zero-padded panels. A
/// transposed `b` is first transposed into `pack` by [`transpose_into`],
/// so both layouts widen contiguous rows.
fn widen_panels<'a>(
    b: &[f32],
    layout: Layout,
    k: usize,
    n: usize,
    pack: &mut Vec<f32>,
    wide: &'a mut Vec<f64>,
    avx2: bool,
) -> Panels<'a, f64> {
    let ld = n.next_multiple_of(NR);
    let (rows, stride) = if layout == Layout::TransposeB {
        pack.clear();
        pack.resize(k * ld, 0.0);
        transpose_into(b, n, k, pack, ld, avx2);
        (&pack[..], ld)
    } else {
        (b, n)
    };
    wide.clear();
    wide.resize(k * ld, 0.0);
    for (dst, src) in wide.chunks_exact_mut(ld).zip(rows.chunks_exact(stride)) {
        for (d, &v) in dst.iter_mut().zip(&src[..n]) {
            *d = widen(v);
        }
    }
    Panels { main: wide, ld, full: ld / NR, fringe: &[] }
}

/// Computes the output rows from `row0` on into `out` (whole rows of
/// width `n`) on the body of lane `T` with `MR`-row blocks and `W1`- and
/// `W2`-wide tiles for one and two leftover rows.
#[allow(clippy::too_many_arguments)]
fn run<T: Lane, const MR: usize, const W1: usize, const W2: usize>(
    a: &Strided<T>,
    b: &Panels<T>,
    row0: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    avx2: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is true only when `crate::avx2_available()`
        // detected AVX2 on this CPU (`product_into` and `product_exact`
        // are the only callers passing `true`), which is the sole
        // precondition of calling a `#[target_feature(enable = "avx2")]`
        // function. The body is the same safe, bounds-checked code as the
        // portable copy.
        unsafe { body_avx2::<T, MR, W1, W2>(a, b, row0, k, n, out) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = avx2; // only x86-64 has an AVX2 copy
    body::<T, MR, W1, W2>(a, b, row0, k, n, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn body_avx2<T: Lane, const MR: usize, const W1: usize, const W2: usize>(
    a: &Strided<T>,
    b: &Panels<T>,
    row0: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    body::<T, MR, W1, W2>(a, b, row0, k, n, out);
}

/// Panel-major sweep: each `k x NR` panel of `b` stays cache-hot while
/// every `MR`-row block of `a` passes over it. The rows below a whole
/// block then run as one block of 1–3 rows whose tiles span as many
/// panels as keep 8 accumulator registers busy, so a lone row (a decode
/// step) is not bound by add latency.
#[inline(always)]
fn body<T: Lane, const MR: usize, const W1: usize, const W2: usize>(
    a: &Strided<T>,
    b: &Panels<T>,
    row0: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let rows = out.len() / n;
    let blocked = rows / MR * MR;
    for jp in 0..b.count() {
        let (panel, ld, col) = b.get(jp);
        for i in (0..blocked).step_by(MR) {
            store(&tile::<T, MR, NR>(a, row0 + i, panel, ld, col, k), out, i, n, jp * NR);
        }
    }
    let (i0, rest) = (row0 + blocked, &mut out[blocked * n..]);
    match rows - blocked {
        0 => {}
        1 => stripes::<T, 1, W1>(a, b, i0, k, n, rest),
        2 => stripes::<T, 2, W2>(a, b, i0, k, n, rest),
        _ => stripes::<T, 3, NR>(a, b, i0, k, n, rest),
    }
}

/// Rows `i0..i0 + R` (all of `out`) over stripes of `W / NR` panels, one
/// panel at a time where fewer full panels than that remain.
#[inline(always)]
fn stripes<T: Lane, const R: usize, const W: usize>(
    a: &Strided<T>,
    b: &Panels<T>,
    i0: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let mut jp = 0;
    while jp < b.count() {
        let (panel, ld, col) = b.get(jp);
        if jp + W / NR <= b.full {
            store(&tile::<T, R, W>(a, i0, panel, ld, col, k), out, 0, n, jp * NR);
            jp += W / NR;
        } else {
            store(&tile::<T, R, NR>(a, i0, panel, ld, col, k), out, 0, n, jp * NR);
            jp += 1;
        }
    }
}

/// The microkernel: `R x W` outputs of rows `i0..i0 + R` against panel
/// columns `col..col + W`, each accumulated from `+0.0` in ascending `p`.
#[inline(always)]
fn tile<T: Lane, const R: usize, const W: usize>(
    a: &Strided<T>,
    i0: usize,
    panel: &[T],
    ld: usize,
    col: usize,
    k: usize,
) -> [[T; W]; R] {
    let mut acc = [[T::ZERO; W]; R];
    for p in 0..k {
        let b_row: &[T; W] = panel[p * ld + col..][..W].try_into().expect("W-wide slice");
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a.data[(i0 + r) * a.rs + p * a.cs];
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o = T::mul_add(*o, av, bv);
            }
        }
    }
    acc
}

/// Stores a tile's rows at output row `i`, column `j0`, dropping the
/// columns past `n` (the zero-padded lanes of a fringe panel).
#[inline(always)]
fn store<T: Lane, const R: usize, const W: usize>(
    acc: &[[T; W]; R],
    out: &mut [f32],
    i: usize,
    n: usize,
    j0: usize,
) {
    let w = W.min(n - j0);
    for (r, acc_row) in acc.iter().enumerate() {
        for (o, &v) in out[(i + r) * n + j0..][..w].iter_mut().zip(acc_row) {
            *o = v.narrow();
        }
    }
}

fn matmul_threads(rows: usize, work: usize) -> usize {
    if rows < 2 || work < PAR_MIN_WORK {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(rows)
}

/// Runs `f(first_row, out_rows)` over disjoint chunks of whole rows of
/// `out`, in parallel when the work justifies it. Each output row is
/// written by exactly one invocation, so the split cannot change results.
fn parallel_rows(
    m: usize,
    work: usize,
    out: &mut [f32],
    n: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let threads = matmul_threads(m, work);
    if threads <= 1 {
        f(0, out);
        return;
    }
    let chunk_rows = m.div_ceil(threads);
    std::thread::scope(|s| {
        for (ti, out_chunk) in out.chunks_mut(chunk_rows * n).enumerate() {
            let f = &f;
            s.spawn(move || {
                f(ti * chunk_rows, out_chunk);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every f32 whose exponent field is 0 or 1 — both signs, every
    /// mantissa: the zeros, all subnormals and the binade of 2⁻¹²⁶ on
    /// either side of the boundary — widens to the value `f64::from`
    /// gives and narrows back to its own bits; so do the extreme normal
    /// binades.
    #[test]
    fn widen_and_narrow_round_trip_exhaustively_near_zero() {
        let low = 0..2u32 << 23;
        let high = (253u32 << 23)..(255 << 23);
        for mag in low.chain(high) {
            for bits in [mag, mag | 1 << 31] {
                let x = f32::from_bits(bits);
                let wide = widen(x);
                assert_eq!(wide.to_bits(), f64::from(x).to_bits(), "widen {bits:#010x}");
                assert_eq!(narrow(wide).to_bits(), bits, "narrow {bits:#010x}");
            }
        }
    }

    /// `round_f32` against the hardware's f64 → f32 conversion on values
    /// around the subnormal boundary, the ties of the 2⁻¹⁴⁹ grid and
    /// random 53-bit fractions across the f32 exponent range.
    #[test]
    fn round_f32_matches_the_hardware_conversion() {
        let tiny = f64::from(f32::from_bits(1));
        let mut xs: Vec<f64> = (0..1 << 12).map(|j| f64::from(j) * tiny / 2.0).collect();
        xs.extend((0..1 << 12).map(|j| MIN_NORMAL + f64::from(j - (1 << 11)) * tiny / 4.0));
        let mut rng = crate::rng::StdRng::seed_from_u64(11);
        for _ in 0..1 << 16 {
            let e: i32 = rng.gen_range(-150..126);
            xs.push((1.0 + rng.gen::<f64>()) * 2f64.powi(e));
        }
        for x in xs.into_iter().flat_map(|x| [x, -x]) {
            let (got, want) = (round_f32(x), f64::from(x as f32));
            // A product rounding to zero may lose its sign, which no sum
            // from a `+0.0` seed can show (see the module doc).
            if want == 0.0 {
                assert_eq!(got, 0.0, "{x:e}");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "{x:e}");
            }
        }
    }

    /// The AVX2 block transpose moves every value where the scalar loop
    /// does, on ragged shapes around the 8×8 blocks, and leaves the
    /// padding untouched.
    #[test]
    fn vectorised_transpose_matches_the_scalar_loop() {
        let mut rng = crate::rng::StdRng::seed_from_u64(12);
        for rows in [0usize, 1, 7, 8, 9, 16, 25, 48] {
            for cols in [0, 1, 5, 8, 12, 17, 48] {
                let src: Vec<f32> = (0..rows * cols).map(|_| rng.gen::<f32>() - 0.5).collect();
                let ld = rows.next_multiple_of(NR);
                let mut want = vec![f32::NAN; cols * ld];
                let mut got = want.clone();
                transpose_into(&src, rows, cols, &mut want, ld, false);
                transpose_into(&src, rows, cols, &mut got, ld, crate::avx2_available());
                for r in 0..rows {
                    for c in 0..cols {
                        assert_eq!(want[c * ld + r].to_bits(), src[r * cols + c].to_bits());
                    }
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn has_tiny_flags_nonzero_magnitudes_below_the_threshold() {
        let kind = grad_kind;
        assert_eq!(kind(&[]), GradKind::Zero);
        assert_eq!(kind(&[0.0, -0.0]), GradKind::Zero);
        assert_eq!(kind(&[0.0, -0.0, 1.0, TINY_GRADIENT, f32::NAN, f32::INFINITY]), GradKind::Normal);
        assert_eq!(kind(&[f32::NAN, -0.0]), GradKind::Normal);
        assert_eq!(kind(&[1.0, -f32::from_bits(TINY_GRADIENT.to_bits() - 1)]), GradKind::Tiny);
        assert_eq!(kind(&[0.0, f32::from_bits(1)]), GradKind::Tiny);
    }
}
