//! Quantized (i8, per-row scaled) matrices and their integer microkernels.
//!
//! The distilled q2q student decodes through these kernels instead of the
//! f32 register-tiled GEMM in [`crate::gemm`]. The design choices are all
//! in service of two bars: speed (≥2× tokens/s over the f32 KV-cached
//! teacher) and bitwise determinism across runs *and* threads.
//!
//! * **Per-row symmetric scales.** A weight matrix is stored transposed
//!   (`d_out × d_in`) with one `f32` scale per output row:
//!   `w_q[j][i] = round(w[i][j] / scale_j)` clamped to `[-127, 127]`.
//!   Row-major transposed storage makes every inner product a contiguous
//!   `i8 · i8` dot.
//! * **Dequant-free inner loop.** Activations are quantized dynamically
//!   (one scale per input row), so the hot loop is pure integer
//!   multiply-accumulate — `i8 × i8 → i32` — with a single
//!   `acc * scale_x * scale_w + bias` epilogue per output element. No
//!   per-element dequantization, no f32 in the loop at all.
//! * **Determinism for free.** Integer addition is associative, so any
//!   chunking or vectorization produces the same `i32` accumulator
//!   bit-for-bit; the f32 epilogue runs in a fixed per-element order.
//! * **Explicit SIMD with a scalar twin.** On x86-64 with AVX2 the
//!   matvec and attention-score row loops run a `vpmovsxbw` +
//!   `vpmaddwd` kernel (sign-extend both operands to i16, multiply-add
//!   adjacent pairs into i32 lanes) selected by runtime feature
//!   detection; every other target runs the scalar loop. Both compute
//!   the same exact `i32` sum — pair sums of two `127 × 127` products
//!   are nowhere near `i32` range — so the dispatch never changes
//!   results, only speed. The scalar [`dot_i8`] stays the reference the
//!   property tests pin the SIMD path against. The row quantizer
//!   ([`quantize_row_into`]) and the sampling epilogue's [`sum_exp`] have
//!   AVX2 kernels too, each bitwise equal to a scalar twin: the same f32
//!   operations per lane in the same order, with no FMA.

use crate::avx2_available;
use crate::tensor::Tensor;

/// AVX2 row kernels. Everything here computes bit-identical `i32`
/// accumulators to the scalar loops: `vpmaddwd` sums adjacent i16
/// product pairs into i32 lanes and integer addition is associative, so
/// only the summation order differs — which for exact integers is
/// invisible. The f32 epilogues run in the same fixed per-element order
/// as the scalar path.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// One 16-wide i8 · i8 chunk of both operands, sign-extended to i16
    /// and multiply-added into the i32 accumulator lanes.
    ///
    /// # Safety
    /// Requires AVX2; `a` and `b` must be readable for 16 bytes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn madd16(acc: __m256i, a: *const i8, b: *const i8) -> __m256i {
        let wa = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.cast()));
        let wb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.cast()));
        _mm256_add_epi32(acc, _mm256_madd_epi16(wa, wb))
    }

    /// Horizontal sum of the eight i32 lanes.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum(acc: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_extracti128_si256(acc, 1), _mm256_castsi256_si128(acc));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }

    /// Integer dot product over `len` elements — exact, equal to the
    /// scalar loop.
    ///
    /// # Safety
    /// Requires AVX2; both pointers must be readable for `len` bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn dot(a: *const i8, b: *const i8, len: usize) -> i32 {
        let chunks = len / 16;
        let mut acc = _mm256_setzero_si256();
        for c in 0..chunks {
            acc = madd16(acc, a.add(c * 16), b.add(c * 16));
        }
        let mut sum = hsum(acc);
        for i in chunks * 16..len {
            sum += i32::from(*a.add(i)) * i32::from(*b.add(i));
        }
        sum
    }

    /// Four integer dot products at once: `x` against the rows at `w`,
    /// `w + stride`, `w + 2 * stride` and `w + 3 * stride`, each over
    /// `len` elements, as the four i32 lanes — exact, each equal to the
    /// scalar loop. One widened load of `x` feeds all four rows, and one
    /// `vphaddd` tree reduces the four accumulators together instead of
    /// four separate [`hsum`]s.
    ///
    /// # Safety
    /// Requires AVX2; `x` must be readable for `len` bytes and `w` for
    /// `3 * stride + len` bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn dot4(x: *const i8, w: *const i8, stride: usize, len: usize) -> __m128i {
        let chunks = len / 16;
        let mut acc = [_mm256_setzero_si256(); 4];
        for c in 0..chunks {
            let wx = _mm256_cvtepi8_epi16(_mm_loadu_si128(x.add(c * 16).cast()));
            for (r, a) in acc.iter_mut().enumerate() {
                let ww = _mm256_cvtepi8_epi16(_mm_loadu_si128(w.add(r * stride + c * 16).cast()));
                *a = _mm256_add_epi32(*a, _mm256_madd_epi16(wx, ww));
            }
        }
        // Lane r of both 128-bit halves holds row r's partial sums.
        let s = _mm256_hadd_epi32(
            _mm256_hadd_epi32(acc[0], acc[1]),
            _mm256_hadd_epi32(acc[2], acc[3]),
        );
        let mut tail = [0i32; 4];
        for i in chunks * 16..len {
            for (r, t) in tail.iter_mut().enumerate() {
                *t += i32::from(*x.add(i)) * i32::from(*w.add(r * stride + i));
            }
        }
        let s = _mm_add_epi32(_mm256_castsi256_si128(s), _mm256_extracti128_si256(s, 1));
        _mm_add_epi32(s, _mm_loadu_si128(tail.as_ptr().cast()))
    }

    /// The full matvec row loop, entirely inside the `target_feature`
    /// region so nothing is paid per row but the kernel itself: four rows
    /// at a time through [`dot4`] with the epilogue in four f32 lanes, the
    /// last `rows % 4` through [`dot`] with a scalar epilogue. Each lane
    /// computes `acc as f32 * x_scale * scale_j + bias_j` with the same
    /// operations in the same order as the scalar path, so the bits match.
    ///
    /// # Safety
    /// Requires AVX2; `data` must hold `out.len()` rows of `cols` bytes
    /// and `xq` at least `cols` elements; `scales`/`bias` match
    /// `out.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matvec(
        data: &[i8],
        cols: usize,
        xq: &[i8],
        x_scale: f32,
        scales: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
    ) {
        let blocked = out.len() / 4 * 4;
        let xs = _mm_set1_ps(x_scale);
        for j in (0..blocked).step_by(4) {
            let acc = dot4(xq.as_ptr(), data.as_ptr().add(j * cols), cols, cols);
            let y = _mm_mul_ps(_mm_cvtepi32_ps(acc), xs);
            let mut y = _mm_mul_ps(y, _mm_loadu_ps(scales.as_ptr().add(j)));
            if let Some(b) = bias {
                y = _mm_add_ps(y, _mm_loadu_ps(b.as_ptr().add(j)));
            }
            _mm_storeu_ps(out.as_mut_ptr().add(j), y);
        }
        for (j, slot) in out.iter_mut().enumerate().skip(blocked) {
            let acc = dot(xq.as_ptr(), data.as_ptr().add(j * cols), cols);
            let mut y = acc as f32 * x_scale * scales[j];
            if let Some(b) = bias {
                y += b[j];
            }
            *slot = y;
        }
    }

    /// The attention-score loop against cached quantized keys.
    ///
    /// # Safety
    /// Requires AVX2; `data` must hold `scales.len()` rows of `cols`
    /// bytes and `q` at least `cols` elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scores(
        data: &[i8],
        cols: usize,
        q: &[i8],
        q_scale: f32,
        scales: &[f32],
        factor: f32,
        out: &mut Vec<f32>,
    ) {
        for (j, &ks) in scales.iter().enumerate() {
            let acc = dot(q.as_ptr(), data.as_ptr().add(j * cols), cols);
            out.push(acc as f32 * q_scale * ks * factor);
        }
    }

    /// `p.round().clamp(-127.0, 127.0) as i8` in eight lanes, as i32:
    /// round half away from zero is `trunc(p)` plus `±1` where the
    /// (exact) fraction `|p - trunc(p)|` is at least one half; `vminps` /
    /// `vmaxps` clamp, and a NaN lane is zeroed before the truncating
    /// convert (`NaN as i8` is 0). ±inf truncate to themselves with a NaN
    /// fraction, so they clamp to ±127 unbumped.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn round_clamp8(p: __m256) -> __m256i {
        let sign = _mm256_set1_ps(-0.0);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(p);
        let frac = _mm256_andnot_ps(sign, _mm256_sub_ps(p, t));
        let half_up = _mm256_cmp_ps::<_CMP_GE_OQ>(frac, _mm256_set1_ps(0.5));
        let unit = _mm256_or_ps(_mm256_and_ps(p, sign), _mm256_set1_ps(1.0));
        let r = _mm256_add_ps(t, _mm256_and_ps(half_up, unit));
        let c = _mm256_min_ps(_mm256_max_ps(r, _mm256_set1_ps(-127.0)), _mm256_set1_ps(127.0));
        let c = _mm256_and_ps(c, _mm256_cmp_ps::<_CMP_ORD_Q>(p, p));
        _mm256_cvttps_epi32(c)
    }

    /// `out[i] = (x[i] * inv).round().clamp(-127.0, 127.0) as i8`, eight
    /// lanes at a time through [`round_clamp8`], the ragged tail through
    /// the scalar expression itself.
    ///
    /// # Safety
    /// Requires AVX2; `out.len() == x.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_round_clamp(x: &[f32], inv: f32, out: &mut [i8]) {
        let chunks = x.len() / 8;
        let vinv = _mm256_set1_ps(inv);
        for c in 0..chunks {
            let q = round_clamp8(_mm256_mul_ps(_mm256_loadu_ps(x.as_ptr().add(c * 8)), vinv));
            // Codes are within ±127, so neither saturating pack clips.
            let w = _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            _mm_storel_epi64(out.as_mut_ptr().add(c * 8).cast(), _mm_packs_epi16(w, w));
        }
        for (o, &v) in out[chunks * 8..].iter_mut().zip(&x[chunks * 8..]) {
            *o = (v * inv).round().clamp(-127.0, 127.0) as i8;
        }
    }

    /// The row quantizer, bitwise equal to [`super::quantize_row_scalar`]:
    /// the max-abs runs as `vmaxps(|v|, m)` — `vmaxps` returns its second
    /// operand when either is NaN, so a NaN entry leaves the running
    /// maximum untouched exactly as `f32::max` skips it — and the lanes
    /// reduce by `f32::max`, order-free on non-NaN non-negative values.
    ///
    /// # Safety
    /// Requires AVX2; `out.len() == x.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_row(x: &[f32], out: &mut [i8]) -> f32 {
        let chunks = x.len() / 8;
        let abs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let mut m = _mm256_setzero_ps();
        for c in 0..chunks {
            let v = _mm256_loadu_ps(x.as_ptr().add(c * 8));
            m = _mm256_max_ps(_mm256_and_ps(v, abs), m);
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), m);
        let max_abs =
            x[chunks * 8..].iter().chain(&lanes).fold(0.0f32, |m, &v| m.max(v.abs()));
        if max_abs == 0.0 {
            out.fill(0);
            return 0.0;
        }
        scale_round_clamp(x, 127.0 / max_abs, out);
        max_abs / 127.0
    }

    /// [`super::exp_term`] in eight lanes, the same operations in the same
    /// order (no FMA), with masked lanes forced to `+0.0`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn exp_terms8(v: __m256, max: __m256) -> __m256 {
        use super::{EXP_FLOOR, EXP_POLY, LN2_HI, LN2_LO, LOG2E, ROUND_MAGIC};
        let x = _mm256_sub_ps(v, max);
        let abs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let inf = _mm256_set1_ps(f32::INFINITY);
        let finite = _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(v, abs), inf);
        let above = _mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_set1_ps(EXP_FLOOR));
        let keep = _mm256_and_ps(finite, above);
        let magic = _mm256_set1_ps(ROUND_MAGIC);
        let n = _mm256_sub_ps(_mm256_add_ps(_mm256_mul_ps(x, _mm256_set1_ps(LOG2E)), magic), magic);
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI))),
            _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)),
        );
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
        }
        let p = _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r);
        let p = _mm256_add_ps(p, _mm256_set1_ps(1.0));
        let biased = _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
        let pow2 = _mm256_slli_epi32::<23>(biased);
        _mm256_and_ps(keep, _mm256_mul_ps(p, _mm256_castsi256_ps(pow2)))
    }

    /// [`super::sum_exp_scalar`] in eight lanes: lane `l` accumulates
    /// entries `l, l + 8, …`, the ragged tail is padded with `-inf`
    /// (contributing `+0.0`, which leaves a non-negative lane unchanged),
    /// and the lanes reduce in the scalar twin's fixed tree.
    ///
    /// # Safety
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_exp(xs: &[f32], max: f32) -> f32 {
        let chunks = xs.len() / 8;
        let vmax = _mm256_set1_ps(max);
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            acc = _mm256_add_ps(acc, exp_terms8(_mm256_loadu_ps(xs.as_ptr().add(c * 8)), vmax));
        }
        let mut tail = [f32::NEG_INFINITY; 8];
        tail[..xs.len() - chunks * 8].copy_from_slice(&xs[chunks * 8..]);
        acc = _mm256_add_ps(acc, exp_terms8(_mm256_loadu_ps(tail.as_ptr()), vmax));
        // [l0+l4, l1+l5, l2+l6, l3+l7] → [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7)] → sum.
        let s = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<0b01>(s, s));
        _mm_cvtss_f32(s)
    }
}

/// Quantizes one f32 row symmetrically to i8 into `out` (same length):
/// `scale = max|x| / 127`, `q = round(x / scale)` (half away from zero)
/// clamped to `[-127, 127]` (the -128 slot is unused so negation is
/// always exact). NaN entries are skipped by the max and quantize to 0;
/// an all-zero row gets scale 0 and an all-zero payload. Returns the
/// scale. Dispatches to the AVX2 row kernel when available — bitwise
/// identical to the scalar twin by construction.
pub fn quantize_row_into(x: &[f32], out: &mut [i8]) -> f32 {
    assert_eq!(out.len(), x.len(), "quantized row width mismatch");
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 verified at runtime; the assert pins `out`'s length.
        return unsafe { avx2::quantize_row(x, out) };
    }
    quantize_row_scalar(x, out)
}

/// The scalar twin of the AVX2 row quantizer — the reference the
/// dispatch is pinned against.
fn quantize_row_scalar(x: &[f32], out: &mut [i8]) -> f32 {
    let max_abs = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        out.fill(0);
        return 0.0;
    }
    let inv = 127.0 / max_abs;
    for (o, &v) in out.iter_mut().zip(x) {
        *o = (v * inv).round().clamp(-127.0, 127.0) as i8;
    }
    max_abs / 127.0
}

/// [`quantize_row_into`] returning a fresh buffer.
pub fn quantize_row(x: &[f32]) -> (Vec<i8>, f32) {
    let mut q = vec![0; x.len()];
    let scale = quantize_row_into(x, &mut q);
    (q, scale)
}

/// Entries more than this far below the maximum contribute 0 to
/// [`sum_exp`] (`e^-87` is below 2^-125; it keeps `2^n` a normal float).
const EXP_FLOOR: f32 = -87.0;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5 * 2^23`: adding and subtracting it rounds to the nearest integer.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` split Cody–Waite style: `LN2_HI` has 9 significant bits, so
/// `n * LN2_HI` is exact for every `n` [`EXP_FLOOR`] admits.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Minimax coefficients of `(e^r - 1 - r) / r^2` on `|r| <= ln2 / 2`
/// (Cephes `expf`), highest degree first.
const EXP_POLY: [f32; 6] =
    [1.987_569_1e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_6e-1, 0.5];

/// `e^(v - max)` for one entry, 0 for a non-finite `v` or one below
/// [`EXP_FLOOR`]: range reduction `x = n ln2 + r`, a degree-7 polynomial
/// in `r`, and `2^n` built in the exponent bits. Plain multiplies and
/// adds in a fixed order — no FMA — so the AVX2 lanes reproduce it bit
/// for bit.
fn exp_term(v: f32, max: f32) -> f32 {
    let x = v - max;
    if !(v.is_finite() && x >= EXP_FLOOR) {
        return 0.0;
    }
    let n = (x * LOG2E + ROUND_MAGIC) - ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let p = EXP_POLY[1..].iter().fold(EXP_POLY[0], |p, &c| p * r + c);
    let p = p * (r * r) + r + 1.0;
    p * f32::from_bits(((n as i32 + 127) as u32) << 23)
}

/// `Σ e^(x - max)` over the finite entries of `xs` — the log-sum-exp
/// body of the student's sampling epilogue (`lse = max + ln(sum_exp)`).
/// `max` must be at least every finite entry (the row maximum).
/// Non-finite entries contribute 0; each term is within a few ulps of
/// `exp`. The sum runs in a fixed 8-lane order, and the AVX2 path is
/// bitwise equal to the scalar twin, so the result is the same on every
/// machine.
pub fn sum_exp(xs: &[f32], max: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 verified at runtime; the kernel reads only `xs`.
        return unsafe { avx2::sum_exp(xs, max) };
    }
    sum_exp_scalar(xs, max)
}

/// The scalar twin of the AVX2 [`sum_exp`]: lane `l` accumulates entries
/// `l, l + 8, …` in order, then the lanes reduce as
/// `((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))`.
fn sum_exp_scalar(xs: &[f32], max: f32) -> f32 {
    let mut l = [0.0f32; 8];
    let chunks = xs.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &v) in l.iter_mut().zip(chunk) {
            *lane += exp_term(v, max);
        }
    }
    for (lane, &v) in l.iter_mut().zip(tail) {
        *lane += exp_term(v, max);
    }
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

/// Integer dot product, `i8 × i8 → i32`, exact (no saturation: the
/// largest magnitude term is `127 × 127` and an i32 holds > 130k of
/// them). This is the scalar reference the AVX2 kernels are pinned
/// against: four independent accumulator lanes over 16-wide chunks —
/// integer addition is associative, so the lane split never changes the
/// result.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0i32; 4];
    let chunks = a.len() / 16;
    for c in 0..chunks {
        let (pa, pb) = (&a[c * 16..c * 16 + 16], &b[c * 16..c * 16 + 16]);
        for l in 0..4 {
            let mut s = 0i32;
            for m in 0..4 {
                s += i32::from(pa[l * 4 + m]) * i32::from(pb[l * 4 + m]);
            }
            lanes[l] += s;
        }
    }
    let mut tail = 0i32;
    for i in chunks * 16..a.len() {
        tail += i32::from(a[i]) * i32::from(b[i]);
    }
    lanes[0] + lanes[1] + lanes[2] + lanes[3] + tail
}

/// An i8 matrix with one f32 scale per row. For a linear layer the rows
/// are *output* features (the f32 weight transposed), so the matvec
/// inner loop reads both operands contiguously.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes each row of `t` independently.
    pub fn from_rows(t: &Tensor) -> Self {
        let (rows, cols) = t.shape();
        let mut data = vec![0; rows * cols];
        let scales = (0..rows)
            .map(|r| quantize_row_into(t.row_slice(r), &mut data[r * cols..(r + 1) * cols]))
            .collect();
        QuantizedMatrix { rows, cols, data, scales }
    }

    /// Quantizes a linear-layer weight stored `(d_in, d_out)` into the
    /// transposed `(d_out, d_in)` layout: row `j` holds output feature
    /// `j`'s weights, scaled per output feature.
    pub fn from_weight(w: &Tensor) -> Self {
        let (d_in, d_out) = w.shape();
        let mut col = vec![0.0f32; d_in];
        let mut data = vec![0; d_in * d_out];
        let mut scales = Vec::with_capacity(d_out);
        for j in 0..d_out {
            for (i, slot) in col.iter_mut().enumerate() {
                *slot = w.get(i, j);
            }
            scales.push(quantize_row_into(&col, &mut data[j * d_in..(j + 1) * d_in]));
        }
        QuantizedMatrix { rows: d_out, cols: d_in, data, scales }
    }

    /// Rebuilds a matrix from its serialized parts (see
    /// [`crate::serialize`]'s v3 records). Rejects mismatched lengths,
    /// non-finite or negative scales, and `-128` payload bytes (the
    /// quantizer's codes are `[-127, 127]`).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        data: Vec<i8>,
        scales: Vec<f32>,
    ) -> Result<Self, String> {
        let n = rows.checked_mul(cols).ok_or("rows * cols overflows")?;
        if data.len() != n {
            return Err(format!("payload length {} != {rows}x{cols}", data.len()));
        }
        if scales.len() != rows {
            return Err(format!("{} scales for {rows} rows", scales.len()));
        }
        if let Some(s) = scales.iter().find(|s| !s.is_finite() || **s < 0.0) {
            return Err(format!("invalid row scale {s}"));
        }
        if let Some(i) = data.iter().position(|&q| q == i8::MIN) {
            return Err(format!("payload byte {i} is -128, outside [-127, 127]"));
        }
        Ok(QuantizedMatrix { rows, cols, data, scales })
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw i8 payload, row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// Per-row scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The f32 matrix this quantization represents (testing / error
    /// analysis; never on the serving path).
    pub fn dequantize(&self) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let s = self.scales[r];
            for (o, &q) in out.row_slice_mut(r).iter_mut().zip(self.row(r)) {
                *o = f32::from(q) * s;
            }
        }
        out
    }

    /// `y = q(x) · Wᵀ + bias` for one activation row already quantized
    /// to `(xq, x_scale)`. The inner loop is integer-only; each output
    /// element pays one f32 multiply-add epilogue. Dispatches to the
    /// AVX2 row kernel when available — bit-identical by construction.
    pub fn matvec_quantized(&self, xq: &[i8], x_scale: f32, bias: Option<&[f32]>, out: &mut [f32]) {
        assert_eq!(xq.len(), self.cols, "input width mismatch");
        assert_eq!(out.len(), self.rows, "output width mismatch");
        if let Some(b) = bias {
            assert_eq!(b.len(), self.rows, "bias width mismatch");
        }
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: AVX2 verified at runtime; the asserts above pin
            // every slice length the kernel reads.
            unsafe {
                avx2::matvec(&self.data, self.cols, xq, x_scale, &self.scales, bias, out);
            }
            return;
        }
        for (j, slot) in out.iter_mut().enumerate() {
            let acc = dot_i8(xq, self.row(j));
            let mut y = acc as f32 * x_scale * self.scales[j];
            if let Some(b) = bias {
                y += b[j];
            }
            *slot = y;
        }
    }

    /// `Y = q(X) · Wᵀ + bias` over all rows of `x`, quantizing each
    /// activation row dynamically, into caller-owned buffers: `out` is
    /// reshaped to `x.rows() x self.rows()` and `xq` holds each quantized
    /// activation row, both reusing their allocations — the student's
    /// encoder and cross-attention projections run through this
    /// allocation-free once warm. Each output row is self-contained and
    /// its inner accumulation is integer.
    pub fn matmul_into(
        &self,
        x: &Tensor,
        bias: Option<&[f32]>,
        out: &mut Tensor,
        xq: &mut Vec<i8>,
    ) {
        assert_eq!(x.cols(), self.cols, "input width mismatch");
        out.resize_zeroed(x.rows(), self.rows);
        xq.resize(self.cols, 0);
        for (r, chunk) in out.data_mut().chunks_mut(self.rows).enumerate() {
            let s = quantize_row_into(x.row_slice(r), xq);
            self.matvec_quantized(xq, s, bias, chunk);
        }
    }
}

/// A growable list of quantized rows — the student decoder's attention
/// key cache. Keys are quantized once when appended; every subsequent
/// attention score against them is an integer dot.
#[derive(Debug, Default)]
pub struct QuantizedRows {
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

/// `clone_from` reuses both buffers, so re-forking a decode cache into a
/// warm one allocates nothing.
impl Clone for QuantizedRows {
    fn clone(&self) -> Self {
        QuantizedRows { cols: self.cols, data: self.data.clone(), scales: self.scales.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.cols = source.cols;
        self.data.clone_from(&source.data);
        self.scales.clone_from(&source.scales);
    }
}

impl QuantizedRows {
    pub fn new(cols: usize) -> Self {
        QuantizedRows::with_capacity(cols, 0)
    }

    /// An empty list with room for `rows` rows before reallocating.
    pub fn with_capacity(cols: usize, rows: usize) -> Self {
        let (data, scales) = (Vec::with_capacity(rows * cols), Vec::with_capacity(rows));
        QuantizedRows { cols, data, scales }
    }

    /// Drops every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.data.clear();
        self.scales.clear();
    }

    /// Quantizes each row of `t` (e.g. projected cross-attention keys).
    pub fn from_tensor(t: &Tensor) -> Self {
        let mut rows = QuantizedRows::new(t.cols());
        for r in 0..t.rows() {
            rows.push_row(t.row_slice(r));
        }
        rows
    }

    pub fn len(&self) -> usize {
        self.scales.len()
    }

    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Quantizes `row` straight into the payload's new tail.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        let start = self.data.len();
        self.data.resize(start + self.cols, 0);
        let s = quantize_row_into(row, &mut self.data[start..]);
        self.scales.push(s);
    }

    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Attention scores of one quantized query against every cached key:
    /// `out[j] = (q · k_j) * q_scale * k_scale_j * factor`, ascending `j`
    /// (fixed order → deterministic f32 epilogue).
    pub fn scores_into(&self, q: &[i8], q_scale: f32, factor: f32, out: &mut Vec<f32>) {
        assert_eq!(q.len(), self.cols, "query width mismatch");
        out.clear();
        out.reserve(self.len());
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: AVX2 verified at runtime; the assert above pins
            // the query width, `data` holds `scales.len()` rows.
            unsafe {
                avx2::scores(&self.data, self.cols, q, q_scale, &self.scales, factor, out);
            }
            return;
        }
        for j in 0..self.len() {
            let acc = dot_i8(q, self.row(j));
            out.push(acc as f32 * q_scale * self.scales[j] * factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn quantize_row_bounds_error_by_half_step() {
        let x = [0.9f32, -0.4, 0.003, -1.2, 0.0];
        let (q, s) = quantize_row(&x);
        // Symmetric round-to-nearest: |x - q*s| <= scale/2 per element.
        for (&orig, &qi) in x.iter().zip(&q) {
            assert!((orig - f32::from(qi) * s).abs() <= s / 2.0 + 1e-7);
        }
    }

    #[test]
    fn zero_row_quantizes_to_zero_scale_and_payload() {
        let (q, s) = quantize_row(&[0.0, 0.0, -0.0]);
        assert_eq!(s, 0.0);
        assert!(q.iter().all(|&v| v == 0));
    }

    #[test]
    fn dot_i8_matches_naive_for_all_lengths() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [0usize, 1, 15, 16, 17, 33, 64, 100] {
            let a: Vec<i8> = (0..len).map(|_| (rng.gen::<f32>() * 254.0 - 127.0) as i8).collect();
            let b: Vec<i8> = (0..len).map(|_| (rng.gen::<f32>() * 254.0 - 127.0) as i8).collect();
            let naive: i32 = a.iter().zip(&b).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
            assert_eq!(dot_i8(&a, &b), naive, "len {len}");
        }
    }

    #[test]
    fn from_weight_is_transposed_from_rows() {
        let w = random_tensor(5, 3, 7);
        let qt = QuantizedMatrix::from_weight(&w);
        assert_eq!((qt.rows(), qt.cols()), (3, 5));
        let deq = qt.dequantize();
        for i in 0..5 {
            for j in 0..3 {
                assert!((deq.get(j, i) - w.get(i, j)).abs() <= qt.scales()[j] / 2.0 + 1e-7);
            }
        }
    }

    /// [`QuantizedMatrix::matmul_into`] into fresh buffers.
    fn quant_matmul(q: &QuantizedMatrix, x: &Tensor, bias: Option<&[f32]>) -> Tensor {
        let mut out = Tensor::default();
        q.matmul_into(x, bias, &mut out, &mut Vec::new());
        out
    }

    #[test]
    fn quantized_matmul_tracks_f32_matmul() {
        let x = random_tensor(4, 32, 11);
        let w = random_tensor(32, 16, 13);
        let exact = x.matmul(&w);
        let q = QuantizedMatrix::from_weight(&w);
        let approx = quant_matmul(&q, &x, None);
        assert_eq!(approx.shape(), exact.shape());
        for r in 0..4 {
            for c in 0..16 {
                let err = (approx.get(r, c) - exact.get(r, c)).abs();
                // Two quantizations of ~1%-step inputs over 32 terms.
                assert!(err < 0.05, "({r},{c}): {} vs {}", approx.get(r, c), exact.get(r, c));
            }
        }
    }

    #[test]
    fn matmul_bias_epilogue_adds_bias() {
        let x = random_tensor(2, 8, 17);
        let w = random_tensor(8, 4, 19);
        let bias = [1.0f32, -2.0, 0.5, 0.0];
        let q = QuantizedMatrix::from_weight(&w);
        let plain = quant_matmul(&q, &x, None);
        let biased = quant_matmul(&q, &x, Some(&bias));
        for r in 0..2 {
            for (c, &b) in bias.iter().enumerate() {
                assert_eq!(biased.get(r, c), plain.get(r, c) + b);
            }
        }
    }

    #[test]
    fn simd_dispatch_is_bitwise_identical_to_scalar_reference() {
        // Whatever kernel matvec/scores dispatch to on this machine, the
        // result must equal the scalar dot_i8 + fixed-order epilogue
        // exactly — aligned widths, ragged tails, and sub-chunk widths.
        for cols in [8usize, 16, 31, 32, 48, 100] {
            let x = random_tensor(1, cols, 1000 + cols as u64);
            let (xq, xs) = quantize_row(x.row_slice(0));
            // Row counts around the four-row blocks of the AVX2 matvec.
            for rows in [1usize, 3, 4, 20, 23] {
                let w = random_tensor(cols, rows, cols as u64);
                let q = QuantizedMatrix::from_weight(&w);
                let bias: Vec<f32> = (0..rows).map(|i| i as f32 * 0.25 - 2.0).collect();
                let mut out = vec![0.0f32; rows];
                q.matvec_quantized(&xq, xs, Some(&bias), &mut out);
                for (j, &got) in out.iter().enumerate() {
                    let want = dot_i8(&xq, q.row(j)) as f32 * xs * q.scales()[j] + bias[j];
                    assert_eq!(got.to_bits(), want.to_bits(), "matvec {rows}x{cols}, row {j}");
                }
                q.matvec_quantized(&xq, xs, None, &mut out);
                for (j, &got) in out.iter().enumerate() {
                    let want = dot_i8(&xq, q.row(j)) as f32 * xs * q.scales()[j];
                    assert_eq!(got.to_bits(), want.to_bits(), "no-bias {rows}x{cols}, row {j}");
                }
            }

            let keys = QuantizedRows::from_tensor(&random_tensor(9, cols, 7 + cols as u64));
            let mut scores = Vec::new();
            keys.scores_into(&xq, xs, 0.125, &mut scores);
            for (j, &got) in scores.iter().enumerate() {
                let want = dot_i8(&xq, keys.row(j)) as f32 * xs * keys.scale(j) * 0.125;
                assert_eq!(got.to_bits(), want.to_bits(), "scores cols {cols}, row {j}");
            }

            let row = random_tensor(1, cols, 50 + cols as u64);
            assert_quantizer_matches_scalar(row.row_slice(0));
            let logits: Vec<f32> = row.row_slice(0).iter().map(|v| v * 12.0).collect();
            let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(sum_exp(&logits, max).to_bits(), sum_exp_scalar(&logits, max).to_bits());
        }
    }

    /// The dispatching row quantizer (AVX2 where available) against its
    /// scalar twin: scale and payload bit for bit.
    fn assert_quantizer_matches_scalar(x: &[f32]) {
        let (mut got, mut want) = (vec![0i8; x.len()], vec![0i8; x.len()]);
        let got_scale = quantize_row_into(x, &mut got);
        let want_scale = quantize_row_scalar(x, &mut want);
        assert_eq!((got_scale.to_bits(), &got), (want_scale.to_bits(), &want), "row {x:?}");
    }

    /// Values the quantizer's edge cases hinge on: signed zeros,
    /// subnormals (as entries and as the row maximum), the smallest
    /// normal, exact halves, infinities and NaN.
    const SPECIALS: [f32; 12] = [
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        0.5,
        -2.5,
        63.5,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::MAX,
    ];

    #[test]
    fn row_quantizer_matches_scalar_twin_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        for width in 1..=100usize {
            assert_quantizer_matches_scalar(&vec![0.0; width]);
            assert_quantizer_matches_scalar(&vec![-0.0; width]);
            let random: Vec<f32> = (0..width).map(|_| rng.gen::<f32>() * 8.0 - 4.0).collect();
            assert_quantizer_matches_scalar(&random);
            // Random rows salted with specials: each special alone in a
            // small-valued row, and rows drawn wholly from the palette.
            for &special in &SPECIALS {
                let mut row: Vec<f32> = (0..width).map(|_| rng.gen::<f32>() * 1e-3).collect();
                row[rng.gen_range(0..width)] = special;
                assert_quantizer_matches_scalar(&row);
            }
            let palette: Vec<f32> =
                (0..width).map(|_| SPECIALS[rng.gen_range(0..SPECIALS.len())]).collect();
            assert_quantizer_matches_scalar(&palette);
            let subnormal: Vec<f32> = (0..width)
                .map(|i| f32::from_bits(i as u32 * 37 + 1) * if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect();
            assert_quantizer_matches_scalar(&subnormal);
            // Max-abs 127 makes the scale exactly 1, so these exact halves
            // reach the rounding step as ties (2.5 must round to 3, not 2).
            let halves: Vec<f32> =
                (0..width).map(|i| if i == 0 { -127.0 } else { i as f32 - 50.5 }).collect();
            assert_quantizer_matches_scalar(&halves);
        }
    }

    /// Every f32 bit pattern through the AVX2 per-element core (scaled by
    /// 1.0, which is exact for every non-NaN input and keeps NaN NaN)
    /// against `round().clamp(-127, 127) as i8`. Release-only: run with
    /// `cargo test --release -p qrw-tensor --lib -- --ignored`.
    #[test]
    #[ignore = "walks all 2^32 f32 bit patterns; run in release with --ignored"]
    fn round_clamp_core_matches_scalar_on_every_f32() {
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            let mut x = vec![0.0f32; 1 << 16];
            let mut got = vec![0i8; 1 << 16];
            for hi in 0..1u32 << 16 {
                for (lo, v) in x.iter_mut().enumerate() {
                    *v = f32::from_bits(hi << 16 | lo as u32);
                }
                // SAFETY: AVX2 verified above; `got` and `x` have equal lengths.
                unsafe { avx2::scale_round_clamp(&x, 1.0, &mut got) };
                for (&v, &g) in x.iter().zip(&got) {
                    let want = v.round().clamp(-127.0, 127.0) as i8;
                    assert_eq!(g, want, "bits {:#010x}", v.to_bits());
                }
            }
        }
    }

    #[test]
    fn sum_exp_matches_scalar_twin_bitwise() {
        let mut rng = StdRng::seed_from_u64(43);
        for width in 0..=100usize {
            let mut row: Vec<f32> = (0..width).map(|_| rng.gen::<f32>() * 30.0 - 20.0).collect();
            if width > 2 {
                for &special in &SPECIALS[..4] {
                    row[rng.gen_range(0..width)] = special;
                }
                row[rng.gen_range(0..width)] = f32::NAN;
                row[rng.gen_range(0..width)] = f32::NEG_INFINITY;
                row[rng.gen_range(0..width)] = f32::INFINITY;
                row[rng.gen_range(0..width)] = -150.0;
            }
            let max =
                row.iter().copied().filter(|v| v.is_finite()).fold(f32::NEG_INFINITY, f32::max);
            let (got, want) = (sum_exp(&row, max), sum_exp_scalar(&row, max));
            assert_eq!(got.to_bits(), want.to_bits(), "{row:?}");
        }
    }

    /// Each term tracks f64 `exp` to a few ulps over the whole range the
    /// kernel evaluates, and a row sum tracks the f64 sum.
    #[test]
    fn sum_exp_tracks_f64_exp() {
        let steps = 87 << 12;
        let mut worst = 0.0f64;
        for i in 0..=steps {
            let x = -87.0 + i as f32 / 4096.0;
            let want = f64::from(x).exp();
            let got = f64::from(sum_exp(&[x], 0.0));
            worst = worst.max(((got - want) / want).abs());
        }
        assert!(worst < 3.0 * f64::from(f32::EPSILON), "worst relative error {worst:e}");

        let row: Vec<f32> =
            random_tensor(1, 499, 47).row_slice(0).iter().map(|v| v * 15.0).collect();
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let want: f64 = row.iter().map(|&v| f64::from(v - max).exp()).sum();
        let got = f64::from(sum_exp(&row, max));
        assert!(((got - want) / want).abs() < 1e-6, "{got} vs {want}");
        // Non-finite entries and entries below the floor contribute 0.
        assert_eq!(sum_exp(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -100.0], 0.0), 0.0);
        assert_eq!(sum_exp(&[], 0.0), 0.0);
        assert_eq!(sum_exp(&[0.0, f32::NAN], 0.0), 1.0);
    }

    #[test]
    fn from_parts_validates() {
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0; 4], vec![1.0, 1.0]).is_ok());
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0; 3], vec![1.0, 1.0]).is_err());
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0; 4], vec![1.0]).is_err());
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0; 4], vec![1.0, f32::NAN]).is_err());
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0; 4], vec![1.0, -1.0]).is_err());
        assert!(QuantizedMatrix::from_parts(usize::MAX, 2, vec![], vec![]).is_err());
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0, 127, -127, 1], vec![1.0, 1.0]).is_ok());
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0, 1, -128, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn quantized_rows_scores_match_manual_dots() {
        let k = random_tensor(5, 8, 31);
        let rows = QuantizedRows::from_tensor(&k);
        assert_eq!(rows.len(), 5);
        let (q, qs) = quantize_row(random_tensor(1, 8, 37).row_slice(0));
        let mut scores = Vec::new();
        rows.scores_into(&q, qs, 0.5, &mut scores);
        for (j, &got) in scores.iter().enumerate() {
            let expect = dot_i8(&q, rows.row(j)) as f32 * qs * rows.scale(j) * 0.5;
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn saturation_clamps_to_127_not_128() {
        // A row with one dominant value and a tiny opposite outlier:
        // the rounded magnitude of the dominant entry is exactly 127 and
        // nothing ever maps to -128 (negation stays exact).
        let (q, s) = quantize_row(&[10.0, -10.0, 1e-9]);
        assert_eq!(q[0], 127);
        assert_eq!(q[1], -127);
        assert!(s > 0.0);
        let extremes = [f32::MAX, -f32::MAX];
        let (q2, _) = quantize_row(&extremes);
        assert_eq!(q2, vec![127, -127]);
    }
}
