//! Quantized (i8, per-row scaled) matrices and their integer microkernels.
//!
//! The distilled q2q student decodes through these kernels instead of the
//! f32 register-tiled GEMM in [`crate::gemm`]. The design choices are all
//! in service of two bars: speed (≥2× tokens/s over the f32 KV-cached
//! teacher) and bitwise determinism across runs *and* thread counts.
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
//!   chunking, vectorization, or row split across threads produces the
//!   same `i32` accumulator bit-for-bit; the f32 epilogue runs in a fixed
//!   per-element order. This is why the quantized path can be
//!   row-parallel without the care [`crate::tensor`] needs.
//! * **Explicit SIMD with a scalar twin.** On x86-64 with AVX2 the
//!   matvec and attention-score row loops run a `vpmovsxbw` +
//!   `vpmaddwd` kernel (sign-extend both operands to i16, multiply-add
//!   adjacent pairs into i32 lanes) selected by runtime feature
//!   detection; every other target runs the scalar loop. Both compute
//!   the same exact `i32` sum — pair sums of two `127 × 127` products
//!   are nowhere near `i32` range — so the dispatch never changes
//!   results, only speed. The scalar [`dot_i8`] stays the reference the
//!   property tests pin the SIMD path against.

use crate::avx2_available;
use crate::gemm::PAR_MIN_WORK;
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
}

/// Quantizes one f32 row symmetrically to i8: `scale = max|x| / 127`,
/// `q = round(x / scale)` clamped to `[-127, 127]` (the -128 slot is
/// unused so negation is always exact). An all-zero row gets scale 0 and
/// an all-zero payload. Returns the scale.
pub fn quantize_row_into(x: &[f32], out: &mut Vec<i8>) -> f32 {
    out.clear();
    let max_abs = x.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        out.resize(x.len(), 0);
        return 0.0;
    }
    let scale = max_abs / 127.0;
    let inv = 127.0 / max_abs;
    out.extend(x.iter().map(|&v| (v * inv).round().clamp(-127.0, 127.0) as i8));
    scale
}

/// [`quantize_row_into`] returning a fresh buffer.
pub fn quantize_row(x: &[f32]) -> (Vec<i8>, f32) {
    let mut q = Vec::with_capacity(x.len());
    let scale = quantize_row_into(x, &mut q);
    (q, scale)
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
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        let mut q = Vec::with_capacity(cols);
        for r in 0..rows {
            scales.push(quantize_row_into(t.row_slice(r), &mut q));
            data.extend_from_slice(&q);
        }
        QuantizedMatrix { rows, cols, data, scales }
    }

    /// Quantizes a linear-layer weight stored `(d_in, d_out)` into the
    /// transposed `(d_out, d_in)` layout: row `j` holds output feature
    /// `j`'s weights, scaled per output feature.
    pub fn from_weight(w: &Tensor) -> Self {
        let (d_in, d_out) = w.shape();
        let mut col = vec![0.0f32; d_in];
        let mut data = Vec::with_capacity(d_in * d_out);
        let mut scales = Vec::with_capacity(d_out);
        let mut q = Vec::with_capacity(d_in);
        for j in 0..d_out {
            for (i, slot) in col.iter_mut().enumerate() {
                *slot = w.get(i, j);
            }
            scales.push(quantize_row_into(&col, &mut q));
            data.extend_from_slice(&q);
        }
        QuantizedMatrix { rows: d_out, cols: d_in, data, scales }
    }

    /// Rebuilds a matrix from its serialized parts (see
    /// [`crate::serialize`]'s v3 records). Rejects mismatched lengths and
    /// non-finite or negative scales.
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
    /// activation row dynamically. Row count above the parallel work
    /// threshold splits rows across threads — bitwise identical to the
    /// serial result because each output row's computation is
    /// self-contained and the inner accumulation is integer.
    pub fn matmul(&self, x: &Tensor, bias: Option<&[f32]>) -> Tensor {
        let threads = self.matmul_threads(x.rows());
        self.matmul_with_threads(x, bias, threads)
    }

    fn matmul_threads(&self, m: usize) -> usize {
        let work = m * self.rows * self.cols;
        if m < 2 || work < PAR_MIN_WORK {
            return 1;
        }
        std::thread::available_parallelism().map_or(1, |p| p.get()).min(m)
    }

    /// [`QuantizedMatrix::matmul`] with an explicit thread count — the
    /// determinism property tests drive 1 vs N directly through this.
    pub fn matmul_with_threads(&self, x: &Tensor, bias: Option<&[f32]>, threads: usize) -> Tensor {
        let m = x.rows();
        assert_eq!(x.cols(), self.cols, "input width mismatch");
        let mut out = Tensor::zeros(m, self.rows);
        let run_rows = |rows: std::ops::Range<usize>, out_rows: &mut [f32]| {
            let mut xq = Vec::with_capacity(self.cols);
            for (chunk, r) in out_rows.chunks_mut(self.rows).zip(rows) {
                let s = quantize_row_into(x.row_slice(r), &mut xq);
                self.matvec_quantized(&xq, s, bias, chunk);
            }
        };
        if threads <= 1 || m < 2 {
            run_rows(0..m, out.data_mut());
            return out;
        }
        let threads = threads.min(m);
        let chunk_rows = m.div_ceil(threads);
        let mut slices: Vec<(usize, &mut [f32])> = Vec::with_capacity(threads);
        let mut rest = out.data_mut();
        let mut row0 = 0usize;
        while row0 < m {
            let take = chunk_rows.min(m - row0) * self.rows;
            let (head, tail) = rest.split_at_mut(take);
            slices.push((row0, head));
            rest = tail;
            row0 += chunk_rows;
        }
        std::thread::scope(|scope| {
            for (start, chunk) in slices {
                let rows = start..(start + chunk.len() / self.rows);
                let run = &run_rows;
                scope.spawn(move || run(rows, chunk));
            }
        });
        out
    }
}

/// A growable list of quantized rows — the student decoder's attention
/// key cache. Keys are quantized once when appended; every subsequent
/// attention score against them is an integer dot.
#[derive(Clone, Debug, Default)]
pub struct QuantizedRows {
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl QuantizedRows {
    pub fn new(cols: usize) -> Self {
        QuantizedRows { cols, data: Vec::new(), scales: Vec::new() }
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

    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "row width mismatch");
        let mut q = Vec::with_capacity(self.cols);
        let s = quantize_row_into(row, &mut q);
        self.data.extend_from_slice(&q);
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

    #[test]
    fn quantized_matmul_tracks_f32_matmul() {
        let x = random_tensor(4, 32, 11);
        let w = random_tensor(32, 16, 13);
        let exact = x.matmul(&w);
        let q = QuantizedMatrix::from_weight(&w);
        let approx = q.matmul(&x, None);
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
        let plain = q.matmul(&x, None);
        let biased = q.matmul(&x, Some(&bias));
        for r in 0..2 {
            for (c, &b) in bias.iter().enumerate() {
                assert_eq!(biased.get(r, c), plain.get(r, c) + b);
            }
        }
    }

    #[test]
    fn thread_split_is_bitwise_identical() {
        let x = random_tensor(32, 48, 23);
        let w = random_tensor(48, 24, 29);
        let q = QuantizedMatrix::from_weight(&w);
        let serial = q.matmul_with_threads(&x, None, 1);
        for threads in [2, 3, 4, 7] {
            let par = q.matmul_with_threads(&x, None, threads);
            assert_eq!(serial, par, "{threads} threads diverged");
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
        }
    }

    #[test]
    fn from_parts_validates() {
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0; 4], vec![1.0, 1.0]).is_ok());
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0; 3], vec![1.0, 1.0]).is_err());
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0; 4], vec![1.0]).is_err());
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0; 4], vec![1.0, f32::NAN]).is_err());
        assert!(QuantizedMatrix::from_parts(2, 2, vec![0; 4], vec![1.0, -1.0]).is_err());
        assert!(QuantizedMatrix::from_parts(usize::MAX, 2, vec![], vec![]).is_err());
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
