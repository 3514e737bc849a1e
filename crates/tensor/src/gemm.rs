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
//! once per call into a reused per-thread buffer, as is the last
//! `NR`-wide column panel of `b` when `n` is not a multiple of `NR` (zero
//! padded; the padding lanes are computed and never stored).
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

use std::cell::RefCell;

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
}

/// The product of `a` and `b` in `layout`, on the fastest kernel copy the
/// CPU supports.
pub(crate) fn product(a: &Tensor, b: &Tensor, layout: Layout) -> Tensor {
    product_with(a, b, layout, crate::avx2_available())
}

/// The product on the portable kernel copy: the reference the dispatched
/// copy is pinned against.
pub fn product_portable(a: &Tensor, b: &Tensor, layout: Layout) -> Tensor {
    product_with(a, b, layout, false)
}

fn product_with(a: &Tensor, b: &Tensor, layout: Layout, avx2: bool) -> Tensor {
    // (m, k, n) of the product and the inner dimension `b` brings.
    let (m, k, n, b_k) = match layout {
        Layout::Plain => (a.rows(), a.cols(), b.cols(), b.rows()),
        Layout::TransposeA => (a.cols(), a.rows(), b.cols(), b.rows()),
        Layout::TransposeB => (a.rows(), a.cols(), b.rows(), b.cols()),
    };
    assert_eq!(
        k, b_k,
        "matmul {layout:?}: {}x{} with {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let a = match layout {
        Layout::TransposeA => Strided { data: a.data(), rs: 1, cs: m },
        Layout::Plain | Layout::TransposeB => Strided { data: a.data(), rs: k, cs: 1 },
    };
    let mut out = Tensor::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        // Empty sums: every output keeps its `+0.0` seed.
        return out;
    }
    PACK.with_borrow_mut(|pack| {
        let b = Panels::pack(b.data(), layout, k, n, pack);
        parallel_rows(m, m * k * n, out.data_mut(), n, |row0, out_rows| {
            run(&a, &b, row0, k, n, out_rows, avx2);
        });
    });
    out
}

/// A read-only matrix addressed as `data[i * rs + p * cs]`.
struct Strided<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

/// `b[k,n]` as column panels of width `NR`: the first `full` panels are
/// read from `main` (row stride `ld`), the rest — at most one — from the
/// zero-padded `fringe` (row stride `NR`).
struct Panels<'a> {
    main: &'a [f32],
    ld: usize,
    full: usize,
    fringe: &'a [f32],
}

impl<'a> Panels<'a> {
    /// Lays out `b` for the microkernel, packing into `pack` only what
    /// cannot be read in place: all of a transposed `b` (padded to whole
    /// panels), or the partial last panel of a plain one.
    fn pack(b: &'a [f32], layout: Layout, k: usize, n: usize, pack: &'a mut Vec<f32>) -> Self {
        pack.clear();
        if layout == Layout::TransposeB {
            let ld = n.next_multiple_of(NR);
            pack.resize(k * ld, 0.0);
            for (j, b_row) in b.chunks_exact(k).enumerate() {
                for (p, &v) in b_row.iter().enumerate() {
                    pack[p * ld + j] = v;
                }
            }
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

    fn count(&self) -> usize {
        self.full + usize::from(!self.fringe.is_empty())
    }

    /// Panel `jp` as `(data, row stride, first column within data)`.
    #[inline(always)]
    fn get(&self, jp: usize) -> (&[f32], usize, usize) {
        if jp < self.full {
            (self.main, self.ld, jp * NR)
        } else {
            (self.fringe, NR, 0)
        }
    }
}

/// Computes the output rows from `row0` on into `out` (whole rows of
/// width `n`).
fn run(a: &Strided, b: &Panels, row0: usize, k: usize, n: usize, out: &mut [f32], avx2: bool) {
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is true only when `crate::avx2_available()`
        // detected AVX2 on this CPU (`product` is the only caller passing
        // `true`), which is the sole precondition of calling a
        // `#[target_feature(enable = "avx2")]` function. The body is the
        // same safe, bounds-checked code as the portable copy.
        unsafe { body_avx2(a, b, row0, k, n, out) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = avx2; // only x86-64 has an AVX2 copy
    body(a, b, row0, k, n, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn body_avx2(a: &Strided, b: &Panels, row0: usize, k: usize, n: usize, out: &mut [f32]) {
    body(a, b, row0, k, n, out);
}

/// Panel-major sweep: each `k x NR` panel of `b` stays cache-hot while
/// every `MR`-row block of `a` passes over it. The rows below a whole
/// block then run as one block of 1–3 rows whose tiles span as many
/// panels as keep 8 accumulator registers busy, so a lone row (a decode
/// step) is not bound by add latency.
#[inline(always)]
fn body(a: &Strided, b: &Panels, row0: usize, k: usize, n: usize, out: &mut [f32]) {
    let rows = out.len() / n;
    let blocked = rows / MR * MR;
    for jp in 0..b.count() {
        let (panel, ld, col) = b.get(jp);
        for i in (0..blocked).step_by(MR) {
            store(&tile::<MR, NR>(a, row0 + i, panel, ld, col, k), out, i, n, jp * NR);
        }
    }
    let (i0, rest) = (row0 + blocked, &mut out[blocked * n..]);
    match rows - blocked {
        0 => {}
        1 => stripes::<1, { 4 * NR }>(a, b, i0, k, n, rest),
        2 => stripes::<2, { 2 * NR }>(a, b, i0, k, n, rest),
        _ => stripes::<3, NR>(a, b, i0, k, n, rest),
    }
}

/// Rows `i0..i0 + R` (all of `out`) over stripes of `W / NR` panels, one
/// panel at a time where fewer full panels than that remain.
#[inline(always)]
fn stripes<const R: usize, const W: usize>(
    a: &Strided,
    b: &Panels,
    i0: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let mut jp = 0;
    while jp < b.count() {
        let (panel, ld, col) = b.get(jp);
        if jp + W / NR <= b.full {
            store(&tile::<R, W>(a, i0, panel, ld, col, k), out, 0, n, jp * NR);
            jp += W / NR;
        } else {
            store(&tile::<R, NR>(a, i0, panel, ld, col, k), out, 0, n, jp * NR);
            jp += 1;
        }
    }
}

/// The microkernel: `R x W` outputs of rows `i0..i0 + R` against panel
/// columns `col..col + W`, each accumulated from `+0.0` in ascending `p`.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    a: &Strided,
    i0: usize,
    panel: &[f32],
    ld: usize,
    col: usize,
    k: usize,
) -> [[f32; W]; R] {
    let mut acc = [[0.0f32; W]; R];
    for p in 0..k {
        let b_row: &[f32; W] = panel[p * ld + col..][..W].try_into().expect("W-wide slice");
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a.data[(i0 + r) * a.rs + p * a.cs];
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// Stores a tile's rows at output row `i`, column `j0`, dropping the
/// columns past `n` (the zero-padded lanes of a fringe panel).
#[inline(always)]
fn store<const R: usize, const W: usize>(
    acc: &[[f32; W]; R],
    out: &mut [f32],
    i: usize,
    n: usize,
    j0: usize,
) {
    let w = W.min(n - j0);
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * n + j0..][..w].copy_from_slice(&acc_row[..w]);
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
