//! `im2col`/`col2im` lowering for 2-D convolutions.
//!
//! Convolution forward is implemented as a matrix multiply over the patch
//! matrix produced by [`im2col`] (`[C·KH·KW, Hout·Wout]` per image); the
//! kernel matrix `[Cout, C·KH·KW]` multiplies it. [`col2im`] is the exact
//! adjoint (scatter-add) used for the input gradient, which the property
//! tests verify via the inner-product identity
//! `⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩`.
//!
//! [`im2col_batch`]/[`col2im_batch`] lower a whole batch into **one**
//! contiguous matrix of shape `[C·KH·KW, N·Hout·Wout]` (sample-major
//! column blocks), so `Conv2d` can run a single fused matmul per batch
//! instead of one per sample. Every variant builds or scatters one patch
//! row — one `(channel, ky, kx)` tap at every output position of every
//! sample — at a time, through a batch layout that does its divisions
//! once. Unpadded unit-stride rows are plain segment copies; rows under
//! eight pixels gather through a per-call offset table instead; padded
//! and strided rows compute their in-image span once per tap, zero the
//! rest with `slice::fill`, and copy (or gather, when strided) the span.
//!
//! # Direct tap-list path
//!
//! For unpadded unit-stride geometries ([`taps_supported`]) the forward
//! skips the lowering entirely: [`conv2d_taps_batch`] streams each
//! output row through fixed-width lane accumulators, one broadcast-FMA
//! per *kernel tap* — a `(flat input offset, weight)` pair. Work is
//! therefore proportional to the number of taps, so a filter whose
//! unstructured mask keeps 50% of its weights runs in roughly half the
//! dense time, which im2col+GEMM can never deliver (the lowering cost is
//! identical for dense and pruned filters). The tap builders
//! ([`build_taps_dense`], [`build_taps_sparse`]) emit taps in ascending
//! `(channel, ky, kx)` order, so a dense filter and a fully-kept sparse
//! filter produce bit-identical outputs.
//!
//! # Training without the patch matrix
//!
//! Under a sparsity pattern, training keeps no patch matrix for backward
//! and never builds its adjoint. [`conv2d_taps_batch_train`] is the tap
//! forward with the lowered path's numerics, and
//! [`conv2d_weight_grad_streamed`] and [`conv2d_input_grad_streamed`]
//! build or scatter one patch row at a time in a workspace buffer, only
//! for columns some kept weight uses, at any geometry. Each replays the
//! summation order of the lowered kernels it replaces, so results are
//! bit-identical.

use crate::linalg::{dot, fmadd};
use crate::sparse::{gather_t_row, RowPattern, PANEL};
use crate::workspace::Workspace;
use crate::Tensor;

/// Geometry of a 2-D convolution / pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height after the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_h(&self) -> usize {
        let padded = self.height + 2 * self.pad;
        assert!(padded >= self.kh, "kernel height {} larger than padded input {}", self.kh, padded);
        (padded - self.kh) / self.stride + 1
    }

    /// Output width after the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_w(&self) -> usize {
        let padded = self.width + 2 * self.pad;
        assert!(padded >= self.kw, "kernel width {} larger than padded input {}", self.kw, padded);
        (padded - self.kw) / self.stride + 1
    }

    /// Rows of the patch matrix: `channels * kh * kw`.
    pub fn col_rows(&self) -> usize {
        self.channels * self.kh * self.kw
    }

    /// Columns of the patch matrix: `out_h * out_w`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Output-column span `[lo, hi)` for kernel tap `kx` whose input index
/// `ox·stride + kx - pad` lands inside `[0, w)`. Always `lo <= hi <= ow`.
fn valid_span(ow: usize, stride: usize, kx: usize, pad: usize, w: usize) -> (usize, usize) {
    let lo = if kx >= pad { 0 } else { (pad - kx).div_ceil(stride) };
    let hi = if w + pad <= kx { 0 } else { (w + pad - kx - 1) / stride + 1 };
    let lo = lo.min(ow);
    (lo, hi.clamp(lo, ow))
}

/// Unit stride and no padding: output row `oy` of tap `(ky, kx)` reads
/// input row `oy + ky` from column `kx` on, and every position is inside
/// the image.
fn is_unit(geom: &ConvGeom) -> bool {
    geom.stride == 1 && geom.pad == 0
}

/// Splits a patch-row index into its `(channel, ky, kx)` tap.
fn row_tap(geom: &ConvGeom, row: usize) -> (usize, usize, usize) {
    let taps = geom.kh * geom.kw;
    (row / taps, row % taps / geom.kw, row % geom.kw)
}

/// Writes one patch row of one image plane (all output positions of one
/// `(channel, ky, kx)` tap) into `dst` (`out_h·out_w` long) for a padded or
/// strided geometry. Every element is assigned (padding positions as
/// `0.0`).
fn im2col_fill_row(plane: &[f32], geom: &ConvGeom, ky: usize, kx: usize, dst: &mut [f32]) {
    let (h, w) = (geom.height, geom.width);
    let ow = geom.out_w();
    let (stride, pad) = (geom.stride, geom.pad);
    let (lo, hi) = valid_span(ow, stride, kx, pad, w);
    for (oy, d) in dst.chunks_exact_mut(ow).enumerate() {
        let iy = (oy * stride + ky) as isize - pad as isize;
        if iy < 0 || iy >= h as isize {
            d.fill(0.0);
            continue;
        }
        let src = &plane[iy as usize * w..(iy as usize + 1) * w];
        d[..lo].fill(0.0);
        d[hi..].fill(0.0);
        if lo < hi {
            let ix0 = lo * stride + kx - pad;
            if stride == 1 {
                d[lo..hi].copy_from_slice(&src[ix0..ix0 + hi - lo]);
            } else {
                for (t, x) in d[lo..hi].iter_mut().enumerate() {
                    *x = src[ix0 + t * stride];
                }
            }
        }
    }
}

/// Exact adjoint of [`im2col_fill_row`]: scatter-adds one patch row `src`
/// (`out_h·out_w` long) onto an image-plane gradient.
fn col2im_add_row(src: &[f32], geom: &ConvGeom, ky: usize, kx: usize, plane: &mut [f32]) {
    let (h, w) = (geom.height, geom.width);
    let ow = geom.out_w();
    let (stride, pad) = (geom.stride, geom.pad);
    let (lo, hi) = valid_span(ow, stride, kx, pad, w);
    if lo >= hi {
        return;
    }
    for (oy, s) in src.chunks_exact(ow).enumerate() {
        let iy = (oy * stride + ky) as isize - pad as isize;
        if iy < 0 || iy >= h as isize {
            continue;
        }
        let grow = &mut plane[iy as usize * w..(iy as usize + 1) * w];
        let ix0 = lo * stride + kx - pad;
        if stride == 1 {
            for (g, &v) in grow[ix0..ix0 + hi - lo].iter_mut().zip(&s[lo..hi]) {
                *g += v;
            }
        } else {
            for (t, &v) in s[lo..hi].iter().enumerate() {
                grow[ix0 + t * stride] += v;
            }
        }
    }
}

/// Copies a row segment of at least eight elements with overlapping
/// eight-wide moves instead of a `memcpy` call, which dominates when
/// output rows are a dozen pixels wide.
#[inline(always)]
fn copy_segment(dst: &mut [f32], src: &[f32]) {
    let n = dst.len();
    let mut k = 0;
    while k + L8 < n {
        dst[k..k + L8].copy_from_slice(&src[k..k + L8]);
        k += L8;
    }
    dst[n - L8..].copy_from_slice(&src[n - L8..n]);
}

/// One batch's patch-row layout, with the divisions and length checks
/// done once, so building or scattering a row costs only its copies. A
/// row holds tap `(channel, ky, kx)` at every output position of every
/// sample, in sample-major blocks of `out_h·out_w` like the columns of
/// [`im2col_batch`].
struct PatchRows<'g> {
    geom: &'g ConvGeom,
    img_len: usize,
    plane_len: usize,
    ow: usize,
    cc: usize,
    /// Unit geometries with output rows under eight pixels: the offset of
    /// every position of a row from its tap's input origin,
    /// `i·img_len + oy·W + ox`, so a row is one gather instead of
    /// `batch·out_h` copies of a few elements. Empty otherwise.
    offsets: Vec<usize>,
}

impl<'g> PatchRows<'g> {
    fn new(geom: &'g ConvGeom, batch: usize) -> Self {
        let plane_len = geom.height * geom.width;
        let img_len = geom.channels * plane_len;
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let table = is_unit(geom) && ow < L8;
        let mut offsets = Vec::with_capacity(if table { batch * oh * ow } else { 0 });
        if table {
            for i in 0..batch {
                for oy in 0..oh {
                    offsets.extend((0..ow).map(|ox| i * img_len + oy * geom.width + ox));
                }
            }
        }
        PatchRows { geom, img_len, plane_len, ow, cc: oh * ow, offsets }
    }

    /// Input offset of tap `(ch, ky, kx)` at output position `(0, 0)`.
    fn origin(&self, ch: usize, ky: usize, kx: usize) -> usize {
        ch * self.plane_len + ky * self.geom.width + kx
    }

    /// Writes patch row `row` of `images` into `dst`, assigning every
    /// element.
    fn gather(&self, images: &[f32], row: usize, dst: &mut [f32]) {
        let (ch, ky, kx) = row_tap(self.geom, row);
        if !self.offsets.is_empty() {
            let src = &images[self.origin(ch, ky, kx)..];
            for (d, &o) in dst.iter_mut().zip(&self.offsets) {
                *d = src[o];
            }
            return;
        }
        let (w, ow) = (self.geom.width, self.ow);
        for (i, d) in dst.chunks_exact_mut(self.cc).enumerate() {
            if is_unit(self.geom) {
                let src = &images[i * self.img_len + self.origin(ch, ky, kx)..];
                for (oy, seg) in d.chunks_exact_mut(ow).enumerate() {
                    copy_segment(seg, &src[oy * w..]);
                }
            } else {
                let plane = &images[i * self.img_len + ch * self.plane_len..][..self.plane_len];
                im2col_fill_row(plane, self.geom, ky, kx, d);
            }
        }
    }

    /// Scatter-adds patch row `row` of a patch-matrix gradient (`src`)
    /// onto the image gradients. Each image element receives at most one
    /// term per row.
    fn scatter(&self, src: &[f32], row: usize, images_grad: &mut [f32]) {
        let (ch, ky, kx) = row_tap(self.geom, row);
        if !self.offsets.is_empty() {
            let grad = &mut images_grad[self.origin(ch, ky, kx)..];
            for (&v, &o) in src.iter().zip(&self.offsets) {
                grad[o] += v;
            }
            return;
        }
        let (w, ow) = (self.geom.width, self.ow);
        for (i, s) in src.chunks_exact(self.cc).enumerate() {
            if is_unit(self.geom) {
                let grad = &mut images_grad[i * self.img_len + self.origin(ch, ky, kx)..];
                for (oy, seg) in s.chunks_exact(ow).enumerate() {
                    for (g, &v) in grad[oy * w..][..ow].iter_mut().zip(seg) {
                        *g += v;
                    }
                }
            } else {
                let plane =
                    &mut images_grad[i * self.img_len + ch * self.plane_len..][..self.plane_len];
                col2im_add_row(s, self.geom, ky, kx, plane);
            }
        }
    }
}

/// Lowers one image `[C, H, W]` (given as a flat slice) into a patch matrix
/// `[C·KH·KW, Hout·Wout]` written into `cols`.
///
/// # Panics
///
/// Panics if `image` or `cols` have the wrong length.
pub fn im2col(image: &[f32], geom: &ConvGeom, cols: &mut [f32]) {
    im2col_batch(image, geom, 1, cols);
}

/// Adjoint of [`im2col`]: scatter-adds a patch-matrix gradient back onto an
/// image gradient `[C, H, W]`. `image_grad` is accumulated into (callers
/// zero it first when appropriate).
///
/// # Panics
///
/// Panics if `cols` or `image_grad` have the wrong length.
pub fn col2im(cols: &[f32], geom: &ConvGeom, image_grad: &mut [f32]) {
    let (c, h, w) = (geom.channels, geom.height, geom.width);
    assert_eq!(image_grad.len(), c * h * w, "image_grad length mismatch");
    let cc = geom.col_cols();
    assert_eq!(cols.len(), geom.col_rows() * cc, "cols length mismatch");
    let rows = PatchRows::new(geom, 1);
    for (row, src) in cols.chunks_exact(cc).enumerate() {
        rows.scatter(src, row, image_grad);
    }
}

/// Lowers a whole batch `[N, C, H, W]` into one patch matrix
/// `[C·KH·KW, N·Hout·Wout]` with sample-major column blocks: sample `i`
/// occupies columns `[i·col_cols, (i+1)·col_cols)`. One fused matmul over
/// this matrix replaces `N` per-sample multiplies.
///
/// # Panics
///
/// Panics if `images` or `cols` have the wrong length.
pub fn im2col_batch(images: &[f32], geom: &ConvGeom, batch: usize, cols: &mut [f32]) {
    let img_len = geom.channels * geom.height * geom.width;
    assert_eq!(images.len(), batch * img_len, "image length mismatch");
    let width = batch * geom.col_cols();
    assert_eq!(cols.len(), geom.col_rows() * width, "cols length mismatch");
    let rows = PatchRows::new(geom, batch);
    for (row, dst) in cols.chunks_exact_mut(width.max(1)).enumerate() {
        rows.gather(images, row, dst);
    }
}

/// Batch-fused im2col over a **selection of patch rows**: lowers only the
/// kernel-matrix rows listed in `rows` (indices into the full
/// `C·KH·KW` row space), writing them *compacted* in the given order, so
/// `cols` is `[rows.len(), batch · col_cols]`. Paired with
/// [`RectPattern`](crate::sparse::RectPattern) this skips the lowering
/// work for input channels a structured mask has pruned.
///
/// # Panics
///
/// Panics if `images` or `cols` have the wrong length, or any row index
/// is out of range.
pub fn im2col_batch_select(
    images: &[f32],
    geom: &ConvGeom,
    batch: usize,
    cols: &mut [f32],
    rows: &[u32],
) {
    let img_len = geom.channels * geom.height * geom.width;
    assert_eq!(images.len(), batch * img_len, "image length mismatch");
    let width = batch * geom.col_cols();
    assert_eq!(cols.len(), rows.len() * width, "cols length mismatch");
    let layout = PatchRows::new(geom, batch);
    for (dst, &row) in cols.chunks_exact_mut(width.max(1)).zip(rows) {
        assert!((row as usize) < geom.col_rows(), "patch row {row} out of range");
        layout.gather(images, row as usize, dst);
    }
}

/// Adjoint of [`im2col_batch`]: scatters a fused patch-matrix gradient
/// `[C·KH·KW, N·Hout·Wout]` back to image gradients `[N, C, H, W]`.
/// Unlike [`col2im`], `images_grad` is **overwritten** (zeroed first) —
/// the batch-fused backward owns the whole input-gradient buffer.
///
/// # Panics
///
/// Panics if `cols` or `images_grad` have the wrong length.
pub fn col2im_batch(cols: &[f32], geom: &ConvGeom, batch: usize, images_grad: &mut [f32]) {
    let img_len = geom.channels * geom.height * geom.width;
    assert_eq!(images_grad.len(), batch * img_len, "image_grad length mismatch");
    let width = batch * geom.col_cols();
    assert_eq!(cols.len(), geom.col_rows() * width, "cols length mismatch");
    images_grad.fill(0.0);
    let rows = PatchRows::new(geom, batch);
    for (row, src) in cols.chunks_exact(width.max(1)).enumerate() {
        rows.scatter(src, row, images_grad);
    }
}

/// Narrow lane width for output rows of 8–15 pixels (LeNet's second
/// convolution produces 10-wide rows); wider rows use the 16-wide
/// [`crate::linalg::Lane`] width of the GEMM kernels.
const L8: usize = 8;

/// `c[e] = fmadd(a, b[e], c[e])` across one `L`-wide lane.
#[inline(always)]
fn lanes_fmadd<const L: usize>(a: f32, b: &[f32; L], c: &mut [f32; L]) {
    for (x, &v) in c.iter_mut().zip(b) {
        *x = fmadd(a, v, *x);
    }
}

/// Loads an `L`-wide lane from the head of a slice.
#[inline(always)]
fn load_lanes<const L: usize>(s: &[f32]) -> [f32; L] {
    let mut l = [0.0f32; L];
    l.copy_from_slice(&s[..L]);
    l
}

/// Widest output row the direct tap path handles: three overlapping
/// 16-wide lanes. Beyond this the im2col lowering amortises well enough
/// that the tap path stops paying for its recomputed overlap pixels.
pub const DIRECT_TAP_MAX_OW: usize = 3 * crate::linalg::NR / 2;

/// Whether [`conv2d_taps_batch`] supports this geometry: unit stride, no
/// padding, and an output row that a handful of fixed-width lanes cover.
pub fn taps_supported(geom: &ConvGeom) -> bool {
    geom.stride == 1 && geom.pad == 0 && (L8..=DIRECT_TAP_MAX_OW).contains(&geom.out_w())
}

/// One output row via `NLANES` overlapping `L`-wide lanes. `starts` are
/// lane origins within the row; the last lane typically overlaps its
/// predecessor so the lanes cover `out_w` exactly. Every output pixel's
/// value is the same tap-ascending fmadd chain regardless of which lane
/// computes it, so the overlap is bit-consistent. Eval seeds the chain
/// with `bias`; with `BIAS_LAST` it starts from `+0.0` and `bias` is added
/// to the finished chain, which is what the lowered GEMM followed by the
/// permute's bias add computes.
#[inline(always)]
fn conv_row<const L: usize, const NLANES: usize, const BIAS_LAST: bool>(
    taps: &[(u32, f32)],
    img: &[f32],
    base: usize,
    starts: &[usize; NLANES],
    orow: &mut [f32],
    bias: f32,
) {
    let mut acc = [[if BIAS_LAST { 0.0 } else { bias }; L]; NLANES];
    for &(off, w) in taps {
        let o = base + off as usize;
        for (a, &s) in acc.iter_mut().zip(starts) {
            lanes_fmadd(w, &load_lanes(&img[o + s..]), a);
        }
    }
    for (a, &s) in acc.iter().zip(starts) {
        let dst = &mut orow[s..s + L];
        if BIAS_LAST {
            for (d, &v) in dst.iter_mut().zip(a) {
                *d = v + bias;
            }
        } else {
            dst.copy_from_slice(a);
        }
    }
}

/// Maps a kernel-matrix column (of the `[Cout, C·KH·KW]` weight view) to
/// its flat input-image offset `ic·H·W + ky·W + kx`.
#[inline]
fn tap_offset(geom: &ConvGeom, col: usize) -> u32 {
    let taps = geom.kh * geom.kw;
    let (ic, tap) = (col / taps, col % taps);
    let (ky, kx) = (tap / geom.kw, tap % geom.kw);
    (ic * geom.height * geom.width + ky * geom.width + kx) as u32
}

/// Builds the full tap list of a dense `[Cout, C·KH·KW]` weight matrix:
/// `tap_ptr[oc]..tap_ptr[oc+1]` indexes output channel `oc`'s
/// `(offset, weight)` pairs in ascending `(channel, ky, kx)` order.
pub fn build_taps_dense(
    weight: &[f32],
    geom: &ConvGeom,
    cout: usize,
) -> (Vec<usize>, Vec<(u32, f32)>) {
    let cr = geom.col_rows();
    assert_eq!(weight.len(), cout * cr, "build_taps_dense: weight length mismatch");
    let mut taps = Vec::with_capacity(cout * cr);
    let mut tap_ptr = Vec::with_capacity(cout + 1);
    tap_ptr.push(0);
    for oc in 0..cout {
        for c in 0..cr {
            taps.push((tap_offset(geom, c), weight[oc * cr + c]));
        }
        tap_ptr.push(taps.len());
    }
    (tap_ptr, taps)
}

/// [`build_taps_dense`] restricted to the kept positions of an
/// unstructured mask: only surviving weights become taps, so the kernel
/// does work proportional to the kept count. Column order within a
/// pattern row is ascending, matching the dense builder's chain order.
pub fn build_taps_sparse(
    pat: &RowPattern,
    weight: &[f32],
    geom: &ConvGeom,
) -> (Vec<usize>, Vec<(u32, f32)>) {
    let cr = geom.col_rows();
    assert_eq!(pat.cols(), cr, "build_taps_sparse: pattern column mismatch");
    assert_eq!(weight.len(), pat.rows() * cr, "build_taps_sparse: weight length mismatch");
    let mut taps = Vec::with_capacity(pat.nnz());
    let mut tap_ptr = Vec::with_capacity(pat.rows() + 1);
    tap_ptr.push(0);
    for oc in 0..pat.rows() {
        for &c in pat.row(oc) {
            taps.push((tap_offset(geom, c as usize), weight[oc * cr + c as usize]));
        }
        tap_ptr.push(taps.len());
    }
    (tap_ptr, taps)
}

/// Direct tap-list convolution over a batch: `images` is `[N, C, H, W]`
/// flat, `out` is `[N, Cout, Hout, Wout]` flat and fully overwritten
/// (bias included — a channel with no taps emits its bias plane). Output
/// rows are computed by overlapping fixed-width lanes, one broadcast-FMA
/// per tap per lane; see the module header for when this beats im2col.
/// Each chain is seeded with its channel's bias: these are the inference
/// numerics, which validation accuracy (and so the pruning gate) depends
/// on. [`conv2d_taps_batch_train`] is the training variant.
///
/// # Panics
///
/// Panics if the geometry is unsupported ([`taps_supported`]) or any
/// slice length disagrees with the dimensions implied by `geom`.
pub fn conv2d_taps_batch(
    images: &[f32],
    geom: &ConvGeom,
    batch: usize,
    tap_ptr: &[usize],
    taps: &[(u32, f32)],
    bias: &[f32],
    out: &mut [f32],
) {
    taps_batch::<false>(images, geom, batch, tap_ptr, taps, bias, out);
}

/// [`conv2d_taps_batch`] with the lowered path's numerics: each output
/// element is the fmadd chain from `+0.0` over its channel's taps in
/// ascending column order, and the bias is added afterwards. For the
/// kept taps of a pattern ([`build_taps_sparse`]) that is bit for bit
/// what [`im2col_batch`] followed by `spmm` and the bias add compute (and
/// for dense taps what `gemm_ws` computes while `C·KH·KW ≤ KC`, its one
/// reduction panel), so training can skip the patch matrix without moving
/// a single update.
///
/// # Panics
///
/// As [`conv2d_taps_batch`].
pub fn conv2d_taps_batch_train(
    images: &[f32],
    geom: &ConvGeom,
    batch: usize,
    tap_ptr: &[usize],
    taps: &[(u32, f32)],
    bias: &[f32],
    out: &mut [f32],
) {
    taps_batch::<true>(images, geom, batch, tap_ptr, taps, bias, out);
}

/// Shared body of the two tap entry points; `BIAS_LAST` picks the
/// numerics (see [`conv_row`]).
fn taps_batch<const BIAS_LAST: bool>(
    images: &[f32],
    geom: &ConvGeom,
    batch: usize,
    tap_ptr: &[usize],
    taps: &[(u32, f32)],
    bias: &[f32],
    out: &mut [f32],
) {
    assert!(taps_supported(geom), "conv2d_taps_batch: unsupported geometry {geom:?}");
    let cout = bias.len();
    assert_eq!(tap_ptr.len(), cout + 1, "conv2d_taps_batch: tap_ptr length mismatch");
    assert_eq!(
        *tap_ptr.last().unwrap_or(&0),
        taps.len(),
        "conv2d_taps_batch: taps length mismatch"
    );
    let img_len = geom.channels * geom.height * geom.width;
    assert_eq!(images.len(), batch * img_len, "conv2d_taps_batch: image length mismatch");
    let (oh, ow) = (geom.out_h(), geom.out_w());
    assert_eq!(out.len(), batch * cout * oh * ow, "conv2d_taps_batch: out length mismatch");
    if out.is_empty() {
        return;
    }
    if img_len == 0 {
        // Zero input channels: every chain is empty, so every output
        // pixel is its channel's seed plus whatever bias is still owed.
        for oimg in out.chunks_exact_mut((cout * oh * ow).max(1)) {
            for (oc, oplane) in oimg.chunks_exact_mut(oh * ow).enumerate() {
                oplane.fill(if BIAS_LAST { 0.0 + bias[oc] } else { bias[oc] });
            }
        }
        return;
    }
    let w = geom.width;
    for (img, oimg) in images.chunks_exact(img_len).zip(out.chunks_exact_mut(cout * oh * ow)) {
        for (oc, oplane) in oimg.chunks_exact_mut(oh * ow).enumerate() {
            let tp = &taps[tap_ptr[oc]..tap_ptr[oc + 1]];
            let b = bias[oc];
            for (y, orow) in oplane.chunks_exact_mut(ow).enumerate() {
                let base = y * w;
                match ow {
                    8 => conv_row::<L8, 1, BIAS_LAST>(tp, img, base, &[0], orow, b),
                    9..=15 => conv_row::<L8, 2, BIAS_LAST>(tp, img, base, &[0, ow - L8], orow, b),
                    16 => conv_row::<16, 1, BIAS_LAST>(tp, img, base, &[0], orow, b),
                    17..=31 => conv_row::<16, 2, BIAS_LAST>(tp, img, base, &[0, ow - 16], orow, b),
                    _ => conv_row::<16, 3, BIAS_LAST>(tp, img, base, &[0, 16, ow - 16], orow, b),
                }
            }
        }
    }
}

/// Weight gradient of a masked convolution, one patch row at a time
/// instead of through the `[C·KH·KW, N·Hout·Wout]` patch matrix. `dy` is
/// the output gradient in the fused `[cout, N·Hout·Wout]` layout and `dw`
/// the `[cout, C·KH·KW]` gradient, overwritten: pruned positions are
/// `0.0`, and each kept position is [`dot`]`(dy[r], patch row c)` over the
/// fused index — bit for bit what `masked_dot_nt` computes from the full
/// matrix. The patch row lives in one workspace buffer and is built only
/// when some kept weight uses its column.
///
/// # Panics
///
/// Panics if a slice length disagrees with `geom`, `batch` and the
/// pattern's `cout × C·KH·KW` shape.
pub fn conv2d_weight_grad_streamed(
    images: &[f32],
    geom: &ConvGeom,
    batch: usize,
    pattern: &RowPattern,
    dy: &[f32],
    dw: &mut [f32],
    ws: &mut Workspace,
) {
    let (cout, cr) = (pattern.rows(), geom.col_rows());
    let fused = batch * geom.col_cols();
    assert_eq!(pattern.cols(), cr, "conv2d_weight_grad_streamed: pattern column mismatch");
    let img_len = geom.channels * geom.height * geom.width;
    assert_eq!(images.len(), batch * img_len, "conv2d_weight_grad_streamed: image length mismatch");
    assert_eq!(dy.len(), cout * fused, "conv2d_weight_grad_streamed: dy length mismatch");
    assert_eq!(dw.len(), cout * cr, "conv2d_weight_grad_streamed: dw length mismatch");
    dw.fill(0.0);
    let rows = PatchRows::new(geom, batch);
    let mut row = ws.take_scratch(fused);
    for c in 0..cr {
        let kept = pattern.col(c);
        if kept.is_empty() {
            continue;
        }
        rows.gather(images, c, &mut row);
        for &r in kept {
            let r = r as usize;
            dw[r * cr + c] = dot(&dy[r * fused..(r + 1) * fused], &row);
        }
    }
    ws.put(row);
}

/// Input gradient of a masked convolution without the patch-matrix
/// adjoint. `weight` is `[cout, C·KH·KW]`, `dy` the fused
/// `[cout, N·Hout·Wout]` output gradient, and `dx` the `[N, C, H, W]`
/// input gradient, overwritten.
///
/// Each patch row's gradient is the fmadd chain from `+0.0` over the kept
/// output channels in ascending order, computed into one workspace buffer
/// and scatter-added into `dx` in ascending row order — what `spmm_t`
/// followed by [`col2im_batch`] computes. A row no kept weight uses is
/// skipped, which is exact: it would only add `+0.0` to accumulators that
/// start at `+0.0` and so never hold `-0.0`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `geom`, `batch` and the
/// pattern's `cout × C·KH·KW` shape.
pub fn conv2d_input_grad_streamed(
    weight: &[f32],
    pattern: &RowPattern,
    geom: &ConvGeom,
    batch: usize,
    dy: &[f32],
    dx: &mut [f32],
    ws: &mut Workspace,
) {
    let (cout, cr) = (pattern.rows(), geom.col_rows());
    let fused = batch * geom.col_cols();
    assert_eq!(pattern.cols(), cr, "conv2d_input_grad_streamed: pattern column mismatch");
    assert_eq!(weight.len(), cout * cr, "conv2d_input_grad_streamed: weight length mismatch");
    assert_eq!(dy.len(), cout * fused, "conv2d_input_grad_streamed: dy length mismatch");
    let img_len = geom.channels * geom.height * geom.width;
    assert_eq!(dx.len(), batch * img_len, "conv2d_input_grad_streamed: dx length mismatch");
    dx.fill(0.0);
    let rows = PatchRows::new(geom, batch);
    let mut row = ws.take_scratch(fused);
    for c in 0..cr {
        let kept = pattern.col(c);
        if kept.is_empty() {
            continue;
        }
        for j0 in (0..fused).step_by(PANEL) {
            let jn = PANEL.min(fused - j0);
            gather_t_row(&mut row[j0..j0 + jn], kept, |r| weight[r * cr + c], dy, fused, j0);
        }
        rows.scatter(&row, c, dx);
    }
    ws.put(row);
}

/// Direct (quadruple-loop) convolution of one image, used as a test oracle
/// for the im2col fast path. `weight` is `[Cout, C, KH, KW]` flat; output is
/// `[Cout, Hout, Wout]` flat.
pub fn direct_conv2d_single(
    image: &[f32],
    weight: &Tensor,
    bias: Option<&[f32]>,
    geom: &ConvGeom,
) -> Vec<f32> {
    let cout = weight.shape()[0];
    assert_eq!(weight.shape()[1], geom.channels);
    assert_eq!(weight.shape()[2], geom.kh);
    assert_eq!(weight.shape()[3], geom.kw);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (c, h, w) = (geom.channels, geom.height, geom.width);
    let mut out = vec![0.0f32; cout * oh * ow];
    let wd = weight.data();
    for oc in 0..cout {
        let b = bias.map_or(0.0, |bs| bs[oc]);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b;
                for ic in 0..c {
                    for ky in 0..geom.kh {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..geom.kw {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let wv = wd[((oc * c + ic) * geom.kh + ky) * geom.kw + kx];
                            let iv = image[(ic * h + iy as usize) * w + ix as usize];
                            acc += wv * iv;
                        }
                    }
                }
                out[(oc * oh + oy) * ow + ox] = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{uniform, SeededRng};

    fn geom(c: usize, h: usize, w: usize, k: usize, stride: usize, pad: usize) -> ConvGeom {
        ConvGeom { channels: c, height: h, width: w, kh: k, kw: k, stride, pad }
    }

    #[test]
    fn output_dims() {
        let g = geom(1, 28, 28, 5, 1, 0);
        assert_eq!(g.out_h(), 24);
        assert_eq!(g.out_w(), 24);
        let g2 = geom(3, 32, 32, 5, 1, 2);
        assert_eq!(g2.out_h(), 32);
        let g3 = geom(1, 8, 8, 2, 2, 0);
        assert_eq!(g3.out_h(), 4);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: cols should equal the image.
        let g = geom(2, 3, 3, 1, 1, 0);
        let img: Vec<f32> = (0..18).map(|v| v as f32).collect();
        let mut cols = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&img, &g, &mut cols);
        assert_eq!(cols, img);
    }

    #[test]
    fn im2col_known_patches() {
        // 2x2 image, 2x2 kernel -> a single column containing the image.
        let g = geom(1, 2, 2, 2, 1, 0);
        let img = vec![1.0, 2.0, 3.0, 4.0];
        let mut cols = vec![0.0; 4];
        im2col(&img, &g, &mut cols);
        assert_eq!(cols, img);
    }

    #[test]
    fn im2col_padding_zeros() {
        let g = geom(1, 1, 1, 3, 1, 1);
        let img = vec![5.0];
        let mut cols = vec![-1.0; g.col_rows() * g.col_cols()];
        im2col(&img, &g, &mut cols);
        // Only the center tap sees the pixel.
        let center = 4; // row index (ky=1, kx=1) in a 3x3 kernel
        for (row, chunk) in cols.chunks(g.col_cols()).enumerate() {
            if row == center {
                assert_eq!(chunk, &[5.0]);
            } else {
                assert_eq!(chunk, &[0.0]);
            }
        }
    }

    /// Elementwise reference for the optimised core: the old per-element
    /// bounds-checked loop.
    fn im2col_reference(image: &[f32], g: &ConvGeom, cols: &mut [f32]) {
        let (c, h, w) = (g.channels, g.height, g.width);
        let (oh, ow) = (g.out_h(), g.out_w());
        let pad = g.pad as isize;
        for ch in 0..c {
            for ky in 0..g.kh {
                for kx in 0..g.kw {
                    let row = (ch * g.kh + ky) * g.kw + kx;
                    for oy in 0..oh {
                        let iy = (oy * g.stride) as isize + ky as isize - pad;
                        for ox in 0..ow {
                            let ix = (ox * g.stride) as isize + kx as isize - pad;
                            let inside = iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize;
                            cols[row * oh * ow + oy * ow + ox] = if inside {
                                image[(ch * h + iy as usize) * w + ix as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_matches_elementwise_reference() {
        let mut rng = SeededRng::new(43);
        for &(c, h, w, k, s, p) in &[
            (1, 6, 6, 3, 1, 0),
            (2, 8, 7, 3, 2, 1),
            (3, 5, 5, 5, 1, 2),
            (1, 4, 9, 3, 3, 2),
            (2, 1, 1, 3, 1, 1),
        ] {
            let g = geom_full(c, h, w, k, s, p);
            let x = uniform(&[c * h * w], -1.0, 1.0, &mut rng);
            let mut fast = vec![0.0; g.col_rows() * g.col_cols()];
            let mut slow = vec![0.0; fast.len()];
            im2col(x.data(), &g, &mut fast);
            im2col_reference(x.data(), &g, &mut slow);
            assert_eq!(fast, slow, "geometry {g:?}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        let mut rng = SeededRng::new(21);
        for &(c, h, w, k, s, p) in &[(1, 6, 6, 3, 1, 0), (2, 8, 7, 3, 2, 1), (3, 5, 5, 5, 1, 2)] {
            let g = geom_full(c, h, w, k, s, p);
            let x = uniform(&[c * h * w], -1.0, 1.0, &mut rng);
            let y = uniform(&[g.col_rows() * g.col_cols()], -1.0, 1.0, &mut rng);
            let mut cols = vec![0.0; y.len()];
            im2col(x.data(), &g, &mut cols);
            let lhs: f32 = cols.iter().zip(y.data()).map(|(a, b)| a * b).sum();
            let mut xg = vec![0.0; x.len()];
            col2im(y.data(), &g, &mut xg);
            let rhs: f32 = x.data().iter().zip(xg.iter()).map(|(a, b)| a * b).sum();
            assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
        }
    }

    fn geom_full(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> ConvGeom {
        ConvGeom { channels: c, height: h, width: w, kh: k, kw: k, stride: s, pad: p }
    }

    #[test]
    fn im2col_batch_blocks_match_single_image_calls() {
        let mut rng = SeededRng::new(47);
        for &(n, c, h, w, k, s, p) in
            &[(1, 2, 7, 7, 3, 1, 1), (3, 2, 8, 6, 3, 2, 1), (2, 1, 5, 5, 5, 1, 2)]
        {
            let g = geom_full(c, h, w, k, s, p);
            let imgs = uniform(&[n * c * h * w], -1.0, 1.0, &mut rng);
            let (cr, cc) = (g.col_rows(), g.col_cols());
            let mut fused = vec![0.0; cr * n * cc];
            im2col_batch(imgs.data(), &g, n, &mut fused);
            for i in 0..n {
                let mut single = vec![0.0; cr * cc];
                im2col(&imgs.data()[i * c * h * w..(i + 1) * c * h * w], &g, &mut single);
                for r in 0..cr {
                    assert_eq!(
                        &fused[r * n * cc + i * cc..r * n * cc + (i + 1) * cc],
                        &single[r * cc..(r + 1) * cc],
                        "sample {i} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn col2im_batch_is_adjoint_of_im2col_batch() {
        let mut rng = SeededRng::new(53);
        for &(n, c, h, w, k, s, p) in &[(2, 2, 6, 6, 3, 1, 0), (3, 1, 8, 7, 3, 2, 1)] {
            let g = geom_full(c, h, w, k, s, p);
            let x = uniform(&[n * c * h * w], -1.0, 1.0, &mut rng);
            let y = uniform(&[g.col_rows() * n * g.col_cols()], -1.0, 1.0, &mut rng);
            let mut cols = vec![0.0; y.len()];
            im2col_batch(x.data(), &g, n, &mut cols);
            let lhs: f32 = cols.iter().zip(y.data()).map(|(a, b)| a * b).sum();
            let mut xg = vec![9.0; x.len()]; // col2im_batch must overwrite
            col2im_batch(y.data(), &g, n, &mut xg);
            let rhs: f32 = x.data().iter().zip(xg.iter()).map(|(a, b)| a * b).sum();
            assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch {lhs} vs {rhs}");
        }
    }

    #[test]
    fn direct_conv_delta_kernel_is_identity() {
        // A delta kernel (1 at center, pad to keep size) reproduces the input.
        let g = geom(1, 4, 4, 3, 1, 1);
        let img: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let mut wdata = vec![0.0; 9];
        wdata[4] = 1.0;
        let w = Tensor::from_vec(vec![1, 1, 3, 3], wdata).unwrap();
        let out = direct_conv2d_single(&img, &w, None, &g);
        assert_eq!(out, img);
    }

    #[test]
    fn im2col_matmul_matches_direct_conv() {
        let mut rng = SeededRng::new(31);
        let g = geom(2, 7, 7, 3, 1, 1);
        let cout = 4;
        let img = uniform(&[2 * 7 * 7], -1.0, 1.0, &mut rng);
        let w = uniform(&[cout, 2, 3, 3], -0.5, 0.5, &mut rng);
        let bias = uniform(&[cout], -0.1, 0.1, &mut rng);
        let mut cols = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(img.data(), &g, &mut cols);
        let cols_t = Tensor::from_vec(vec![g.col_rows(), g.col_cols()], cols).unwrap();
        let wmat = w.reshape(&[cout, g.col_rows()]).unwrap();
        let mut fast = crate::linalg::matmul(&wmat, &cols_t).into_vec();
        for oc in 0..cout {
            for v in &mut fast[oc * g.col_cols()..(oc + 1) * g.col_cols()] {
                *v += bias.data()[oc];
            }
        }
        let direct = direct_conv2d_single(img.data(), &w, Some(bias.data()), &g);
        crate::assert_slice_close(&fast, &direct, 1e-4, 1e-4);
    }

    #[test]
    #[should_panic(expected = "image length mismatch")]
    fn im2col_rejects_bad_image() {
        let g = geom(1, 4, 4, 3, 1, 0);
        let mut cols = vec![0.0; g.col_rows() * g.col_cols()];
        im2col(&[0.0; 3], &g, &mut cols);
    }

    #[test]
    fn taps_supported_gates_geometry() {
        assert!(taps_supported(&geom(3, 32, 32, 5, 1, 0))); // ow = 28
        assert!(taps_supported(&geom(6, 14, 14, 5, 1, 0))); // ow = 10
        assert!(!taps_supported(&geom(3, 32, 32, 5, 1, 2))); // padded
        assert!(!taps_supported(&geom(3, 32, 32, 5, 2, 0))); // strided
        assert!(!taps_supported(&geom(1, 10, 10, 4, 1, 0))); // ow = 7 < 8
        assert!(!taps_supported(&geom(1, 64, 64, 3, 1, 0))); // ow = 62 > 48
    }

    #[test]
    fn dense_taps_match_direct_conv() {
        let mut rng = SeededRng::new(61);
        // Exercises all dispatch arms: ow = 8, 10, 16, 28, 36.
        for &(c, hw, k, cout) in &[
            (1usize, 12usize, 5usize, 3usize),
            (6, 14, 5, 16),
            (2, 18, 3, 4),
            (3, 32, 5, 6),
            (2, 38, 3, 5),
        ] {
            let g = geom(c, hw, hw, k, 1, 0);
            assert!(taps_supported(&g), "{g:?}");
            let batch = 2;
            let imgs = uniform(&[batch * c * hw * hw], -1.0, 1.0, &mut rng);
            let w = uniform(&[cout, c, k, k], -0.5, 0.5, &mut rng);
            let bias = uniform(&[cout], -0.1, 0.1, &mut rng);
            let (tap_ptr, taps) = build_taps_dense(w.data(), &g, cout);
            let (oh, ow) = (g.out_h(), g.out_w());
            let mut out = vec![0.0f32; batch * cout * oh * ow];
            conv2d_taps_batch(imgs.data(), &g, batch, &tap_ptr, &taps, bias.data(), &mut out);
            for i in 0..batch {
                let img = &imgs.data()[i * c * hw * hw..(i + 1) * c * hw * hw];
                let oracle = direct_conv2d_single(img, &w, Some(bias.data()), &g);
                crate::assert_slice_close(
                    &out[i * cout * oh * ow..(i + 1) * cout * oh * ow],
                    &oracle,
                    1e-4,
                    1e-4,
                );
            }
        }
    }

    #[test]
    fn sparse_taps_match_direct_conv_on_masked_weights() {
        use crate::sparse::RowPattern;
        let mut rng = SeededRng::new(67);
        let (c, hw, k, cout) = (3, 32, 5, 6);
        let g = geom(c, hw, hw, k, 1, 0);
        let cr = g.col_rows();
        let mut w = uniform(&[cout, c, k, k], -0.5, 0.5, &mut rng);
        // Unstructured ~50% mask; row 2 fully pruned (bias plane).
        let mut bits = vec![0.0f32; cout * cr];
        for (t, bit) in bits.iter_mut().enumerate() {
            if t % 2 == 0 && !(cr * 2..cr * 3).contains(&t) {
                *bit = 1.0;
            }
        }
        for (v, &bit) in w.data_mut().iter_mut().zip(&bits) {
            *v *= bit;
        }
        let pat = RowPattern::from_mask(cout, cr, &bits);
        let bias = uniform(&[cout], -0.1, 0.1, &mut rng);
        let (tap_ptr, taps) = build_taps_sparse(&pat, w.data(), &g);
        assert_eq!(taps.len(), pat.nnz());
        let batch = 2;
        let imgs = uniform(&[batch * c * hw * hw], -1.0, 1.0, &mut rng);
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = vec![0.0f32; batch * cout * oh * ow];
        conv2d_taps_batch(imgs.data(), &g, batch, &tap_ptr, &taps, bias.data(), &mut out);
        for i in 0..batch {
            let img = &imgs.data()[i * c * hw * hw..(i + 1) * c * hw * hw];
            let oracle = direct_conv2d_single(img, &w, Some(bias.data()), &g);
            crate::assert_slice_close(
                &out[i * cout * oh * ow..(i + 1) * cout * oh * ow],
                &oracle,
                1e-4,
                1e-4,
            );
        }
        // The fully-pruned channel is an exact bias plane.
        let plane = &out[2 * oh * ow..3 * oh * ow];
        assert!(plane.iter().all(|&v| v == bias.data()[2]));
    }

    #[test]
    fn sparse_taps_with_full_mask_are_bitwise_dense() {
        use crate::sparse::RowPattern;
        let mut rng = SeededRng::new(71);
        let (c, hw, k, cout) = (2, 14, 5, 4);
        let g = geom(c, hw, hw, k, 1, 0);
        let w = uniform(&[cout, c, k, k], -0.5, 0.5, &mut rng);
        let bias = uniform(&[cout], -0.1, 0.1, &mut rng);
        let bits = vec![1.0f32; cout * g.col_rows()];
        let pat = RowPattern::from_mask(cout, g.col_rows(), &bits);
        let (dp, dt) = build_taps_dense(w.data(), &g, cout);
        let (sp, st) = build_taps_sparse(&pat, w.data(), &g);
        assert_eq!(dp, sp);
        assert_eq!(dt, st);
        let imgs = uniform(&[c * hw * hw], -1.0, 1.0, &mut rng);
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut dense = vec![0.0f32; cout * oh * ow];
        let mut sparse = vec![0.0f32; cout * oh * ow];
        conv2d_taps_batch(imgs.data(), &g, 1, &dp, &dt, bias.data(), &mut dense);
        conv2d_taps_batch(imgs.data(), &g, 1, &sp, &st, bias.data(), &mut sparse);
        assert_eq!(dense, sparse);
    }

    #[test]
    #[should_panic(expected = "unsupported geometry")]
    fn taps_batch_rejects_padded_geometry() {
        let g = geom(1, 8, 8, 3, 1, 1);
        let mut out = vec![0.0; 64];
        conv2d_taps_batch(&[0.0; 64], &g, 1, &[0, 0], &[], &[0.0], &mut out);
    }
}
