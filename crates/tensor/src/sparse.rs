//! Mask-derived compressed-row kernels.
//!
//! Sub-FedAvg clients train under a fixed binary `ModelMask` for the
//! whole round: masked weights are exactly `0.0` and stay zero through
//! every SGD step (the optimiser re-zeros them). That makes the sparsity
//! *structural* — the set of kept positions is known up front — so instead
//! of testing every weight against zero inside the dense kernels, we build
//! a [`RowPattern`] (CSR + CSC index structure, no values) **once per
//! round** and run kernels that only ever touch kept entries.
//!
//! Values are *not* stored in the pattern: weights change on every SGD
//! step while the pattern does not, so the kernels gather values from the
//! live dense weight tensor at use time. Three kernels cover both layer
//! types in forward and backward:
//!
//! * [`spmm`]          — `C = W · B` (forward lowering),
//! * [`spmm_t`]        — `C = Wᵀ · B` (input gradient),
//! * [`masked_dot_nt`] — `C = A · Bᵀ` evaluated only at kept positions
//!   (weight gradient; masked positions are written as `0.0`, which is
//!   exactly what the masked optimiser step would produce).
//!
//! # Register blocking
//!
//! Both matrix-matrix kernels process kept entries in **groups of four**
//! against an L1-resident output panel of [`PANEL`] columns: four B rows
//! feed one output row through a nested four-deep [`fmadd`] chain, so
//! each loaded C element absorbs four multiply-adds before being stored
//! back. `spmm` walks the CSR side (kept columns per output row);
//! `spmm_t` walks the CSC side (kept rows per output row) — gather form,
//! replacing the old scatter-axpy whose single-row updates wrote each C
//! element once per kept entry. Work still scales with the number of
//! kept weights, which is where the paper's ~2.4× FLOP-reduction claim
//! becomes wall-clock time.
//!
//! # Determinism
//!
//! Each output element is one fixed fmadd chain over the kept indices in
//! ascending order, grouped in fours with a single-step tail — a pure
//! function of the pattern, never of panelling or blocking. The
//! [`spmm_reference`]/[`spmm_t_reference`] oracles replay that chain one
//! element at a time; the property tests assert **bitwise** equality
//! against them, not closeness.
//!
//! `ModelMask` lives in `subfed-nn`; this crate only sees raw mask bits
//! (`0.0`/`1.0` slices), keeping the dependency direction intact.

use crate::linalg::{dot, fmadd};

/// Output-column panel width of the sparse kernels: one output row slice
/// of `PANEL` floats plus four B row slices stay L1-resident.
pub const PANEL: usize = 512;

/// Density at or below which the sparse kernels beat the blocked dense
/// path on the shapes this repo trains (see `docs/PERFORMANCE.md`).
/// Layers denser than this should stay on the dense kernels.
pub const SPARSE_DENSITY_MAX: f32 = 0.75;

/// Dual CSR/CSC pattern over a `rows × cols` weight matrix: per row, the
/// sorted column indices of *kept* (unmasked) entries, and per column,
/// the sorted row indices of the same entries. Indices only — the weight
/// values are read from the dense tensor at kernel-call time. Both sides
/// are built once in [`from_mask`](Self::from_mask) (cold, once per
/// round) so forward and backward each stream their natural side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPattern {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
}

impl RowPattern {
    /// Builds the pattern from row-major mask bits (`0.0` = pruned,
    /// anything else = kept), matching `ModelMask` semantics.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != rows * cols` or the matrix is too large
    /// for `u32` indexing (never the case for the paper's models).
    pub fn from_mask(rows: usize, cols: usize, bits: &[f32]) -> Self {
        assert_eq!(bits.len(), rows * cols, "mask bits length mismatch");
        assert!(rows <= u32::MAX as usize, "row count overflows u32");
        assert!(cols <= u32::MAX as usize, "column count overflows u32");
        assert!(bits.len() <= u32::MAX as usize, "pattern size overflows u32");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0u32);
        for row_bits in bits.chunks_exact(cols.max(1)).take(rows) {
            for (c, &bit) in row_bits.iter().enumerate() {
                // lint: allow(float-eq)
                if bit != 0.0 {
                    col_idx.push(c as u32);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        // Transpose the index structure (counting sort by column). Row
        // indices come out ascending within each column because rows are
        // visited in order — the CSC-side kernels rely on that for their
        // fixed reduction chains.
        let mut col_ptr = vec![0u32; cols + 1];
        for &c in &col_idx {
            col_ptr[c as usize + 1] += 1;
        }
        for c in 0..cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let mut cursor: Vec<u32> = col_ptr[..cols].to_vec();
        let mut row_idx = vec![0u32; col_idx.len()];
        for r in 0..rows {
            let lo = row_ptr[r] as usize;
            let hi = row_ptr[r + 1] as usize;
            for &c in &col_idx[lo..hi] {
                let slot = cursor[c as usize];
                row_idx[slot as usize] = r as u32;
                cursor[c as usize] = slot + 1;
            }
        }
        Self { rows, cols, row_ptr, col_idx, col_ptr, row_idx }
    }

    /// Number of matrix rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of matrix columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of kept entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Kept fraction in `[0, 1]`; `1.0` for a degenerate empty matrix.
    pub fn density(&self) -> f32 {
        let total = self.rows * self.cols;
        if total == 0 {
            1.0
        } else {
            self.nnz() as f32 / total as f32
        }
    }

    /// Kept column indices of row `r`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[u32] {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        &self.col_idx[lo..hi]
    }

    /// Kept row indices of column `c`, sorted ascending (the CSC side).
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> &[u32] {
        let lo = self.col_ptr[c] as usize;
        let hi = self.col_ptr[c + 1] as usize;
        &self.row_idx[lo..hi]
    }
}

/// Rectangular factorisation of a [`RowPattern`]: every kept row shares
/// the same column support, so the kept entries form a dense
/// `keep_rows × used_cols` sub-matrix.
///
/// This is exactly the shape structured (channel) pruning produces —
/// removing an output channel empties a whole row, removing an input
/// channel removes the same column block from every row — so a layer
/// whose pattern factorises could run as a physically smaller dense
/// layer. Like [`RowPattern`], no weight values are stored. No kernel
/// consumes the rectangle yet; it tells which masks are structured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RectPattern {
    rows: usize,
    cols: usize,
    keep_rows: Vec<u32>,
    used_cols: Vec<u32>,
}

impl RectPattern {
    /// Returns the rectangle when `pat` is rectangular — every non-empty
    /// row has the identical column support — and `None` otherwise
    /// (unstructured masks almost never qualify).
    pub fn from_pattern(pat: &RowPattern) -> Option<Self> {
        let keep_rows: Vec<u32> =
            (0..pat.rows()).filter(|&r| !pat.row(r).is_empty()).map(|r| r as u32).collect();
        let used_cols: Vec<u32> = match keep_rows.first() {
            Some(&first) => pat.row(first as usize).to_vec(),
            None => Vec::new(),
        };
        for &r in &keep_rows {
            if pat.row(r as usize) != used_cols.as_slice() {
                return None;
            }
        }
        Some(Self { rows: pat.rows(), cols: pat.cols(), keep_rows, used_cols })
    }

    /// Total rows of the underlying (uncompacted) matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total columns of the underlying (uncompacted) matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Indices of the kept rows, sorted ascending.
    pub fn keep_rows(&self) -> &[u32] {
        &self.keep_rows
    }

    /// Shared column support of the kept rows, sorted ascending.
    pub fn used_cols(&self) -> &[u32] {
        &self.used_cols
    }
}

/// Inner step shared by both g4 kernels: accumulates four scaled B rows
/// into one output row slice through a nested fmadd chain — four
/// multiply-adds per loaded C element, all in one vectorised zip.
#[inline(always)]
fn g4_accumulate(crow: &mut [f32], w: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    let iter = crow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3);
    for ((((cj, &v0), &v1), &v2), &v3) in iter {
        *cj = fmadd(w[3], v3, fmadd(w[2], v2, fmadd(w[1], v1, fmadd(w[0], v0, *cj))));
    }
}

/// Single-step tail of the g4 chain: `crow += w · brow`, fused.
#[inline(always)]
fn g1_accumulate(crow: &mut [f32], w: f32, brow: &[f32]) {
    for (cj, &v) in crow.iter_mut().zip(brow) {
        *cj = fmadd(w, v, *cj);
    }
}

/// `C = W · B` where only the kept entries of `W` (row-major
/// `rows × cols`, read from `vals`) participate. `B` is `[cols, n]`,
/// `out` is `[rows, n]` and is overwritten.
///
/// Register-blocked as described in the module header: kept columns in
/// ascending groups of four against a [`PANEL`]-wide L1-resident output
/// slice. Bit-identical to [`spmm_reference`] by construction.
///
/// # Panics
///
/// Panics if any slice length disagrees with the pattern and `n`.
pub fn spmm(pat: &RowPattern, vals: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(vals.len(), pat.rows * pat.cols, "spmm: vals length mismatch");
    assert_eq!(b.len(), pat.cols * n, "spmm: rhs length mismatch");
    assert_eq!(out.len(), pat.rows * n, "spmm: out length mismatch");
    out.fill(0.0);
    if n == 0 {
        return;
    }
    let mut j0 = 0;
    while j0 < n {
        let jn = PANEL.min(n - j0);
        for r in 0..pat.rows {
            let crow = &mut out[r * n + j0..r * n + j0 + jn];
            let vrow = &vals[r * pat.cols..(r + 1) * pat.cols];
            let mut quads = pat.row(r).chunks_exact(4);
            for quad in quads.by_ref() {
                let (c0, c1, c2, c3) =
                    (quad[0] as usize, quad[1] as usize, quad[2] as usize, quad[3] as usize);
                g4_accumulate(
                    crow,
                    [vrow[c0], vrow[c1], vrow[c2], vrow[c3]],
                    &b[c0 * n + j0..][..jn],
                    &b[c1 * n + j0..][..jn],
                    &b[c2 * n + j0..][..jn],
                    &b[c3 * n + j0..][..jn],
                );
            }
            for &ci in quads.remainder() {
                let c = ci as usize;
                g1_accumulate(crow, vrow[c], &b[c * n + j0..][..jn]);
            }
        }
        j0 += jn;
    }
}

/// `C = Wᵀ · B` where only the kept entries of `W` participate. `B` is
/// `[rows, n]`, `out` is `[cols, n]` and is overwritten (pruned rows of
/// `Wᵀ` yield zero rows).
///
/// Gather form over the CSC side: output row `c` accumulates the kept
/// rows of column `c` in ascending groups of four — the same g4 chain as
/// [`spmm`], so each C element is loaded once per quad instead of once
/// per kept entry as in the old scatter-axpy. Bit-identical to
/// [`spmm_t_reference`] by construction.
///
/// # Panics
///
/// Panics if any slice length disagrees with the pattern and `n`.
pub fn spmm_t(pat: &RowPattern, vals: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(vals.len(), pat.rows * pat.cols, "spmm_t: vals length mismatch");
    assert_eq!(b.len(), pat.rows * n, "spmm_t: rhs length mismatch");
    assert_eq!(out.len(), pat.cols * n, "spmm_t: out length mismatch");
    let mut j0 = 0;
    while j0 < n {
        let jn = PANEL.min(n - j0);
        for c in 0..pat.cols {
            let crow = &mut out[c * n + j0..c * n + j0 + jn];
            gather_t_row(crow, pat.col(c), |r| vals[r * pat.cols + c], b, n, j0);
        }
        j0 += jn;
    }
}

/// One panel of one output row of `C = Wᵀ · B`, overwritten:
/// `crow[j] = Σ w(r) · b[r·n + j0 + j]` over the `kept` rows, as the fmadd
/// chain from `+0.0` in ascending groups of four (see the module header).
/// Shared by [`spmm_t`] and the streamed convolution input gradient.
#[inline(always)]
pub(crate) fn gather_t_row(
    crow: &mut [f32],
    kept: &[u32],
    w: impl Fn(usize) -> f32,
    b: &[f32],
    n: usize,
    j0: usize,
) {
    let jn = crow.len();
    crow.fill(0.0);
    let mut quads = kept.chunks_exact(4);
    for quad in quads.by_ref() {
        let (r0, r1, r2, r3) =
            (quad[0] as usize, quad[1] as usize, quad[2] as usize, quad[3] as usize);
        g4_accumulate(
            crow,
            [w(r0), w(r1), w(r2), w(r3)],
            &b[r0 * n + j0..][..jn],
            &b[r1 * n + j0..][..jn],
            &b[r2 * n + j0..][..jn],
            &b[r3 * n + j0..][..jn],
        );
    }
    for &ri in quads.remainder() {
        let r = ri as usize;
        g1_accumulate(crow, w(r), &b[r * n + j0..][..jn]);
    }
}

/// `C = A · Bᵀ` evaluated **only at kept positions** of the pattern;
/// every pruned position of `out` is written as `0.0`. `A` is `[rows, n]`,
/// `B` is `[cols, n]`, `out` is `[rows, cols]` and is overwritten.
///
/// This is the weight-gradient kernel: under a fixed mask the optimiser
/// zeroes pruned-weight gradients anyway, so skipping them here is exact,
/// not approximate. Each kept entry is one contiguous sixteen-lane
/// [`dot`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the pattern and `n`.
pub fn masked_dot_nt(pat: &RowPattern, a: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), pat.rows * n, "masked_dot_nt: lhs length mismatch");
    assert_eq!(b.len(), pat.cols * n, "masked_dot_nt: rhs length mismatch");
    assert_eq!(out.len(), pat.rows * pat.cols, "masked_dot_nt: out length mismatch");
    out.fill(0.0);
    for r in 0..pat.rows {
        let arow = &a[r * n..(r + 1) * n];
        let orow = &mut out[r * pat.cols..(r + 1) * pat.cols];
        for &ci in pat.row(r) {
            let c = ci as usize;
            orow[c] = dot(arow, &b[c * n..(c + 1) * n]);
        }
    }
}

/// Scalar same-chain oracle for [`spmm`]: one output element at a time,
/// replaying exactly the ascending four-grouped fmadd chain the blocked
/// kernel runs. The property tests assert `spmm` matches this
/// **bitwise** — panelling and register blocking must not change a
/// single ULP. Intentionally slow; test/diagnostic use only.
///
/// # Panics
///
/// Panics if any slice length disagrees with the pattern and `n`.
pub fn spmm_reference(pat: &RowPattern, vals: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(vals.len(), pat.rows * pat.cols, "spmm: vals length mismatch");
    assert_eq!(b.len(), pat.cols * n, "spmm: rhs length mismatch");
    assert_eq!(out.len(), pat.rows * n, "spmm: out length mismatch");
    for r in 0..pat.rows {
        let vrow = &vals[r * pat.cols..(r + 1) * pat.cols];
        for j in 0..n {
            let mut acc = 0.0f32;
            let mut quads = pat.row(r).chunks_exact(4);
            for quad in quads.by_ref() {
                let (c0, c1, c2, c3) =
                    (quad[0] as usize, quad[1] as usize, quad[2] as usize, quad[3] as usize);
                acc = fmadd(
                    vrow[c3],
                    b[c3 * n + j],
                    fmadd(
                        vrow[c2],
                        b[c2 * n + j],
                        fmadd(vrow[c1], b[c1 * n + j], fmadd(vrow[c0], b[c0 * n + j], acc)),
                    ),
                );
            }
            for &ci in quads.remainder() {
                let c = ci as usize;
                acc = fmadd(vrow[c], b[c * n + j], acc);
            }
            out[r * n + j] = acc;
        }
    }
}

/// Scalar same-chain oracle for [`spmm_t`] (see [`spmm_reference`]).
///
/// # Panics
///
/// Panics if any slice length disagrees with the pattern and `n`.
pub fn spmm_t_reference(pat: &RowPattern, vals: &[f32], b: &[f32], n: usize, out: &mut [f32]) {
    assert_eq!(vals.len(), pat.rows * pat.cols, "spmm_t: vals length mismatch");
    assert_eq!(b.len(), pat.rows * n, "spmm_t: rhs length mismatch");
    assert_eq!(out.len(), pat.cols * n, "spmm_t: out length mismatch");
    for c in 0..pat.cols {
        for j in 0..n {
            let mut acc = 0.0f32;
            let mut quads = pat.col(c).chunks_exact(4);
            for quad in quads.by_ref() {
                let (r0, r1, r2, r3) =
                    (quad[0] as usize, quad[1] as usize, quad[2] as usize, quad[3] as usize);
                acc = fmadd(
                    vals[r3 * pat.cols + c],
                    b[r3 * n + j],
                    fmadd(
                        vals[r2 * pat.cols + c],
                        b[r2 * n + j],
                        fmadd(
                            vals[r1 * pat.cols + c],
                            b[r1 * n + j],
                            fmadd(vals[r0 * pat.cols + c], b[r0 * n + j], acc),
                        ),
                    ),
                );
            }
            for &ri in quads.remainder() {
                let r = ri as usize;
                acc = fmadd(vals[r * pat.cols + c], b[r * n + j], acc);
            }
            out[c * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_slice_close;
    use crate::init::{uniform, SeededRng};
    use crate::linalg::{matmul, matmul_nt, matmul_tn};
    use crate::Tensor;

    /// Random 0/1 mask with roughly `density` kept bits.
    fn random_mask(rows: usize, cols: usize, density: f32, rng: &mut SeededRng) -> Vec<f32> {
        (0..rows * cols)
            .map(|_| if rng.uniform_f32(0.0, 1.0) < density { 1.0 } else { 0.0 })
            .collect()
    }

    fn masked_tensor(shape: &[usize], bits: &[f32], rng: &mut SeededRng) -> Tensor {
        let mut w = uniform(shape, -1.0, 1.0, rng);
        for (v, &bit) in w.data_mut().iter_mut().zip(bits) {
            *v *= bit;
        }
        w
    }

    #[test]
    fn pattern_counts_and_rows() {
        let bits = vec![1.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let pat = RowPattern::from_mask(2, 3, &bits);
        assert_eq!((pat.rows(), pat.cols(), pat.nnz()), (2, 3, 2));
        assert_eq!(pat.row(0), &[0, 2]);
        assert_eq!(pat.row(1), &[] as &[u32]);
        assert!((pat.density() - 2.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn csc_side_transposes_the_csr_side() {
        let mut rng = SeededRng::new(43);
        let bits = random_mask(7, 11, 0.4, &mut rng);
        let pat = RowPattern::from_mask(7, 11, &bits);
        let mut seen = 0;
        for c in 0..11 {
            let col = pat.col(c);
            assert!(col.windows(2).all(|w| w[0] < w[1]), "col {c} not strictly ascending");
            for &r in col {
                assert!(pat.row(r as usize).contains(&(c as u32)));
            }
            seen += col.len();
        }
        assert_eq!(seen, pat.nnz());
    }

    #[test]
    fn spmm_matches_dense_masked_matmul() {
        let mut rng = SeededRng::new(31);
        for &(rows, cols, n, density) in
            &[(6, 75, 98, 0.5), (5, 7, 1, 0.3), (4, 9, 300, 0.1), (3, 8, 4, 1.0), (2, 6, 5, 0.0)]
        {
            let bits = random_mask(rows, cols, density, &mut rng);
            let w = masked_tensor(&[rows, cols], &bits, &mut rng);
            let bm = uniform(&[cols, n], -1.0, 1.0, &mut rng);
            let pat = RowPattern::from_mask(rows, cols, &bits);
            let mut out = vec![0.0f32; rows * n];
            spmm(&pat, w.data(), bm.data(), n, &mut out);
            assert_slice_close(&out, matmul(&w, &bm).data(), 1e-4, 1e-4);
        }
    }

    #[test]
    fn spmm_bitwise_matches_reference_chain() {
        let mut rng = SeededRng::new(47);
        // n > PANEL exercises the panel loop; the chain must not notice.
        for &(rows, cols, n, density) in &[(6, 75, 700, 0.5), (9, 33, 17, 0.2), (4, 150, 5, 0.9)] {
            let bits = random_mask(rows, cols, density, &mut rng);
            let w = masked_tensor(&[rows, cols], &bits, &mut rng);
            let bm = uniform(&[cols, n], -1.0, 1.0, &mut rng);
            let pat = RowPattern::from_mask(rows, cols, &bits);
            let mut blocked = vec![0.0f32; rows * n];
            let mut reference = vec![0.0f32; rows * n];
            spmm(&pat, w.data(), bm.data(), n, &mut blocked);
            spmm_reference(&pat, w.data(), bm.data(), n, &mut reference);
            assert_eq!(blocked, reference);
        }
    }

    #[test]
    fn spmm_t_matches_dense_masked_matmul_tn() {
        let mut rng = SeededRng::new(37);
        for &(rows, cols, n, density) in &[(6, 75, 98, 0.5), (5, 7, 1, 0.25), (3, 4, 6, 0.0)] {
            let bits = random_mask(rows, cols, density, &mut rng);
            let w = masked_tensor(&[rows, cols], &bits, &mut rng);
            let bm = uniform(&[rows, n], -1.0, 1.0, &mut rng);
            let pat = RowPattern::from_mask(rows, cols, &bits);
            let mut out = vec![0.0f32; cols * n];
            spmm_t(&pat, w.data(), bm.data(), n, &mut out);
            assert_slice_close(&out, matmul_tn(&w, &bm).data(), 1e-4, 1e-4);
        }
    }

    #[test]
    fn spmm_t_bitwise_matches_reference_chain() {
        let mut rng = SeededRng::new(53);
        for &(rows, cols, n, density) in &[(6, 75, 700, 0.5), (33, 9, 17, 0.2), (150, 4, 5, 0.9)] {
            let bits = random_mask(rows, cols, density, &mut rng);
            let w = masked_tensor(&[rows, cols], &bits, &mut rng);
            let bm = uniform(&[rows, n], -1.0, 1.0, &mut rng);
            let pat = RowPattern::from_mask(rows, cols, &bits);
            let mut blocked = vec![0.0f32; cols * n];
            let mut reference = vec![0.0f32; cols * n];
            spmm_t(&pat, w.data(), bm.data(), n, &mut blocked);
            spmm_t_reference(&pat, w.data(), bm.data(), n, &mut reference);
            assert_eq!(blocked, reference);
        }
    }

    #[test]
    fn masked_dot_nt_matches_masked_dense_product() {
        let mut rng = SeededRng::new(41);
        for &(rows, cols, n, density) in &[(6, 75, 98, 0.5), (4, 5, 1, 0.4), (3, 6, 9, 0.0)] {
            let bits = random_mask(rows, cols, density, &mut rng);
            let a = uniform(&[rows, n], -1.0, 1.0, &mut rng);
            let bm = uniform(&[cols, n], -1.0, 1.0, &mut rng);
            let pat = RowPattern::from_mask(rows, cols, &bits);
            let mut out = vec![0.0f32; rows * cols];
            masked_dot_nt(&pat, a.data(), bm.data(), n, &mut out);
            let mut dense = matmul_nt(&a, &bm);
            for (v, &bit) in dense.data_mut().iter_mut().zip(&bits) {
                *v *= bit;
            }
            assert_slice_close(&out, dense.data(), 1e-4, 1e-4);
        }
    }

    #[test]
    fn fully_pruned_rows_yield_zero_output() {
        let pat = RowPattern::from_mask(3, 4, &[0.0; 12]);
        let vals = vec![9.0f32; 12];
        let bm = vec![1.0f32; 4 * 5];
        let mut out = vec![7.0f32; 3 * 5];
        spmm(&pat, &vals, &bm, 5, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_width_rhs_is_fine() {
        let pat = RowPattern::from_mask(2, 3, &[1.0; 6]);
        let vals = vec![1.0f32; 6];
        let mut out = vec![0.0f32; 0];
        spmm(&pat, &vals, &[], 0, &mut out);
        spmm_t(&pat, &vals, &[], 0, &mut out);
        let mut dw = vec![1.0f32; 6];
        masked_dot_nt(&pat, &[], &[], 0, &mut dw);
        assert!(dw.iter().all(|&v| v == 0.0));
    }
}
