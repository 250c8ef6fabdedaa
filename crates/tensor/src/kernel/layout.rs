//! Operand layouts and panel packing for the blocked GEMM kernels.
//!
//! The tiled kernels never walk an operand's natural storage in the hot
//! loop. Instead each (KC × NC) block of B and (MC × KC) block of A is
//! packed into contiguous k-major *panels* sized for the register
//! micro-kernel ([`MR`] × [`NR`]), so the innermost loop streams both
//! operands with unit stride regardless of how the source is stored —
//! row-major, transposed, or a virtual im2col view that never
//! materialises (see `kernel::conv`).
//!
//! Edge tiles are zero-padded during packing: a panel always holds a
//! whole number of MR (or NR) lanes, and the micro-kernel masks the
//! store instead of branching per element. Padding lanes multiply into
//! accumulator slots that are never written back, so they cannot
//! perturb results.

/// Rows of the register micro-kernel (accumulator tile height). 8×8
/// gives the FMA units eight independent accumulator chains per column
/// lane — enough to hide the FMA latency — while the tile (64 doubles)
/// still fits the vector register file of every AVX-class target.
pub const MR: usize = 8;

/// Columns of the register micro-kernel (accumulator tile width).
pub const NR: usize = 8;

/// Cache-blocking parameters for the tiled GEMM: C is swept in
/// `mc`-row bands, the k dimension in `kc` slices, and B in `nc`-column
/// blocks (the BLIS loop nest). The defaults suit the workloads in this
/// repo (operands ≤ a few MB, f64); `fedperf` ships a tile-size sweep
/// bench to re-measure them on new hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blocking {
    /// Row-band height of C processed per A-pack (L2-resident).
    pub mc: usize,
    /// Depth of one packed k-slice (shared by the A and B panels).
    pub kc: usize,
    /// Column width of one packed B block.
    pub nc: usize,
}

impl Blocking {
    /// Blocking with explicit tile sizes (all must be ≥ 1).
    pub const fn new(mc: usize, kc: usize, nc: usize) -> Self {
        assert!(mc >= 1 && kc >= 1 && nc >= 1, "Blocking: tile sizes must be >= 1");
        Blocking { mc, kc, nc }
    }

    /// Doubles of packed-panel budget for [`Blocking::for_shape`]
    /// (256 KiB — comfortably L2-resident on every target we run on).
    const PACK_BUDGET: usize = 32 * 1024;

    /// Blocking adapted to one GEMM shape: when a whole dimension's
    /// packed panels fit [`Self::PACK_BUDGET`], the block grows to
    /// cover it in one piece. A single k slice keeps every C element
    /// on the store-only fast path (no tile reload between slices),
    /// and a single B block avoids re-packing A per column block —
    /// both dominate at the skinny shapes conv lowers to. Blocking
    /// never changes results (each C element's accumulation chain
    /// stays in k order regardless), so this is purely a perf choice.
    pub fn for_shape(m: usize, n: usize, k: usize) -> Self {
        let d = Blocking::default();
        let kc = if m.saturating_mul(k) <= Self::PACK_BUDGET { k.max(1) } else { d.kc };
        let kb = kc.min(k.max(1));
        let nc = if kb.saturating_mul(n) <= Self::PACK_BUDGET { n.max(1) } else { d.nc };
        Blocking { mc: d.mc, kc, nc }
    }
}

impl Default for Blocking {
    fn default() -> Self {
        Blocking { mc: 64, kc: 256, nc: 256 }
    }
}

/// A read-only GEMM operand: anything that can answer "element (i, j)"
/// for a logical `rows × cols` matrix. Implemented by [`MatRef`] (dense,
/// optionally transposed) and by the conv module's virtual im2col view.
///
/// `at` must be cheap and pure — it is called once per element during
/// packing, never from the micro-kernel.
pub trait GemmSource: Sync {
    /// Logical row count.
    fn src_rows(&self) -> usize;
    /// Logical column count.
    fn src_cols(&self) -> usize;
    /// Element at logical position `(i, j)`.
    fn at(&self, i: usize, j: usize) -> f64;

    /// Write `lane[j] = at(row, j0 + j)`. [`pack_b`] reads the source
    /// one row lane at a time through this hook, so implementations can
    /// hoist per-row work (strides, tap tables) out of the element loop
    /// or substitute a contiguous copy. Must write exactly what `at`
    /// would return.
    #[inline]
    fn fill_row(&self, row: usize, j0: usize, lane: &mut [f64]) {
        for (j, slot) in lane.iter_mut().enumerate() {
            *slot = self.at(row, j0 + j);
        }
    }

    /// Write `lane[i] = at(i0 + i, col)` — the column-lane counterpart
    /// of [`GemmSource::fill_row`], used by [`pack_a`].
    #[inline]
    fn fill_col(&self, col: usize, i0: usize, lane: &mut [f64]) {
        for (i, slot) in lane.iter_mut().enumerate() {
            *slot = self.at(i0 + i, col);
        }
    }

    /// Row `(row, j0 .. j0 + len)` as a borrowed contiguous slice, when
    /// the source stores logical rows contiguously. The packers use this
    /// to copy straight from storage with no per-lane call overhead.
    ///
    /// Contract: a source must answer uniformly — `Some` for every
    /// in-bounds request or `None` for all of them — because the packers
    /// probe once and then assume the answer holds for the whole block.
    #[inline]
    fn row_slice(&self, _row: usize, _j0: usize, _len: usize) -> Option<&[f64]> {
        None
    }
}

/// Dense matrix view over a flat row-major buffer, with strides so a
/// transposed operand costs nothing to express (no copy, no transpose).
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    /// Storage stride between logical rows.
    rs: usize,
    /// Storage stride between logical columns.
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// View `data` as a row-major `rows × cols` matrix.
    pub fn new(data: &'a [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "MatRef: buffer length mismatch");
        MatRef { data, rows, cols, rs: cols, cs: 1 }
    }

    /// View `data` (stored row-major as `cols × rows`) as its transpose:
    /// a logical `rows × cols` matrix with element `(i, j)` read from
    /// stored position `(j, i)`.
    pub fn transposed(data: &'a [f64], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "MatRef::transposed: buffer length mismatch");
        MatRef { data, rows, cols, rs: 1, cs: rows }
    }
}

impl GemmSource for MatRef<'_> {
    #[inline]
    fn src_rows(&self) -> usize {
        self.rows
    }

    #[inline]
    fn src_cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.rs + j * self.cs]
    }

    #[inline]
    fn fill_row(&self, row: usize, j0: usize, lane: &mut [f64]) {
        let start = row * self.rs + j0 * self.cs;
        if self.cs == 1 {
            lane.copy_from_slice(&self.data[start..start + lane.len()]);
        } else {
            for (j, slot) in lane.iter_mut().enumerate() {
                *slot = self.data[start + j * self.cs];
            }
        }
    }

    #[inline]
    fn fill_col(&self, col: usize, i0: usize, lane: &mut [f64]) {
        let start = i0 * self.rs + col * self.cs;
        if self.rs == 1 {
            lane.copy_from_slice(&self.data[start..start + lane.len()]);
        } else {
            for (i, slot) in lane.iter_mut().enumerate() {
                *slot = self.data[start + i * self.rs];
            }
        }
    }

    #[inline]
    fn row_slice(&self, row: usize, j0: usize, len: usize) -> Option<&[f64]> {
        if self.cs == 1 {
            let start = row * self.rs + j0;
            Some(&self.data[start..start + len])
        } else {
            None
        }
    }
}

/// Pack the `mb × kb` block of `a` starting at `(i0, p0)` into k-major
/// MR-row panels: `buf[panel][k * MR + i]`. Rows past `mb` in the last
/// panel are zero.
///
/// Sources that expose contiguous rows ([`GemmSource::row_slice`]) are
/// transposed in MR-column strips — each strip's 64-double destination
/// block stays cache-resident across the row sweep, instead of paying
/// one `fill_col` call (strided gather) per packed k.
pub fn pack_a<S: GemmSource>(
    a: &S,
    i0: usize,
    mb: usize,
    p0: usize,
    kb: usize,
    buf: &mut Vec<f64>,
) {
    let panels = mb.div_ceil(MR);
    let needed = panels * kb * MR;
    // Grow-only: slack beyond `needed` (left by a larger earlier block)
    // is never read, so no per-call memset of the whole buffer.
    // Growth depends on the largest block this thread has packed, so it
    // is kept out of span alloc columns.
    if buf.len() < needed {
        fedprox_telemetry::untracked(|| buf.resize(needed, 0.0));
    }
    let dense_rows = a.row_slice(i0, p0, kb).is_some();
    for panel in 0..panels {
        let ibase = i0 + panel * MR;
        let rows = MR.min(mb - panel * MR);
        let dst = &mut buf[panel * kb * MR..(panel + 1) * kb * MR];
        if rows < MR {
            // Ragged tail: the dead lanes feed accumulator rows that are
            // never stored back, but zeroing them keeps panel contents
            // deterministic (and cheap — at most one panel per pack).
            dst.fill(0.0);
        }
        if dense_rows {
            for kblk in (0..kb).step_by(MR) {
                let kw = MR.min(kb - kblk);
                for i in 0..rows {
                    if let Some(row) = a.row_slice(ibase + i, p0 + kblk, kw) {
                        for (kk, &v) in row.iter().enumerate() {
                            dst[(kblk + kk) * MR + i] = v;
                        }
                    }
                }
            }
        } else {
            for k in 0..kb {
                a.fill_col(p0 + k, ibase, &mut dst[k * MR..k * MR + rows]);
            }
        }
    }
}

/// Pack the `kb × nb` block of `b` starting at `(p0, j0)` into k-major
/// NR-column panels: `buf[panel][k * NR + j]`. Columns past `nb` in the
/// last panel are zero.
///
/// The walk is row-outer: each source row is materialised once — as a
/// borrowed [`GemmSource::row_slice`] when storage allows, otherwise via
/// a single full-width `fill_row` into scratch space at the tail of
/// `buf` — and then split across the panels. Virtual sources (the conv
/// im2col views) thus run their per-row window setup once per row, not
/// once per panel lane.
pub fn pack_b<S: GemmSource>(
    b: &S,
    p0: usize,
    kb: usize,
    j0: usize,
    nb: usize,
    buf: &mut Vec<f64>,
) {
    let panels = nb.div_ceil(NR);
    let needed = panels * kb * NR;
    let dense_rows = b.row_slice(p0, j0, nb).is_some();
    let total = if dense_rows { needed } else { needed + nb };
    // Grow-only; see pack_a for the padding rationale.
    if buf.len() < total {
        fedprox_telemetry::untracked(|| buf.resize(total, 0.0));
    }
    let (dst, scratch) = buf.split_at_mut(needed);
    if !nb.is_multiple_of(NR) {
        dst[(panels - 1) * kb * NR..panels * kb * NR].fill(0.0);
    }
    for k in 0..kb {
        let row: &[f64] = match b.row_slice(p0 + k, j0, nb) {
            Some(r) => r,
            None => {
                let s = &mut scratch[..nb];
                b.fill_row(p0 + k, j0, s);
                s
            }
        };
        for panel in 0..panels {
            let cols = NR.min(nb - panel * NR);
            let off = panel * kb * NR + k * NR;
            dst[off..off + cols].copy_from_slice(&row[panel * NR..panel * NR + cols]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matref_transposed_reads_the_transpose() {
        // Stored 2x3 row-major; viewed as its 3x2 transpose.
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let t = MatRef::transposed(&data, 3, 2);
        assert_eq!((t.src_rows(), t.src_cols()), (3, 2));
        assert_eq!(t.at(0, 0), 1.0);
        assert_eq!(t.at(0, 1), 4.0);
        assert_eq!(t.at(2, 1), 6.0);
    }

    #[test]
    fn pack_a_zero_pads_the_ragged_panel() {
        // MR + 1 rows -> 2 panels; second panel has 1 real row.
        let rows = MR + 1;
        let cols = 3;
        let data: Vec<f64> = (0..rows * cols).map(|v| v as f64).collect();
        let a = MatRef::new(&data, rows, cols);
        let mut buf = Vec::new();
        pack_a(&a, 0, rows, 0, cols, &mut buf);
        assert_eq!(buf.len(), 2 * cols * MR);
        // Panel 0, k = 1, lane holds column 1 of rows 0..MR.
        let want: Vec<f64> = (0..MR).map(|i| (i * cols + 1) as f64).collect();
        assert_eq!(&buf[MR..2 * MR], &want[..]);
        // Panel 1, k = 0: the last row then zero padding.
        let mut want = [0.0; MR];
        want[0] = (MR * cols) as f64;
        assert_eq!(&buf[cols * MR..cols * MR + MR], &want[..]);
    }

    #[test]
    fn pack_b_zero_pads_the_ragged_panel() {
        // 2 x (NR + 2) block -> 2 panels; second panel has 2 real cols.
        let n = NR + 2;
        let data: Vec<f64> = (0..2 * n).map(|v| v as f64).collect();
        let b = MatRef::new(&data, 2, n);
        let mut buf = Vec::new();
        pack_b(&b, 0, 2, 0, n, &mut buf);
        assert_eq!(buf.len(), 2 * 2 * NR);
        // Panel 0, k = 0: columns 0..NR of row 0.
        let want: Vec<f64> = (0..NR).map(|v| v as f64).collect();
        assert_eq!(&buf[..NR], &want[..]);
        // Panel 1, k = 0: the 2 trailing columns of row 0, zero padded.
        let mut want = [0.0; NR];
        want[0] = NR as f64;
        want[1] = (NR + 1) as f64;
        assert_eq!(&buf[2 * NR..3 * NR], &want[..]);
    }
}
