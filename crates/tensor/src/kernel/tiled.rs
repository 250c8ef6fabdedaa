//! Cache-blocked, register-tiled kernels.
//!
//! The GEMM follows the BLIS loop nest: B is packed per (KC × NC)
//! block, A per (MC × KC) band, and an MR × NR register micro-kernel
//! sweeps the packed panels. The bitwise-determinism contract with the
//! scalar reference (see `kernel::reference`) holds because every
//! output element is accumulated by a single f64 chain in strictly
//! increasing k order: the first KC slice starts each tile from
//! literal zeros and overwrites C (IEEE `0.0 + x` makes that bitwise
//! the chain's first step), every later slice loads C back into the
//! accumulator tile, adds its products in k order, and stores — exactly
//! the rounding sequence of the naive i-j-k loop, just interleaved
//! across the tile.
//!
//! Parallel mode partitions C into disjoint MC row bands and dispatches
//! them over rayon. There is no reduction at all — each band owns its
//! output rows outright — so the parallel result is bitwise identical
//! to sequential *by construction*, not by tolerance. (The vendored
//! rayon shim runs `par_chunks_mut` sequentially; the invariant is what keeps
//! the strict path reproducible if a real thread pool is dropped in.)
//!
//! Packing buffers live in thread-locals so steady-state calls allocate
//! nothing (the fedperf alloc columns gate on this).

use super::layout::{pack_a, pack_b, Blocking, GemmSource, MR, NR};
use rayon::prelude::*;
use std::cell::RefCell;

/// Minimum output elements before the row-band dispatch fans out to
/// rayon; below this the pool overhead dominates.
const GEMM_PAR_THRESHOLD: usize = 64 * 64;

/// Row chunk handed to each rayon task by the parallel matvec.
const MATVEC_PAR_ROWS: usize = 64;

/// Minimum `m * k` before matvec fans out.
const MATVEC_PAR_THRESHOLD: usize = 64 * 1024;

/// Column block width for the transposed matvec (keeps the streamed
/// output slice cache-resident across the row sweep).
const MATVEC_T_BLOCK: usize = 2048;

thread_local! {
    static PACK_A_BUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    static PACK_B_BUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Register micro-kernel over the leading `W ≤ NR` tile columns:
/// `tile[i][j] += Σ_p ap[p, i] · bp[p, j]` for one packed KC slice.
/// `tile` holds the C tile for the duration, so each element's
/// additions stay a single chain in increasing p order.
///
/// Shape notes that keep this on the fast path: `chunks_exact` gives
/// the optimiser compile-time lane lengths (no bounds checks in the
/// p loop), and the constant-bound i/j loops over a nested array let
/// it promote the whole accumulator tile into vector registers. `W` is
/// const so narrow edge panels don't pay for the columns they drop: a
/// 1-wide panel at `W = NR` would spend 8× the FMAs it keeps.
#[inline(always)]
fn micro_kernel_w<const W: usize>(kb: usize, ap: &[f64], bp: &[f64], tile: &mut [[f64; NR]; MR]) {
    debug_assert!(W <= NR && ap.len() == kb * MR && bp.len() == kb * NR);
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for i in 0..MR {
            let a = av[i];
            for j in 0..W {
                tile[i][j] += a * bv[j];
            }
        }
    }
}

/// Full-width micro-kernel (the common case).
#[inline(always)]
fn micro_kernel(kb: usize, ap: &[f64], bp: &[f64], tile: &mut [[f64; NR]; MR]) {
    micro_kernel_w::<NR>(kb, ap, bp, tile);
}

/// Narrow-panel micro-kernel dispatch: rounds `nr` up to the next
/// {1, 2, 4, 8} width so dead columns cost at most 2× (they feed tile
/// slots the caller never stores).
#[inline(always)]
fn micro_kernel_narrow(nr: usize, kb: usize, ap: &[f64], bp: &[f64], tile: &mut [[f64; NR]; MR]) {
    match nr {
        1 => micro_kernel_w::<1>(kb, ap, bp, tile),
        2 => micro_kernel_w::<2>(kb, ap, bp, tile),
        3 | 4 => micro_kernel_w::<4>(kb, ap, bp, tile),
        _ => micro_kernel_w::<NR>(kb, ap, bp, tile),
    }
}

/// One full MR × NR tile of C against packed panels. `first_slice`
/// means C holds no prior partial sums for this block (first KC slice,
/// not accumulating): the tile then starts from literal zeros and
/// *overwrites* C — bitwise identical to loading the zeros (IEEE
/// `0.0 + x` reproduces the naive chain's first step exactly) but with
/// no tile load at all. Later slices load C by value (`try_into` keeps
/// the length compile-time, so the tile stays in registers).
#[inline(always)]
fn tile_full(
    kb: usize,
    ap: &[f64],
    bp: &[f64],
    cband: &mut [f64],
    base0: usize,
    ldc: usize,
    first_slice: bool,
) {
    let mut tile = if first_slice {
        [[0.0f64; NR]; MR]
    } else {
        std::array::from_fn(|i| {
            let base = base0 + i * ldc;
            match <[f64; NR]>::try_from(&cband[base..base + NR]) {
                Ok(row) => row,
                Err(_) => unreachable!("slice length is exactly NR"),
            }
        })
    };
    micro_kernel(kb, ap, bp, &mut tile);
    for (i, row) in tile.iter().enumerate() {
        let base = base0 + i * ldc;
        cband[base..base + NR].copy_from_slice(row);
    }
}

/// An edge tile (`mr < MR` and/or `nr < NR`): same contract as
/// [`tile_full`] with runtime lane lengths.
#[allow(clippy::too_many_arguments)]
fn tile_edge(
    kb: usize,
    ap: &[f64],
    bp: &[f64],
    cband: &mut [f64],
    base0: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
    first_slice: bool,
) {
    let mut tile = [[0.0f64; NR]; MR];
    if !first_slice {
        for (i, row) in tile.iter_mut().enumerate().take(mr) {
            let base = base0 + i * ldc;
            row[..nr].copy_from_slice(&cband[base..base + nr]);
        }
    }
    micro_kernel_narrow(nr, kb, ap, bp, &mut tile);
    for (i, row) in tile.iter().enumerate().take(mr) {
        let base = base0 + i * ldc;
        cband[base..base + nr].copy_from_slice(&row[..nr]);
    }
}

/// One MC row band of C against the packed B block: packs the band of
/// A (thread-local) and runs the micro-kernel over every register tile.
/// `cband` is the band's full-width rows (`mb × ldc`); the block's
/// columns start at `jc`. With `first_slice` set, every tile overwrites
/// its C elements (see [`tile_full`]), which is what lets the caller
/// skip zero-filling C up front.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<A: GemmSource>(
    a: &A,
    ic: usize,
    mb: usize,
    pc: usize,
    kb: usize,
    jc: usize,
    nb: usize,
    bp: &[f64],
    cband: &mut [f64],
    ldc: usize,
    first_slice: bool,
) {
    PACK_A_BUF.with(|buf| {
        let ap = &mut *buf.borrow_mut();
        pack_a(a, ic, mb, pc, kb, ap);
        for jr in (0..nb).step_by(NR) {
            let nr = NR.min(nb - jr);
            let bpanel = &bp[(jr / NR) * kb * NR..(jr / NR + 1) * kb * NR];
            for ir in (0..mb).step_by(MR) {
                let mr = MR.min(mb - ir);
                let apanel = &ap[(ir / MR) * kb * MR..(ir / MR + 1) * kb * MR];
                let base0 = ir * ldc + jc + jr;
                if mr == MR && nr == NR {
                    tile_full(kb, apanel, bpanel, cband, base0, ldc, first_slice);
                } else {
                    tile_edge(kb, apanel, bpanel, cband, base0, ldc, mr, nr, first_slice);
                }
            }
        }
    });
}

/// Blocked GEMM: `c (+)= a · b` for any pair of [`GemmSource`]
/// operands. `c` is `m × n` row-major; when `accumulate` is false it is
/// zeroed first (the micro-kernel then *loads* the zeros, which is
/// bitwise the same as starting each chain at 0.0).
#[allow(clippy::too_many_arguments)]
pub fn gemm<A: GemmSource, B: GemmSource>(
    a: &A,
    b: &B,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
    accumulate: bool,
    bl: Blocking,
    parallel: bool,
) {
    debug_assert_eq!(a.src_rows(), m);
    debug_assert_eq!(a.src_cols(), k);
    debug_assert_eq!(b.src_rows(), k);
    debug_assert_eq!(b.src_cols(), n);
    assert_eq!(c.len(), m * n, "gemm: output length mismatch");
    if m == 0 || n == 0 || k == 0 {
        // Nothing to accumulate; honour the overwrite contract.
        if !accumulate {
            c.fill(0.0);
        }
        return;
    }
    // No up-front zero fill when overwriting: the first KC slice's tiles
    // write every C element via the store-only path (see tile_full).
    let fan_out = parallel && m > bl.mc && m * n >= GEMM_PAR_THRESHOLD;
    for jc in (0..n).step_by(bl.nc) {
        let nb = bl.nc.min(n - jc);
        for pc in (0..k).step_by(bl.kc) {
            let kb = bl.kc.min(k - pc);
            let first_slice = pc == 0 && !accumulate;
            PACK_B_BUF.with(|buf| {
                let bp = &mut *buf.borrow_mut();
                pack_b(b, pc, kb, jc, nb, bp);
                if fan_out {
                    c.par_chunks_mut(bl.mc * n).enumerate().for_each(|(band, cband)| {
                        let ic = band * bl.mc;
                        let mb = bl.mc.min(m - ic);
                        macro_kernel(a, ic, mb, pc, kb, jc, nb, bp, cband, n, first_slice);
                    });
                } else {
                    for (band, cband) in c.chunks_mut(bl.mc * n).enumerate() {
                        let ic = band * bl.mc;
                        let mb = bl.mc.min(m - ic);
                        macro_kernel(a, ic, mb, pc, kb, jc, nb, bp, cband, n, first_slice);
                    }
                }
            });
        }
    }
}

/// Rows sharing one streamed pass over `x` in the blocked matvec
/// (independent of the GEMM tile height).
const MV_ROWS: usize = 4;

/// Row-blocked matvec: four rows share each streamed load of `x`, each
/// row keeping its own sequential accumulator chain (bitwise equal to a
/// per-row `vecops::dot`).
fn matvec_rows(a: &[f64], k: usize, r0: usize, out: &mut [f64], x: &[f64]) {
    let rows = out.len();
    let mut rb = 0;
    while rb + MV_ROWS <= rows {
        let base = (r0 + rb) * k;
        let row0 = &a[base..base + k];
        let row1 = &a[base + k..base + 2 * k];
        let row2 = &a[base + 2 * k..base + 3 * k];
        let row3 = &a[base + 3 * k..base + 4 * k];
        let mut s = [0.0f64; MV_ROWS];
        for (kk, &xv) in x.iter().enumerate() {
            s[0] += row0[kk] * xv;
            s[1] += row1[kk] * xv;
            s[2] += row2[kk] * xv;
            s[3] += row3[kk] * xv;
        }
        out[rb..rb + MV_ROWS].copy_from_slice(&s);
        rb += MV_ROWS;
    }
    for (i, o) in out.iter_mut().enumerate().skip(rb) {
        let row = &a[(r0 + i) * k..(r0 + i + 1) * k];
        let mut s = 0.0;
        for (av, xv) in row.iter().zip(x) {
            s += av * xv;
        }
        *o = s;
    }
}

/// Tiled matvec `out = a · x` (`a` is `m × k` row-major). Parallel mode
/// partitions the output rows into disjoint chunks — reduction-free, so
/// bitwise identical to sequential.
pub fn matvec(a: &[f64], m: usize, k: usize, x: &[f64], out: &mut [f64], parallel: bool) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(x.len(), k);
    debug_assert_eq!(out.len(), m);
    if parallel && m * k >= MATVEC_PAR_THRESHOLD && m > MATVEC_PAR_ROWS {
        out.par_chunks_mut(MATVEC_PAR_ROWS).enumerate().for_each(|(band, chunk)| {
            matvec_rows(a, k, band * MATVEC_PAR_ROWS, chunk, x);
        });
    } else {
        matvec_rows(a, k, 0, out, x);
    }
}

/// One column block of the transposed matvec: sweeps all rows, so each
/// output element accumulates in increasing r order (the reference
/// order), while the written slice stays cache-resident.
fn matvec_t_block(a: &[f64], m: usize, k: usize, j0: usize, out_block: &mut [f64], x: &[f64]) {
    let width = out_block.len();
    for (r, &xr) in x.iter().enumerate().take(m) {
        let row = &a[r * k + j0..r * k + j0 + width];
        for (o, &av) in out_block.iter_mut().zip(row) {
            *o += xr * av;
        }
    }
}

/// Tiled transposed matvec `out = aᵀ · x`. Parallel mode partitions the
/// output columns into disjoint blocks — again reduction-free and
/// bitwise identical to sequential.
pub fn matvec_t(a: &[f64], m: usize, k: usize, x: &[f64], out: &mut [f64], parallel: bool) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(x.len(), m);
    debug_assert_eq!(out.len(), k);
    out.fill(0.0);
    if parallel && m * k >= MATVEC_PAR_THRESHOLD && k > MATVEC_T_BLOCK {
        out.par_chunks_mut(MATVEC_T_BLOCK).enumerate().for_each(|(band, block)| {
            matvec_t_block(a, m, k, band * MATVEC_T_BLOCK, block, x);
        });
    } else {
        for (band, block) in out.chunks_mut(MATVEC_T_BLOCK).enumerate() {
            matvec_t_block(a, m, k, band * MATVEC_T_BLOCK, block, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::layout::MatRef;
    use super::super::reference;
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 2.0 - 1.0
            })
            .collect()
    }

    /// The in-crate smoke check; the exhaustive sweep (boundary sizes,
    /// strides, parallel mode) lives in tests/cpu_reference.rs.
    #[test]
    fn gemm_matches_reference_bitwise_across_tile_edges() {
        for &(m, n, k) in &[(1, 1, 1), (4, 8, 16), (5, 9, 17), (13, 7, 3), (65, 33, 70)] {
            let a = pseudo(m * k, 3);
            let b = pseudo(k * n, 5);
            let ar = MatRef::new(&a, m, k);
            let br = MatRef::new(&b, k, n);
            let mut want = vec![0.0; m * n];
            reference::gemm_ref(&ar, &br, &mut want, m, n, k, false);
            let mut got = vec![0.0; m * n];
            let small = Blocking::new(8, 8, 16);
            gemm(&ar, &br, &mut got, m, n, k, false, small, false);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "({m},{n},{k})");
            }
        }
    }

    #[test]
    fn matvec_matches_reference_bitwise() {
        let (m, k) = (9, 13);
        let a = pseudo(m * k, 7);
        let x = pseudo(k, 8);
        let xt = pseudo(m, 9);
        let mut want = vec![0.0; m];
        reference::matvec_ref(&a, m, k, &x, &mut want);
        let mut got = vec![0.0; m];
        matvec(&a, m, k, &x, &mut got, false);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let mut want_t = vec![0.0; k];
        reference::matvec_t_ref(&a, m, k, &xt, &mut want_t);
        let mut got_t = vec![0.0; k];
        matvec_t(&a, m, k, &xt, &mut got_t, false);
        assert_eq!(
            got_t.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want_t.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
