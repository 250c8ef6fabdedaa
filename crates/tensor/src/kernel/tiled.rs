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
//! The kernels are single-threaded. Parallelism lives one level up, in
//! the round's fan-out over devices, which already occupies every core;
//! a kernel-level split nested inside it could only oversubscribe them.
//!
//! Packing buffers live in thread-locals so steady-state calls allocate
//! nothing (the fedperf alloc columns gate on this).

use super::layout::{pack_a, pack_b, Blocking, GemmSource, MR, NR};
use std::cell::RefCell;

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
    for jc in (0..n).step_by(bl.nc) {
        let nb = bl.nc.min(n - jc);
        for pc in (0..k).step_by(bl.kc) {
            let kb = bl.kc.min(k - pc);
            let first_slice = pc == 0 && !accumulate;
            PACK_B_BUF.with(|buf| {
                let bp = &mut *buf.borrow_mut();
                pack_b(b, pc, kb, jc, nb, bp);
                for (band, cband) in c.chunks_mut(bl.mc * n).enumerate() {
                    let ic = band * bl.mc;
                    let mb = bl.mc.min(m - ic);
                    macro_kernel(a, ic, mb, pc, kb, jc, nb, bp, cband, n, first_slice);
                }
            });
        }
    }
}

/// Widest row block the matvec runs as one interleaved pass; a matrix
/// of at most this many rows (the 10-class heads) is a single block.
/// Wider blocks spill their accumulators and row pointers: measured on
/// an AVX-512 Xeon at k = 784, 4–10 rows cost ~0.26–0.30 ns per
/// multiply-add, 11–12 rows ~0.35–0.41 ns and one row 0.75 ns.
const MV_MAX_ROWS: usize = 10;
/// Row block for taller matrices, until at most [`MV_MAX_ROWS`] remain.
const MV_ROWS: usize = 8;
/// `x` elements consumed per step of a row block's pass.
const MV_LANES: usize = 4;

/// `out[r] = Σ_kk a[r, kk] · x[kk]` for the `R` rows of `a`, all rows
/// interleaved in one pass over `x`. Each output keeps its own
/// sequential chain from 0.0 in increasing `kk` order, so the bits are
/// [`super::reference::matvec_ref`]'s; interleaving only hides the
/// add latency of one chain behind the others.
#[inline(always)]
fn matvec_rows<const R: usize>(a: &[f64], k: usize, x: &[f64], out: &mut [f64]) {
    let x = &x[..k];
    // `[..k]` makes every row's length `k` visible to the optimiser, so
    // the indexing below needs no bounds checks.
    let rows: [&[f64]; R] = std::array::from_fn(|r| &a[r * k..][..k]);
    let mut s = [0.0f64; R];
    // Four `x` lanes per step: each row loads its four weights as one
    // contiguous chunk, then adds the four products to its chain in
    // `kk` order.
    let mut xs = x.chunks_exact(MV_LANES);
    let mut kk = 0;
    for xc in &mut xs {
        for (acc, row) in s.iter_mut().zip(&rows) {
            let c = &row[kk..kk + MV_LANES];
            for (av, xv) in c.iter().zip(xc) {
                *acc += av * xv;
            }
        }
        kk += MV_LANES;
    }
    for (j, &xv) in xs.remainder().iter().enumerate() {
        for (acc, row) in s.iter_mut().zip(&rows) {
            *acc += row[kk + j] * xv;
        }
    }
    out[..R].copy_from_slice(&s);
}

/// One block of `rows ≤ MV_MAX_ROWS` rows through its const-width pass.
fn matvec_block(rows: usize, a: &[f64], k: usize, x: &[f64], out: &mut [f64]) {
    match rows {
        0 => {}
        1 => matvec_rows::<1>(a, k, x, out),
        2 => matvec_rows::<2>(a, k, x, out),
        3 => matvec_rows::<3>(a, k, x, out),
        4 => matvec_rows::<4>(a, k, x, out),
        5 => matvec_rows::<5>(a, k, x, out),
        6 => matvec_rows::<6>(a, k, x, out),
        7 => matvec_rows::<7>(a, k, x, out),
        8 => matvec_rows::<8>(a, k, x, out),
        9 => matvec_rows::<9>(a, k, x, out),
        _ => matvec_rows::<MV_MAX_ROWS>(a, k, x, out),
    }
}

/// Tiled matvec `out = a · x` (`a` is `m × k` row-major). Rows go in
/// blocks of [`MV_ROWS`] until at most [`MV_MAX_ROWS`] remain, which
/// then run as one block, so no row is ever a lone dependent chain.
/// Every output is bitwise a per-row `vecops::dot`.
pub fn matvec(a: &[f64], m: usize, k: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(x.len(), k);
    debug_assert_eq!(out.len(), m);
    let mut rb = 0;
    while m - rb > MV_MAX_ROWS {
        matvec_rows::<MV_ROWS>(&a[rb * k..], k, x, &mut out[rb..]);
        rb += MV_ROWS;
    }
    matvec_block(m - rb, &a[rb * k..], k, x, &mut out[rb..]);
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

/// Tiled transposed matvec `out = aᵀ · x`, one column block at a time.
pub fn matvec_t(a: &[f64], m: usize, k: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(x.len(), m);
    debug_assert_eq!(out.len(), k);
    out.fill(0.0);
    for (band, block) in out.chunks_mut(MATVEC_T_BLOCK).enumerate() {
        matvec_t_block(a, m, k, band * MATVEC_T_BLOCK, block, x);
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
    /// strides) lives in tests/cpu_reference.rs.
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
            gemm(&ar, &br, &mut got, m, n, k, false, small);
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
        matvec(&a, m, k, &x, &mut got);
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let mut want_t = vec![0.0; k];
        reference::matvec_t_ref(&a, m, k, &xt, &mut want_t);
        let mut got_t = vec![0.0; k];
        matvec_t(&a, m, k, &xt, &mut got_t);
        assert_eq!(
            got_t.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want_t.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
