//! CA-CG (paper Algorithm 7) with blockwise and *streaming* matrix powers.
//!
//! One outer iteration advances the solve by `s` conventional CG steps:
//!
//! 1. build the 2s+1 Krylov basis vectors `[P, R]` blockwise (matrix
//!    powers kernel with ghost zones);
//! 2. accumulate the Gram matrix `G = [P,R]ᵀ[P,R]` block by block;
//! 3. run `s` CG steps entirely in 2s+1-dimensional coefficient space
//!    (no slow-memory traffic);
//! 4. recover `[p, r, x] = [P,R]·[p̂, r̂, x̂] + [0, 0, x]`.
//!
//! The **storing** form writes the basis to slow memory in step 1 and
//! re-reads it in step 4: `Θ(s·n)` writes per outer iteration — the same
//! order as `s` steps of CG. The **streaming** form (§8, "streaming matrix
//! powers") discards each basis block after accumulating it into `G`, and
//! *recomputes* it in step 4: only the `3n` output words are written per
//! outer iteration, a `Θ(s)` write reduction for ≤ 2× more reads and
//! flops. Both forms perform identical arithmetic (the tests check
//! bit-identical iterates).
//!
//! The kernel allocates per solve, not per row block: the blocks' ghost
//! ranges are computed once, and the basis of each block is built into
//! one reused workspace per seed (`p` and `r`). Profiling phases
//! (`io.phase`) mark `powers`, `gram`, `inner` and `recover`; they only
//! attribute counts and are no-ops without a probe.

use crate::basis::{h_apply, BasisKind};
use crate::cg::SolveResult;
use crate::counter::IoSink;
use crate::csr::Csr;
use memsim::LINE_WORDS;

/// Options for one CA-CG run.
#[derive(Clone, Debug)]
pub struct CaCgOptions {
    /// Steps per outer iteration.
    pub s: usize,
    pub basis: BasisKind,
    /// Streaming matrix powers: do not store the basis; recompute it for
    /// the recovery step.
    pub streaming: bool,
    /// Row-block size of the blockwise matrix powers kernel.
    pub block_rows: usize,
    pub tol: f64,
    /// Maximum *outer* iterations (each worth `s` CG steps).
    pub max_outer: usize,
}

impl Default for CaCgOptions {
    fn default() -> Self {
        CaCgOptions {
            s: 4,
            basis: BasisKind::Monomial,
            streaming: true,
            block_rows: 64,
            tol: 1e-10,
            max_outer: 1000,
        }
    }
}

/// One row block `[r0, r1)` of the blockwise kernels, with its ghost
/// ranges: `rg[j]` is the row range on which the degree-`j` basis vector
/// must be known so that rows `[r0, r1)` of the degree-`s` vector are
/// computable. The ranges depend only on the matrix and the block, so a
/// solve computes them once, not once per outer iteration. The `r` seed
/// goes to degree `s − 1`, whose ranges are the suffix `rg[1..]` (each
/// range is the reach of the one above it, counted down from `[r0, r1)`).
struct RowBlock {
    r0: usize,
    r1: usize,
    rg: Vec<(usize, usize)>,
}

/// The row blocks of size `bs` covering `a`'s rows, with ghost ranges up
/// to degree `s`.
fn row_blocks(a: &Csr, bs: usize, s: usize) -> Vec<RowBlock> {
    let mut out = Vec::with_capacity(a.rows.div_ceil(bs));
    let mut r0 = 0;
    while r0 < a.rows {
        let r1 = (r0 + bs).min(a.rows);
        let mut rg = vec![(r0, r1); s + 1];
        for j in (0..s).rev() {
            let (lo, hi) = rg[j + 1];
            rg[j] = a.reach_range(lo, hi);
        }
        out.push(RowBlock { r0, r1, rg });
        r0 = r1;
    }
    out
}

/// Compute the basis vectors of degree `0..rg.len()` for seed `v` into
/// the workspace `levels` (one length-`n` vector per degree, reused
/// across blocks and outer iterations): afterwards `levels[j]` holds the
/// degree-`j` vector on `rg[j]`, so the block's own rows sit at
/// `[r0, r1) ⊆ rg[j]`. Entries outside `rg[j]` are stale and never read:
/// `spmv_range` assigns `next[lo..hi]` in full, and its reads of `cur`
/// stay inside `rg[j]`. Charges reads for the seed (resident at nominal
/// address `vseed`) and the matrix rows touched (values at `va`).
#[allow(clippy::too_many_arguments)] // matrix + seed + ranges + workspace + two addresses; the recursion-free body keeps them flat
fn block_powers<S: IoSink>(
    a: &Csr,
    v: &[f64],
    vseed: usize,
    va: usize,
    rg: &[(usize, usize)],
    shifts: &BasisKind,
    levels: &mut [Vec<f64>],
    io: &mut S,
) {
    // Degree 0: read the seed on the widest range.
    let (lo0, hi0) = rg[0];
    io.read_at(vseed + lo0, hi0 - lo0);
    levels[0][lo0..hi0].copy_from_slice(&v[lo0..hi0]);
    for j in 0..rg.len() - 1 {
        let (lo, hi) = rg[j + 1];
        let (done, rest) = levels.split_at_mut(j + 1);
        let (cur, next) = (&done[j], &mut rest[0]);
        a.spmv_range(cur, next, lo, hi);
        // Matrix rows [lo, hi) are read once per level.
        let nnz_rows: usize = a.row_ptr[hi] - a.row_ptr[lo];
        io.read_at(va + a.row_ptr[lo], nnz_rows);
        io.flop(2 * nnz_rows);
        let theta = shifts.shift(j);
        if theta != 0.0 {
            for (y, c) in next[lo..hi].iter_mut().zip(&cur[lo..hi]) {
                *y -= theta * c;
            }
            io.flop(2 * (hi - lo));
        }
    }
}

/// Rows `[r0, r1)` of `p = V·p̂`, `r = V·r̂` and `x += V·x̂`, where `cols`
/// yields the basis columns of `V` in order `0..m` (each summed in that
/// order, so both variants produce the same bits).
fn recover_rows<'a>(
    cols: impl Iterator<Item = &'a Vec<f64>> + Clone,
    (ph, rh, xh): (&[f64], &[f64], &[f64]),
    r0: usize,
    r1: usize,
    p: &mut [f64],
    r: &mut [f64],
    x: &mut [f64],
) {
    for i in r0..r1 {
        let (mut np, mut nr, mut nx) = (0.0, 0.0, 0.0);
        for (j, c) in cols.clone().enumerate() {
            let vij = c[i];
            np += vij * ph[j];
            nr += vij * rh[j];
            nx += vij * xh[j];
        }
        p[i] = np;
        r[i] = nr;
        x[i] += nx;
    }
}

/// CA-CG solve of SPD `A·x = b`. See [`CaCgOptions`]; returns iterates
/// equivalent (in exact arithmetic) to `s·outer` steps of [`crate::cg::cg`].
///
/// Allocation is per solve, not per block: the row blocks' ghost ranges,
/// one basis workspace each for `p` and `r` (length `n` per degree), the
/// storing variant's `V`, and the streaming variant's `p`/`r` snapshots
/// are built once and overwritten in place every outer iteration.
pub fn ca_cg<S: IoSink>(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    opts: &CaCgOptions,
    io: &mut S,
) -> SolveResult {
    let n = a.rows;
    let s = opts.s;
    assert!(s >= 1);
    let m = 2 * s + 1;
    let h = opts.basis.h_matrix(s);
    let blocks = row_blocks(a, opts.block_rows.max(1), s);

    // Nominal slow-memory layout: line-aligned spans for x, r, p, b, the
    // matrix values, and (storing variant) the n×m basis V. The tally
    // ignores the addresses; the simulated sink caches them.
    let n8 = n.div_ceil(LINE_WORDS) * LINE_WORDS;
    let (vx, vr, vp, vb, va) = (0, n8, 2 * n8, 3 * n8, 4 * n8);
    let vv = va + a.nnz().div_ceil(LINE_WORDS) * LINE_WORDS;

    let mut x = x0.to_vec();
    // r = b − A·x0; p = r.
    let mut r = vec![0.0; n];
    a.spmv(&x, &mut r);
    // One message per stream: the matrix, then each n-vector.
    io.read_at(va, a.nnz());
    io.read_at(vx, n);
    io.write_at(vr, n);
    io.flop(2 * a.nnz());
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    io.read_at(vb, n);
    io.read_at(vr, n);
    io.write_at(vr, n);
    let mut p = r.clone();
    io.read_at(vr, n);
    io.write_at(vp, n);

    let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
    let mut delta = r.iter().map(|v| v * v).sum::<f64>();
    io.read_at(vr, n);
    io.flop(2 * n);
    let mut history = vec![delta.sqrt() / bnorm];
    let mut outer = 0;

    // Per-solve workspaces (see the function docs).
    let mut pl = vec![vec![0.0; n]; s + 1];
    let mut rl = vec![vec![0.0; n]; s];
    let mut v_store: Option<Vec<Vec<f64>>> = (!opts.streaming).then(|| vec![vec![0.0; n]; m]);
    let (mut p_old, mut r_old) = if opts.streaming {
        (vec![0.0; n], vec![0.0; n])
    } else {
        (Vec::new(), Vec::new())
    };

    while outer < opts.max_outer && delta.sqrt() / bnorm > opts.tol {
        // ---- Steps 1 + 2: basis and Gram matrix, blockwise. The storing
        // variant also materializes V (n×m) in slow memory.
        let mut g = vec![vec![0.0; m]; m];
        for blk in &blocks {
            let (r0, r1) = (blk.r0, blk.r1);
            io.phase("powers");
            block_powers(a, &p, vp, va, &blk.rg, &opts.basis, &mut pl, io);
            block_powers(a, &r, vr, va, &blk.rg[1..], &opts.basis, &mut rl, io);
            // The block's columns of V = [P, R]: degrees 0..=s of p, then
            // 0..s of r. G += V(I,:)ᵀ V(I,:) over contiguous column
            // slices, each entry summed over ascending rows.
            io.phase("gram");
            let cols = || pl.iter().chain(&rl).map(|c| &c[r0..r1]);
            for (j1, c1) in cols().enumerate() {
                for (j2, c2) in cols().enumerate().skip(j1) {
                    let mut acc = 0.0;
                    for (u, v) in c1.iter().zip(c2) {
                        acc += u * v;
                    }
                    g[j1][j2] += acc;
                    if j1 != j2 {
                        g[j2][j1] = g[j1][j2];
                    }
                }
            }
            io.flop(2 * m * m * (r1 - r0) / 2);
            if let Some(vs) = v_store.as_mut() {
                for (j, (vj, c)) in vs.iter_mut().zip(cols()).enumerate() {
                    vj[r0..r1].copy_from_slice(c);
                    // One write run per basis column block: the storing
                    // variant's Θ(s·n) slow-memory writes.
                    io.write_at(vv + j * n8 + r0, r1 - r0);
                }
            }
        }

        // ---- Step 3: s steps in coefficient space (fast memory only).
        io.phase("inner");
        let mut xh = vec![0.0; m];
        let mut ph = vec![0.0; m];
        ph[0] = 1.0;
        let mut rh = vec![0.0; m];
        rh[s + 1] = 1.0;
        let gdot = |u: &[f64], w: &[f64]| -> f64 {
            let mut acc = 0.0;
            for i in 0..m {
                if u[i] == 0.0 {
                    continue;
                }
                for j in 0..m {
                    acc += u[i] * g[i][j] * w[j];
                }
            }
            acc
        };
        let mut dp = delta;
        let mut breakdown = false;
        for _ in 0..s {
            let wh = h_apply(&h, &ph);
            let denom = gdot(&ph, &wh);
            if !denom.is_finite() || denom.abs() < 1e-300 {
                breakdown = true;
                break;
            }
            let alpha = dp / denom;
            for i in 0..m {
                xh[i] += alpha * ph[i];
                rh[i] -= alpha * wh[i];
            }
            let dc = gdot(&rh, &rh).max(0.0);
            let beta = dc / dp;
            for i in 0..m {
                ph[i] = rh[i] + beta * ph[i];
            }
            dp = dc;
        }

        // ---- Step 4: recover [p, r, x], blockwise (streaming recomputes
        // the basis; storing re-reads it). The streaming recomputation
        // must see the *old* p and r even in ghost zones already
        // overwritten by earlier blocks, so it reads from snapshots (in
        // the real machine these are simply the old locations, with the
        // new vectors written to fresh addresses — no extra traffic).
        io.phase("recover");
        if opts.streaming {
            p_old.copy_from_slice(&p);
            r_old.copy_from_slice(&r);
        }
        let coeffs = (&ph[..], &rh[..], &xh[..]);
        for blk in &blocks {
            let (r0b, r1b) = (blk.r0, blk.r1);
            if let Some(vs) = v_store.as_ref() {
                for j in 0..m {
                    io.read_at(vv + j * n8 + r0b, r1b - r0b);
                }
                recover_rows(vs.iter(), coeffs, r0b, r1b, &mut p, &mut r, &mut x);
            } else {
                // Streaming recomputation reads the *old* p and r at
                // their original addresses (the new vectors land at the
                // same spans only after this block's writes).
                block_powers(a, &p_old, vp, va, &blk.rg, &opts.basis, &mut pl, io);
                block_powers(a, &r_old, vr, va, &blk.rg[1..], &opts.basis, &mut rl, io);
                recover_rows(
                    pl.iter().chain(&rl),
                    coeffs,
                    r0b,
                    r1b,
                    &mut p,
                    &mut r,
                    &mut x,
                );
            }
            io.flop(6 * m * (r1b - r0b));
            // p, r, x — the only writes of the streaming variant.
            io.write_at(vp + r0b, r1b - r0b);
            io.write_at(vr + r0b, r1b - r0b);
            io.write_at(vx + r0b, r1b - r0b);
        }

        delta = dp.max(0.0);
        outer += 1;
        history.push(delta.sqrt() / bnorm);
        if breakdown {
            break;
        }
    }

    let mut ax = vec![0.0; n];
    a.spmv(&x, &mut ax);
    let res = b
        .iter()
        .zip(&ax)
        .map(|(u, v)| (u - v) * (u - v))
        .sum::<f64>()
        .sqrt();
    SolveResult {
        x,
        iters: outer * s,
        residual: res,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg;
    use crate::counter::IoTally;
    use crate::stencil::{band_1d, laplacian_2d};
    use wa_core::XorShift;

    /// The CA-CG kernel before the per-solve workspaces, kept verbatim:
    /// a fresh length-`n` vector (plus a clone) per basis degree per
    /// block, ghost ranges recomputed every outer iteration, and `V` and
    /// the `p`/`r` snapshots allocated per outer iteration. The
    /// stream-identity test pins the current kernel to it.
    mod allocating {
        use super::super::*;

        /// Dependency ranges for one row block: `rg[j]` is the row range on which
        /// the degree-`j` basis vector must be known so that rows `[r0, r1)` of
        /// the degree-`maxdeg` vector are computable.
        fn ghost_ranges(a: &Csr, r0: usize, r1: usize, maxdeg: usize) -> Vec<(usize, usize)> {
            let mut rg = vec![(r0, r1); maxdeg + 1];
            for j in (0..maxdeg).rev() {
                let (lo, hi) = rg[j + 1];
                rg[j] = a.reach_range(lo, hi);
            }
            rg
        }

        /// Compute rows `[r0, r1)` of all basis columns for seed `v` (degree 0) up
        /// to degree `maxdeg`, using ghost zones. Returns, for each degree `j`,
        /// the values on `rg[j]` (so callers can slice out `[r0, r1)`), plus the
        /// ranges. Charges reads for the seed (resident at nominal address
        /// `vseed`) and the matrix rows touched (values at `va`).
        #[allow(clippy::too_many_arguments)] // matrix + seed + range + two addresses; the recursion-free body keeps them flat
        fn block_powers<S: IoSink>(
            a: &Csr,
            v: &[f64],
            vseed: usize,
            va: usize,
            r0: usize,
            r1: usize,
            maxdeg: usize,
            shifts: &BasisKind,
            io: &mut S,
        ) -> (Vec<Vec<f64>>, Vec<(usize, usize)>) {
            let rg = ghost_ranges(a, r0, r1, maxdeg);
            let n = a.rows;
            let mut levels: Vec<Vec<f64>> = Vec::with_capacity(maxdeg + 1);
            // Degree 0: read the seed on the widest range.
            let (lo0, hi0) = rg[0];
            io.read_at(vseed + lo0, hi0 - lo0);
            let mut cur = vec![0.0; n];
            cur[lo0..hi0].copy_from_slice(&v[lo0..hi0]);
            levels.push(cur.clone());
            for j in 0..maxdeg {
                let (lo, hi) = rg[j + 1];
                let mut next = vec![0.0; n];
                a.spmv_range(&cur, &mut next, lo, hi);
                // Matrix rows [lo, hi) are read once per level.
                let nnz_rows: usize = a.row_ptr[hi] - a.row_ptr[lo];
                io.read_at(va + a.row_ptr[lo], nnz_rows);
                io.flop(2 * nnz_rows);
                let theta = shifts.shift(j);
                if theta != 0.0 {
                    for i in lo..hi {
                        next[i] -= theta * cur[i];
                    }
                    io.flop(2 * (hi - lo));
                }
                levels.push(next.clone());
                cur = next;
            }
            (levels, rg)
        }

        /// CA-CG solve of SPD `A·x = b`. See [`CaCgOptions`]; returns iterates
        /// equivalent (in exact arithmetic) to `s·outer` steps of [`crate::cg::cg`].
        pub(super) fn ca_cg<S: IoSink>(
            a: &Csr,
            b: &[f64],
            x0: &[f64],
            opts: &CaCgOptions,
            io: &mut S,
        ) -> SolveResult {
            let n = a.rows;
            let s = opts.s;
            assert!(s >= 1);
            let m = 2 * s + 1;
            let h = opts.basis.h_matrix(s);
            let bs = opts.block_rows.max(1);

            // Nominal slow-memory layout: line-aligned spans for x, r, p, b, the
            // matrix values, and (storing variant) the n×m basis V. The tally
            // ignores the addresses; the simulated sink caches them.
            let n8 = n.div_ceil(LINE_WORDS) * LINE_WORDS;
            let (vx, vr, vp, vb, va) = (0, n8, 2 * n8, 3 * n8, 4 * n8);
            let vv = va + a.nnz().div_ceil(LINE_WORDS) * LINE_WORDS;

            let mut x = x0.to_vec();
            // r = b − A·x0; p = r.
            let mut r = vec![0.0; n];
            a.spmv(&x, &mut r);
            // One message per stream: the matrix, then each n-vector.
            io.read_at(va, a.nnz());
            io.read_at(vx, n);
            io.write_at(vr, n);
            io.flop(2 * a.nnz());
            for i in 0..n {
                r[i] = b[i] - r[i];
            }
            io.read_at(vb, n);
            io.read_at(vr, n);
            io.write_at(vr, n);
            let mut p = r.clone();
            io.read_at(vr, n);
            io.write_at(vp, n);

            let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
            let mut delta = r.iter().map(|v| v * v).sum::<f64>();
            io.read_at(vr, n);
            io.flop(2 * n);
            let mut history = vec![delta.sqrt() / bnorm];
            let mut outer = 0;

            while outer < opts.max_outer && delta.sqrt() / bnorm > opts.tol {
                // ---- Steps 1 + 2: basis and Gram matrix, blockwise. The storing
                // variant also materializes V (n×m) in slow memory.
                let mut g = vec![vec![0.0; m]; m];
                let mut v_store: Option<Vec<Vec<f64>>> = if opts.streaming {
                    None
                } else {
                    Some(vec![vec![0.0; n]; m])
                };
                let mut r0 = 0;
                while r0 < n {
                    let r1 = (r0 + bs).min(n);
                    let (pl, _) = block_powers(a, &p, vp, va, r0, r1, s, &opts.basis, io);
                    let (rl, _) = block_powers(a, &r, vr, va, r0, r1, s - 1, &opts.basis, io);
                    // Column view of this block: degrees 0..s from p, 0..s-1 from r.
                    let col = |j: usize, i: usize| -> f64 {
                        if j <= s {
                            pl[j][i]
                        } else {
                            rl[j - s - 1][i]
                        }
                    };
                    // G += V(I,:)ᵀ V(I,:). Indexing (not iterators): the symmetric
                    // write g[j2][j1] needs the second row by index anyway.
                    #[allow(clippy::needless_range_loop)]
                    for j1 in 0..m {
                        for j2 in j1..m {
                            let mut acc = 0.0;
                            for i in r0..r1 {
                                acc += col(j1, i) * col(j2, i);
                            }
                            g[j1][j2] += acc;
                            if j1 != j2 {
                                g[j2][j1] = g[j1][j2];
                            }
                        }
                    }
                    io.flop(2 * m * m * (r1 - r0) / 2);
                    if let Some(vs) = v_store.as_mut() {
                        for (j, vj) in vs.iter_mut().enumerate() {
                            for (i, v) in vj[r0..r1].iter_mut().enumerate() {
                                *v = col(j, r0 + i);
                            }
                            // One write run per basis column block: the storing
                            // variant's Θ(s·n) slow-memory writes.
                            io.write_at(vv + j * n8 + r0, r1 - r0);
                        }
                    }
                    r0 = r1;
                }

                // ---- Step 3: s steps in coefficient space (fast memory only).
                let mut xh = vec![0.0; m];
                let mut ph = vec![0.0; m];
                ph[0] = 1.0;
                let mut rh = vec![0.0; m];
                rh[s + 1] = 1.0;
                let gdot = |u: &[f64], w: &[f64]| -> f64 {
                    let mut acc = 0.0;
                    for i in 0..m {
                        if u[i] == 0.0 {
                            continue;
                        }
                        for j in 0..m {
                            acc += u[i] * g[i][j] * w[j];
                        }
                    }
                    acc
                };
                let mut dp = delta;
                let mut breakdown = false;
                for _ in 0..s {
                    let wh = h_apply(&h, &ph);
                    let denom = gdot(&ph, &wh);
                    if !denom.is_finite() || denom.abs() < 1e-300 {
                        breakdown = true;
                        break;
                    }
                    let alpha = dp / denom;
                    for i in 0..m {
                        xh[i] += alpha * ph[i];
                        rh[i] -= alpha * wh[i];
                    }
                    let dc = gdot(&rh, &rh).max(0.0);
                    let beta = dc / dp;
                    for i in 0..m {
                        ph[i] = rh[i] + beta * ph[i];
                    }
                    dp = dc;
                }

                // ---- Step 4: recover [p, r, x], blockwise (streaming recomputes
                // the basis; storing re-reads it). The streaming recomputation
                // must see the *old* p and r even in ghost zones already
                // overwritten by earlier blocks, so it reads from snapshots (in
                // the real machine these are simply the old locations, with the
                // new vectors written to fresh addresses — no extra traffic).
                let (p_old, r_old) = if opts.streaming {
                    (p.clone(), r.clone())
                } else {
                    (Vec::new(), Vec::new())
                };
                let mut r0b = 0;
                while r0b < n {
                    let r1b = (r0b + bs).min(n);
                    if let Some(vs) = v_store.as_ref() {
                        for j in 0..m {
                            io.read_at(vv + j * n8 + r0b, r1b - r0b);
                        }
                        for i in r0b..r1b {
                            let (mut np, mut nr, mut nx) = (0.0, 0.0, 0.0);
                            for j in 0..m {
                                let vij = vs[j][i];
                                np += vij * ph[j];
                                nr += vij * rh[j];
                                nx += vij * xh[j];
                            }
                            p[i] = np;
                            r[i] = nr;
                            x[i] += nx;
                        }
                    } else {
                        // Streaming recomputation reads the *old* p and r at
                        // their original addresses (the new vectors land at the
                        // same spans only after this block's writes).
                        let (pl, _) = block_powers(a, &p_old, vp, va, r0b, r1b, s, &opts.basis, io);
                        let (rl, _) =
                            block_powers(a, &r_old, vr, va, r0b, r1b, s - 1, &opts.basis, io);
                        let col = |j: usize, i: usize| -> f64 {
                            if j <= s {
                                pl[j][i]
                            } else {
                                rl[j - s - 1][i]
                            }
                        };
                        for i in r0b..r1b {
                            let (mut np, mut nr, mut nx) = (0.0, 0.0, 0.0);
                            for j in 0..m {
                                let vij = col(j, i);
                                np += vij * ph[j];
                                nr += vij * rh[j];
                                nx += vij * xh[j];
                            }
                            p[i] = np;
                            r[i] = nr;
                            x[i] += nx;
                        }
                    }
                    io.flop(6 * m * (r1b - r0b));
                    // p, r, x — the only writes of the streaming variant.
                    io.write_at(vp + r0b, r1b - r0b);
                    io.write_at(vr + r0b, r1b - r0b);
                    io.write_at(vx + r0b, r1b - r0b);
                    r0b = r1b;
                }

                delta = dp.max(0.0);
                outer += 1;
                history.push(delta.sqrt() / bnorm);
                if breakdown {
                    break;
                }
            }

            let mut ax = vec![0.0; n];
            a.spmv(&x, &mut ax);
            let res = b
                .iter()
                .zip(&ax)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            SolveResult {
                x,
                iters: outer * s,
                residual: res,
                history,
            }
        }
    }

    /// One [`IoSink`] call, in the order the kernel made it.
    #[derive(Debug, PartialEq)]
    enum Call {
        Read(usize, usize),
        Write(usize, usize),
        Flop(usize),
    }

    /// An [`IoSink`] that records the `(addr, words, is_write)` run
    /// sequence and the flop charges between them.
    #[derive(Default)]
    struct Recording(Vec<Call>);

    impl IoSink for Recording {
        fn read_at(&mut self, addr: usize, words: usize) {
            self.0.push(Call::Read(addr, words));
        }
        fn write_at(&mut self, addr: usize, words: usize) {
            self.0.push(Call::Write(addr, words));
        }
        fn flop(&mut self, n: usize) {
            self.0.push(Call::Flop(n));
        }
    }

    /// The workspace-reusing kernel emits exactly the run stream and flop
    /// charges of the allocating one, and produces the same bits.
    #[test]
    fn reused_workspaces_match_the_allocating_kernel_stream_and_bits() {
        let a = laplacian_2d(9, 7, 0.2); // n = 63
        let n = a.rows;
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 + 2) as f64).cos()).collect();
        let x0: Vec<f64> = (0..n).map(|i| (i % 3) as f64 * 0.1).collect();
        let newton = BasisKind::Newton(vec![3.5, 4.25, 4.0, 3.75]);
        let mut cases = 0;
        for streaming in [true, false] {
            for basis in [BasisKind::Monomial, newton.clone()] {
                // 10 does not divide 63; 63 and 200 are one block.
                for (s, block_rows) in [(1, 10), (3, 10), (4, 63), (2, 200), (3, 1)] {
                    let o = CaCgOptions {
                        s,
                        basis: basis.clone(),
                        streaming,
                        block_rows,
                        tol: 1e-30,
                        max_outer: 4,
                    };
                    let mut new_io = Recording::default();
                    let new = ca_cg(&a, &b, &x0, &o, &mut new_io);
                    let mut old_io = Recording::default();
                    let old = allocating::ca_cg(&a, &b, &x0, &o, &mut old_io);
                    let tag = format!("streaming={streaming} {basis:?} s={s} bs={block_rows}");
                    assert!(new_io.0 == old_io.0, "{tag}: IoSink call sequences differ");
                    let flops = |c: &[Call]| -> usize {
                        c.iter()
                            .map(|c| if let Call::Flop(f) = c { *f } else { 0 })
                            .sum()
                    };
                    assert_eq!(flops(&new_io.0), flops(&old_io.0), "{tag}");
                    assert_eq!(new.iters, old.iters, "{tag}");
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&new.x), bits(&old.x), "{tag}: x");
                    assert_eq!(bits(&new.history), bits(&old.history), "{tag}: history");
                    assert_eq!(new.residual.to_bits(), old.residual.to_bits(), "{tag}");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 20);
    }

    /// BUG GUARD: streaming recovery must use the *old* p/r for
    /// recomputation within a block even while overwriting them — hence
    /// the deferred-update dance; this test would catch in-place damage.
    #[test]
    fn streaming_and_storing_agree_bitwise() {
        let a = laplacian_2d(10, 10, 0.2);
        let n = a.rows;
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) as f64).sin()).collect();
        for s in [2usize, 4] {
            let mut o1 = CaCgOptions {
                s,
                streaming: true,
                max_outer: 12,
                block_rows: 17,
                ..Default::default()
            };
            let mut io1 = IoTally::default();
            let r1 = ca_cg(&a, &b, &vec![0.0; n], &o1, &mut io1);
            o1.streaming = false;
            let mut io2 = IoTally::default();
            let r2 = ca_cg(&a, &b, &vec![0.0; n], &o1, &mut io2);
            for (u, v) in r1.x.iter().zip(&r2.x) {
                assert_eq!(u, v, "s={s}: streaming must be a pure reordering");
            }
        }
    }

    #[test]
    fn cacg_matches_cg_iterates() {
        // In exact arithmetic CA-CG reproduces CG; with a well-conditioned
        // operator and small s the solutions agree tightly.
        let a = laplacian_2d(8, 8, 0.5);
        let n = a.rows;
        let mut rng = XorShift::new(6);
        let xt: Vec<f64> = (0..n).map(|_| rng.next_unit() - 0.5).collect();
        let mut b = vec![0.0; n];
        a.spmv(&xt, &mut b);
        let mut io = IoTally::default();
        let rcg = cg(&a, &b, &vec![0.0; n], 1e-12, 400, &mut io);
        let mut io2 = IoTally::default();
        let rca = ca_cg(
            &a,
            &b,
            &vec![0.0; n],
            &CaCgOptions {
                s: 4,
                tol: 1e-12,
                max_outer: 100,
                ..Default::default()
            },
            &mut io2,
        );
        assert!(rca.residual < 1e-8, "CA-CG residual {}", rca.residual);
        for (u, v) in rca.x.iter().zip(&rcg.x) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn newton_basis_agrees_with_monomial() {
        let a = band_1d(80, 2, 0.5);
        let b = vec![1.0; 80];
        let run = |basis: BasisKind| {
            let mut io = IoTally::default();
            ca_cg(
                &a,
                &b,
                &vec![0.0; 80],
                &CaCgOptions {
                    s: 3,
                    basis,
                    tol: 1e-11,
                    ..Default::default()
                },
                &mut io,
            )
        };
        let rm = run(BasisKind::Monomial);
        // Shifts near the spectrum's center.
        let rn = run(BasisKind::Newton(vec![4.0, 4.5, 4.25]));
        assert!(rm.residual < 1e-8);
        assert!(rn.residual < 1e-8);
        for (u, v) in rm.x.iter().zip(&rn.x) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    /// The paper's Section 8 headline: streaming reduces writes by Θ(s)
    /// while reads/flops grow by at most ~2×.
    #[test]
    fn streaming_write_reduction_theta_s() {
        let a = laplacian_2d(24, 24, 0.2);
        let n = a.rows;
        let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let s = 6;
        // Force a fixed amount of work: tiny tol, capped outers.
        let outers = 10;
        let base = CaCgOptions {
            s,
            tol: 1e-30,
            max_outer: outers,
            block_rows: 48,
            ..Default::default()
        };
        let mut io_stream = IoTally::default();
        let _ = ca_cg(&a, &b, &vec![0.0; n], &base, &mut io_stream);
        let mut store = base.clone();
        store.streaming = false;
        let mut io_store = IoTally::default();
        let _ = ca_cg(&a, &b, &vec![0.0; n], &store, &mut io_store);
        let mut io_cg = IoTally::default();
        let _ = cg(&a, &b, &vec![0.0; n], 1e-30, outers * s, &mut io_cg);

        // Writes: CG ≈ 4n/step; storing CA-CG ≈ (2s+4)n/s per step;
        // streaming ≈ 3n/s per step.
        let w_cg = io_cg.writes() as f64;
        let w_store = io_store.writes() as f64;
        let w_stream = io_stream.writes() as f64;
        assert!(
            w_stream < w_cg / (s as f64 / 2.0),
            "streaming {w_stream} should be ≪ CG {w_cg} (s = {s})"
        );
        assert!(
            w_stream < w_store / (s as f64 / 2.0),
            "streaming {w_stream} should be ≪ storing {w_store}"
        );
        // Storing CA-CG writes the basis: the same order as CG.
        assert!(w_store < 2.0 * w_cg, "storing {w_store} vs CG {w_cg}");
        // Reads/flops at most ~2× the storing variant, as the paper says.
        assert!(
            io_stream.reads() < 2 * io_store.reads() + 1000,
            "reads {} vs {}",
            io_stream.reads(),
            io_store.reads()
        );
        assert!(io_stream.flops < 2 * io_store.flops + 1000);
    }
}
