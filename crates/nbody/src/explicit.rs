//! Algorithm 4 — explicitly blocked direct N-body, two-level, with exact
//! counts, plus the (N,k)-body generalization.
//!
//! Memory is measured in *particles*: the hierarchy capacities passed in
//! are particle counts, matching the paper's accounting ("L1 and L2 can
//! store M₁ and M₂ particles").

use crate::force::{phi2, phi3, Particle, Vec3};
use memsim::ExplicitHier;

/// Block size for the (N,2)-body problem: `b = M/3` (P⁽¹⁾ block, P⁽²⁾
/// block, F⁽¹⁾ block resident simultaneously).
pub fn block2_for(m_particles: u64) -> usize {
    ((m_particles / 3) as usize).max(1)
}

/// Two-level WA Algorithm 4: `F_i = Σ_j Φ₂(P_i, P_j)`.
///
/// Explicit counts attained: loads `N + N²/b`, local (R2) writes `N` for
/// the force accumulators, stores `N` — the output size.
pub fn explicit_nbody_wa(p: &[Particle], hier: &mut ExplicitHier) -> Vec<Vec3> {
    let n = p.len();
    let b = block2_for(hier.capacity(1));
    let mut f = vec![Vec3::default(); n];

    let mut i = 0;
    while i < n {
        let bi = b.min(n - i);
        hier.load(0, bi as u64); // P(1)(i): L2 -> L1
        hier.alloc(1, bi as u64); // F(1)(i) initialized in L1 (R2)
        let mut j = 0;
        while j < n {
            let bj = b.min(n - j);
            hier.load(0, bj as u64); // P(2)(j)
            for ii in i..i + bi {
                for jj in j..j + bj {
                    if ii != jj {
                        f[ii] = f[ii].add(phi2(p[ii], p[jj]));
                    }
                }
            }
            hier.flop((bi * bj) as u64);
            hier.free(1, bj as u64);
            j += bj;
        }
        hier.store(0, bi as u64); // F(1)(i): L1 -> L2
        hier.free(1, 2 * bi as u64); // P(1)(i) and F(1)(i)
        i += bi;
    }
    f
}

/// Two-level WA (N,3)-body: `F_i = Σ_{j<k} Φ₃(P_i, P_j, P_k)` with three
/// nested block loops at `b = M/4`, not exploiting symmetry (the paper's
/// k-loop structure; the full sweep over ordered pairs is halved by the
/// `j<k` convention of the reference, so we sweep ordered pairs and halve).
pub fn explicit_kbody_wa(p: &[Particle], hier: &mut ExplicitHier) -> Vec<Vec3> {
    let n = p.len();
    let b = ((hier.capacity(1) / 4) as usize).max(1); // k+1 = 4 arrays
    let mut f = vec![Vec3::default(); n];

    let mut i = 0;
    while i < n {
        let bi = b.min(n - i);
        hier.load(0, bi as u64); // P(1)(i1)
        hier.alloc(1, bi as u64); // F(1)(i1)
        let mut j = 0;
        while j < n {
            let bj = b.min(n - j);
            hier.load(0, bj as u64); // P(2)(i2)
            let mut k = 0;
            while k < n {
                let bk = b.min(n - k);
                hier.load(0, bk as u64); // P(3)(i3)
                let (pj, pk) = (&p[j..j + bj], &p[k..k + bk]);
                for ii in i..i + bi {
                    let pi = p[ii];
                    // F(ii) stays in a register across the (jj, kk) sweep,
                    // accumulated in the same order as a per-term update.
                    let mut acc = f[ii];
                    for (jj, &q) in (j..).zip(pj) {
                        if jj == ii {
                            continue;
                        }
                        for (kk, &r) in (k..).zip(pk) {
                            if kk != jj && kk != ii {
                                // Ordered pairs double-count each {j,k}:
                                // scale by 1/2 to match the reference.
                                acc = acc.add(phi3(pi, q, r).scale(0.5));
                            }
                        }
                    }
                    f[ii] = acc;
                }
                hier.flop((bi * bj * bk) as u64);
                hier.free(1, bk as u64);
                k += bk;
            }
            hier.free(1, bj as u64);
            j += bj;
        }
        hier.store(0, bi as u64); // F(1)(i1)
        hier.free(1, 2 * bi as u64);
        i += bi;
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{reference_forces, reference_forces_3body};

    #[test]
    fn wa_2body_matches_reference() {
        let p = Particle::random_cloud(40, 11);
        let mut h = ExplicitHier::two_level(12); // b = 4
        let f = explicit_nbody_wa(&p, &mut h);
        let want = reference_forces(&p);
        for (a, b) in f.iter().zip(&want) {
            assert!(a.max_abs_diff(*b) < 1e-12);
        }
    }

    #[test]
    fn wa_2body_counts_match_algorithm_4() {
        let n = 48u64;
        let p = Particle::random_cloud(n as usize, 12);
        let mut h = ExplicitHier::two_level(12); // b = 4
        let _ = explicit_nbody_wa(&p, &mut h);
        let b = 4u64;
        let t = h.traffic().boundary(0);
        // loads = N (P1 blocks) + N²/b (P2 blocks)
        assert_eq!(t.load_words, n + n * n / b);
        // stores = N (the output)
        assert_eq!(t.store_words, n);
        // writes into L1 = loads + N force-accumulator initializations
        assert_eq!(h.writes_into_level(1), n + n * n / b + n);
        // flops = N² interactions
        assert_eq!(h.flops(), n * n);
    }

    #[test]
    fn wa_2body_attains_lower_bounds() {
        let n = 64u64;
        let m = 12u64;
        let p = Particle::random_cloud(n as usize, 13);
        let mut h = ExplicitHier::two_level(m);
        let _ = explicit_nbody_wa(&p, &mut h);
        let bound = wa_core::bounds::nbody_ldst_lower(n, 2, m);
        let loads = h.traffic().boundary(0).load_words as f64;
        // Within a constant factor (~3x) of N²/M: loads = N + N²/(M/3).
        assert!(
            loads <= 3.0 * bound + n as f64 + 1.0,
            "loads {loads} vs bound {bound}"
        );
        assert_eq!(
            h.traffic().boundary(0).store_words,
            wa_core::bounds::writes_to_slow_lower(n)
        );
    }

    #[test]
    fn wa_3body_matches_reference() {
        let p = Particle::random_cloud(14, 14);
        let mut h = ExplicitHier::two_level(16); // b = 4
        let f = explicit_kbody_wa(&p, &mut h);
        let want = reference_forces_3body(&p);
        for (a, b) in f.iter().zip(&want) {
            assert!(a.max_abs_diff(*b) < 1e-12, "{a:?} vs {b:?}");
        }
    }

    /// The (N,3) sweep as first written: one `f[ii]` update per term.
    fn triple_loop_3body(p: &[Particle], b: usize) -> Vec<Vec3> {
        let n = p.len();
        let mut f = vec![Vec3::default(); n];
        for i in (0..n).step_by(b) {
            for j in (0..n).step_by(b) {
                for k in (0..n).step_by(b) {
                    for ii in i..(i + b).min(n) {
                        for jj in j..(j + b).min(n) {
                            for kk in k..(k + b).min(n) {
                                if jj != kk && ii != jj && ii != kk {
                                    f[ii] = f[ii].add(phi3(p[ii], p[jj], p[kk]).scale(0.5));
                                }
                            }
                        }
                    }
                }
            }
        }
        f
    }

    #[test]
    fn wa_3body_is_bit_identical_to_the_triple_loop() {
        // Capacities 4, 12, 16 and 200 give b = 1, 3, 4 and b > n.
        for (n, m) in [(14, 16), (11, 12), (5, 4), (9, 200)] {
            let p = Particle::random_cloud(n, 17);
            let mut h = ExplicitHier::two_level(m);
            let b = ((m / 4) as usize).max(1);
            assert_eq!(
                explicit_kbody_wa(&p, &mut h),
                triple_loop_3body(&p, b),
                "n = {n}, M = {m}"
            );
        }
    }

    #[test]
    fn wa_3body_counts() {
        let n = 16u64;
        let p = Particle::random_cloud(n as usize, 15);
        let mut h = ExplicitHier::two_level(16); // b = 4
        let _ = explicit_kbody_wa(&p, &mut h);
        let b = 4u64;
        let t = h.traffic().boundary(0);
        // loads = N + N²/b + N³/b²
        assert_eq!(t.load_words, n + n * n / b + n * n * n / (b * b));
        assert_eq!(t.store_words, n);
        assert_eq!(h.flops(), n * n * n);
    }

    #[test]
    fn capacity_respected() {
        let p = Particle::random_cloud(30, 16);
        let mut h = ExplicitHier::two_level(12);
        let _ = explicit_nbody_wa(&p, &mut h);
        assert!(h.peak(1) <= 12);
        let mut h3 = ExplicitHier::two_level(16);
        let _ = explicit_kbody_wa(&p, &mut h3);
        assert!(h3.peak(1) <= 16);
    }
}
