//! Force laws and reference (unblocked) force computations.

use wa_core::XorShift;

/// Words per particle/force when laid out in word-addressed memory:
/// (x, y, z, m) for particles, (fx, fy, fz, pad) for forces — the paper
/// assumes a force is the same size as a particle.
pub const WORDS_PER_BODY: usize = 4;

/// Small softening constant keeping the force law finite at zero
/// separation.
pub const EPS2: f64 = 1e-4;

/// 3-vector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

#[allow(clippy::should_implement_trait)] // explicit kernel arithmetic, not operator sugar
impl Vec3 {
    pub fn add(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.x + o.x,
            y: self.y + o.y,
            z: self.z + o.z,
        }
    }

    pub fn sub(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.x - o.x,
            y: self.y - o.y,
            z: self.z - o.z,
        }
    }

    pub fn scale(self, s: f64) -> Vec3 {
        Vec3 {
            x: self.x * s,
            y: self.y * s,
            z: self.z * s,
        }
    }

    pub fn norm2(self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    pub fn max_abs_diff(self, o: Vec3) -> f64 {
        (self.x - o.x)
            .abs()
            .max((self.y - o.y).abs())
            .max((self.z - o.z).abs())
    }
}

/// A point mass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Particle {
    pub pos: Vec3,
    pub mass: f64,
}

impl Particle {
    /// Deterministic random particle cloud in the unit cube, masses in
    /// `[0.5, 1.5)`.
    pub fn random_cloud(n: usize, seed: u64) -> Vec<Particle> {
        let mut rng = XorShift::new(seed);
        (0..n)
            .map(|_| Particle {
                pos: Vec3 {
                    x: rng.next_unit(),
                    y: rng.next_unit(),
                    z: rng.next_unit(),
                },
                mass: 0.5 + rng.next_unit(),
            })
            .collect()
    }
}

/// Softened gravitational pairwise force of `q` on `p`
/// (`Φ₂(p, p) = 0` by convention, as the paper assumes).
///
/// `(r² + ε²)^(-3/2)` is formed as `1 / (s·√s)`: a correctly rounded
/// square root, a product and a quotient, within a few ulp of libm's
/// `powf(-1.5)` and several times cheaper in the pairwise inner loop.
#[inline]
pub fn phi2(p: Particle, q: Particle) -> Vec3 {
    let d = q.pos.sub(p.pos);
    let r2 = d.norm2();
    if r2 == 0.0 {
        return Vec3::default();
    }
    let s = r2 + EPS2;
    let inv = 1.0 / (s * s.sqrt());
    d.scale(p.mass * q.mass * inv)
}

/// A synthetic symmetric three-body force on `p` from the pair `(q, r)`
/// (Axilrod–Teller-flavoured: attraction toward the pair's weighted
/// midpoint, damped by the triangle's size). Returns 0 if any two
/// arguments coincide, per the paper's `Φ_k` convention.
#[inline]
pub fn phi3(p: Particle, q: Particle, r: Particle) -> Vec3 {
    if p.pos == q.pos || p.pos == r.pos || q.pos == r.pos {
        return Vec3::default();
    }
    let mid = q.pos.add(r.pos).scale(0.5);
    let d = mid.sub(p.pos);
    let spread = q.pos.sub(p.pos).norm2() + r.pos.sub(p.pos).norm2() + q.pos.sub(r.pos).norm2();
    d.scale(p.mass * q.mass * r.mass / (spread + EPS2).powi(2))
}

/// Unblocked reference: `F_i = Σ_j Φ₂(P_i, P_j)`.
pub fn reference_forces(p: &[Particle]) -> Vec<Vec3> {
    let n = p.len();
    let mut f = vec![Vec3::default(); n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                f[i] = f[i].add(phi2(p[i], p[j]));
            }
        }
    }
    f
}

/// Unblocked reference: `F_i = Σ_{j<k, j≠i≠k} Φ₃(P_i, P_j, P_k)` —
/// unordered pairs so each triple contributes once per target particle.
pub fn reference_forces_3body(p: &[Particle]) -> Vec<Vec3> {
    let n = p.len();
    let mut f = vec![Vec3::default(); n];
    for i in 0..n {
        for j in 0..n {
            for k in j + 1..n {
                if j != i && k != i {
                    f[i] = f[i].add(phi3(p[i], p[j], p[k]));
                }
            }
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi2_antisymmetric_under_swap() {
        let cloud = Particle::random_cloud(2, 1);
        let f_pq = phi2(cloud[0], cloud[1]);
        let f_qp = phi2(cloud[1], cloud[0]);
        assert!(f_pq.add(f_qp).max_abs_diff(Vec3::default()) < 1e-15);
    }

    #[test]
    fn phi2_zero_for_identical() {
        let p = Particle {
            pos: Vec3 {
                x: 1.0,
                y: 2.0,
                z: 3.0,
            },
            mass: 2.0,
        };
        assert_eq!(phi2(p, p), Vec3::default());
    }

    /// `phi2` as first written, with libm's `powf(-1.5)`.
    fn phi2_powf(p: Particle, q: Particle) -> Vec3 {
        let d = q.pos.sub(p.pos);
        let r2 = d.norm2();
        if r2 == 0.0 {
            return Vec3::default();
        }
        d.scale(p.mass * q.mass * (r2 + EPS2).powf(-1.5))
    }

    /// Largest component error of `a` against `b`, in units of
    /// `f64::EPSILON · |b|` (relative ulp).
    fn rel_ulps(a: Vec3, b: Vec3) -> f64 {
        [(a.x, b.x), (a.y, b.y), (a.z, b.z)]
            .iter()
            .map(|&(a, b)| {
                if a == b {
                    0.0
                } else {
                    (a - b).abs() / (f64::EPSILON * b.abs())
                }
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn phi2_agrees_with_the_powf_form_within_4_ulp() {
        let mut worst = 0.0f64;
        for seed in 1..6 {
            let c = Particle::random_cloud(60, seed);
            for &p in &c {
                for &q in &c {
                    worst = worst.max(rel_ulps(phi2(p, q), phi2_powf(p, q)));
                }
            }
        }
        // r2 == 0 and r2 ≪ EPS2: the softening dominates the law.
        let p = Particle::random_cloud(1, 7)[0];
        assert_eq!(phi2(p, p), Vec3::default());
        for off in [1e-300, 1e-150, 1e-12, 1e-8, 1e-4] {
            let mut q = p;
            q.pos.x += off;
            q.pos.z -= off / 3.0;
            worst = worst.max(rel_ulps(phi2(p, q), phi2_powf(p, q)));
        }
        assert!(worst <= 4.0, "phi2 is {worst} relative ulp off powf(-1.5)");
    }

    #[test]
    fn phi3_symmetric_in_last_two_args() {
        let c = Particle::random_cloud(3, 2);
        let a = phi3(c[0], c[1], c[2]);
        let b = phi3(c[0], c[2], c[1]);
        assert!(a.max_abs_diff(b) < 1e-15);
    }

    #[test]
    fn reference_total_momentum_conserved() {
        // Σ_i F_i = 0 for an antisymmetric pairwise force.
        let p = Particle::random_cloud(20, 3);
        let f = reference_forces(&p);
        let tot = f.iter().fold(Vec3::default(), |a, &b| a.add(b));
        assert!(tot.max_abs_diff(Vec3::default()) < 1e-12);
    }

    #[test]
    fn forces_scale_with_mass() {
        let mut p = Particle::random_cloud(5, 4);
        let f1 = reference_forces(&p);
        for q in &mut p {
            q.mass *= 2.0;
        }
        let f2 = reference_forces(&p);
        for (a, b) in f1.iter().zip(&f2) {
            assert!(a.scale(4.0).max_abs_diff(*b) < 1e-10);
        }
    }
}
