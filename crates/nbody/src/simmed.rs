//! Cache-simulated (access-driven) blocked N-body for the Proposition 6.2
//! validation: under LRU with five blocks resident, the blocked WA
//! schedule's write-backs equal the output size `N`.

use crate::force::{phi2, Particle, Vec3, WORDS_PER_BODY};
use memsim::Mem;

/// Word layout: particles at `[0, 4N)` (x,y,z,m per particle), forces at
/// `[4N, 8N)` (fx,fy,fz,pad).
pub fn particle_base(i: usize) -> usize {
    i * WORDS_PER_BODY
}

pub fn force_base(n: usize, i: usize) -> usize {
    (n + i) * WORDS_PER_BODY
}

/// Write a particle cloud into memory (setup; not part of the measured
/// kernel). Each body is one 4-word run.
pub fn store_cloud<M: Mem>(mem: &mut M, p: &[Particle]) {
    for (i, q) in p.iter().enumerate() {
        mem.st_run(particle_base(i), &[q.pos.x, q.pos.y, q.pos.z, q.mass]);
    }
}

/// Read the force array back out.
pub fn load_forces<M: Mem>(mem: &mut M, n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|i| {
            let mut f = [0.0; 3];
            mem.ld_run(force_base(n, i), &mut f);
            Vec3 {
                x: f[0],
                y: f[1],
                z: f[2],
            }
        })
        .collect()
}

/// The particle stored in one body's 4-word run.
fn body(w: &[f64]) -> Particle {
    Particle {
        pos: Vec3 {
            x: w[0],
            y: w[1],
            z: w[2],
        },
        mass: w[3],
    }
}

fn ld_particle<M: Mem>(mem: &mut M, i: usize) -> Particle {
    let mut w = [0.0; WORDS_PER_BODY];
    mem.ld_run(particle_base(i), &mut w);
    body(&w)
}

/// Blocked WA (N,2)-body over a [`Mem`], block size `b` particles: force
/// accumulators for the `i` block are held in registers across the whole
/// `j` sweep (the access-level analogue of Algorithm 4's F-block
/// residency), written once per block.
///
/// Each target `ii` reads the `j` block as at most two runs that skip
/// particle `ii` itself, into one buffer reused across the sweep. The
/// word stream is the one a 4-word load per particle `jj ≠ ii` would
/// emit, so every simulator counter is the same; only the number of
/// [`Mem`] calls drops.
pub fn simmed_nbody_wa<M: Mem>(mem: &mut M, n: usize, b: usize) {
    let mut block = vec![0.0; b.min(n) * WORDS_PER_BODY];
    let mut i = 0;
    while i < n {
        let bi = b.min(n - i);
        // Initialize force accumulators (R2 residency: first touch is a
        // write).
        mem.phase("force-init");
        for ii in i..i + bi {
            mem.st_run(force_base(n, ii), &[0.0; 3]);
        }
        mem.phase("force-sweep");
        let mut j = 0;
        while j < n {
            let bj = b.min(n - j);
            for ii in i..i + bi {
                let pi = ld_particle(mem, ii);
                let mut f = [0.0; 3];
                mem.ld_run(force_base(n, ii), &mut f);
                let mut acc = Vec3 {
                    x: f[0],
                    y: f[1],
                    z: f[2],
                };
                // Particles j..ii land in `head`, ii+1..j+bj in `tail`.
                let hole = (j..j + bj).contains(&ii);
                let before = if hole { ii - j } else { bj };
                let others = &mut block[..(bj - usize::from(hole)) * WORDS_PER_BODY];
                let (head, tail) = others.split_at_mut(before * WORDS_PER_BODY);
                if !head.is_empty() {
                    mem.ld_run(particle_base(j), head);
                }
                if !tail.is_empty() {
                    mem.ld_run(particle_base(ii + 1), tail);
                }
                for w in others.chunks_exact(WORDS_PER_BODY) {
                    acc = acc.add(phi2(pi, body(w)));
                }
                mem.st_run(force_base(n, ii), &[acc.x, acc.y, acc.z]);
            }
            j += bj;
        }
        i += bi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::reference_forces;
    use memsim::{CacheConfig, MemSim, Policy, RawMem, SimMem, StackMem};

    /// Records every word access as `(addr, is_write)`. Runs fall back to
    /// the per-word defaults, so run boundaries do not show.
    struct Recorder {
        data: Vec<f64>,
        log: Vec<(usize, bool)>,
    }

    impl Mem for Recorder {
        fn ld(&mut self, addr: usize) -> f64 {
            self.log.push((addr, false));
            self.data[addr]
        }

        fn st(&mut self, addr: usize, v: f64) {
            self.log.push((addr, true));
            self.data[addr] = v;
        }

        fn len(&self) -> usize {
            self.data.len()
        }
    }

    /// The kernel as first written: one 4-word load per particle `jj ≠ ii`.
    fn per_particle_kernel<M: Mem>(mem: &mut M, n: usize, b: usize) {
        let mut i = 0;
        while i < n {
            let bi = b.min(n - i);
            for ii in i..i + bi {
                mem.st_run(force_base(n, ii), &[0.0; 3]);
            }
            let mut j = 0;
            while j < n {
                let bj = b.min(n - j);
                for ii in i..i + bi {
                    let pi = ld_particle(mem, ii);
                    let mut f = [0.0; 3];
                    mem.ld_run(force_base(n, ii), &mut f);
                    let mut acc = Vec3 {
                        x: f[0],
                        y: f[1],
                        z: f[2],
                    };
                    for jj in j..j + bj {
                        if ii != jj {
                            acc = acc.add(phi2(pi, ld_particle(mem, jj)));
                        }
                    }
                    mem.st_run(force_base(n, ii), &[acc.x, acc.y, acc.z]);
                }
                j += bj;
            }
            i += bi;
        }
    }

    fn staged(p: &[Particle]) -> Vec<f64> {
        let mut raw = RawMem::new(2 * p.len() * WORDS_PER_BODY);
        store_cloud(&mut raw, p);
        raw.data
    }

    #[test]
    fn block_runs_emit_the_per_particle_word_stream() {
        // n % b != 0, b = 1, b = n and b > n.
        for (n, b) in [(13, 4), (10, 3), (7, 1), (9, 9), (6, 11), (1, 1)] {
            let data = staged(&Particle::random_cloud(n, 33));
            let mut new = Recorder {
                data: data.clone(),
                log: Vec::new(),
            };
            simmed_nbody_wa(&mut new, n, b);
            let mut old = Recorder {
                data,
                log: Vec::new(),
            };
            per_particle_kernel(&mut old, n, b);
            assert_eq!(new.log, old.log, "n = {n}, b = {b}");
            assert_eq!(new.data, old.data, "n = {n}, b = {b}");
        }
    }

    #[test]
    fn every_backing_store_computes_the_same_forces() {
        let (n, b) = (37, 6);
        let p = Particle::random_cloud(n, 34);
        let mut raw = RawMem::from_vec(staged(&p));
        simmed_nbody_wa(&mut raw, n, b);
        let mut sim = SimMem::from_vec(staged(&p), MemSim::single_level_lru(64));
        simmed_nbody_wa(&mut sim, n, b);
        let mut stack = StackMem::from_vec(staged(&p));
        simmed_nbody_wa(&mut stack, n, b);
        let f = load_forces(&mut raw, n);
        assert_eq!(f, load_forces(&mut sim, n));
        assert_eq!(f, load_forces(&mut stack, n));
        for (a, want) in f.iter().zip(&reference_forces(&p)) {
            assert!(a.max_abs_diff(*want) < 1e-12);
        }
    }

    #[test]
    fn simmed_matches_reference() {
        let n = 40;
        let p = Particle::random_cloud(n, 31);
        let mut mem = RawMem::new(2 * n * WORDS_PER_BODY);
        store_cloud(&mut mem, &p);
        simmed_nbody_wa(&mut mem, n, 8);
        let f = load_forces(&mut mem, n);
        let want = reference_forces(&p);
        for (a, b) in f.iter().zip(&want) {
            assert!(a.max_abs_diff(*b) < 1e-12);
        }
    }

    /// Prop 6.2 for the N-body algorithm: LRU write-backs ≈ N (in lines:
    /// N·4/8), with five blocks' worth of cache.
    #[test]
    fn lru_writebacks_equal_output_size() {
        let n = 256;
        let b = 16; // block of 16 particles = 64 words
        let cfg = CacheConfig {
            capacity_words: 5 * b * WORDS_PER_BODY + 8,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let p = Particle::random_cloud(n, 32);
        let mut mem = SimMem::new(2 * n * WORDS_PER_BODY, MemSim::two_level(cfg));
        store_cloud(&mut mem, &p);
        let data = std::mem::take(&mut mem.data);
        let mut mem = SimMem::from_vec(data, MemSim::two_level(cfg));
        simmed_nbody_wa(&mut mem, n, b);
        mem.sim.flush();
        let c = mem.sim.llc();
        let writes = c.victims_m + c.flush_victims_m;
        let out_lines = (n * WORDS_PER_BODY / 8) as u64;
        assert!(
            writes <= out_lines + out_lines / 4,
            "write-backs {writes} vs output {out_lines} lines"
        );
    }
}
