//! A fixed piece of work, independent of the repository's code, that
//! reads how fast the host runs at the moment. The benchmark reads it
//! before every timed cell and every set-up round and divides its times
//! by the host's slowdown, so its time metrics are host seconds at a
//! fixed reference speed.
//!
//! On a shared virtual machine the host's speed can drift by up to 1.9x
//! over seconds to minutes while CPU time stays equal to wall time. On a
//! 2-core x86-64 VM such slowdowns hit core-bound work (L1/L2-resident
//! table updates, a small dense product) almost in full, and left a
//! dependent integer chain nearly untouched. The workloads lie in
//! between, so each has a core share: the weight of the core-bound
//! reading in its slowdown.

use std::hint::black_box;
use std::time::Instant;

/// Seconds of the two readings at the reference speed.
const CORE_REF_S: f64 = 1.0e-3;
const CHAIN_REF_S: f64 = 1.0e-3;

/// Work of one reading.
const SMALL_UPDATES: usize = 200_000;
const LARGE_UPDATES: usize = 200_000;
const CHAIN_STEPS: usize = 500_000;
const GEMM_N: usize = 64;

/// The core share of each workload, fitted to two sets of five or six
/// runs each, made while the host drifted: a share that left little
/// spread in the scaled pass times of both sets.
const CORE_SHARE: [(&str, f64); 3] = [
    ("sim-paper", 0.65),
    ("count-paper", 0.6),
    ("deep-paper", 0.9),
];

pub fn core_share(workload: &str) -> f64 {
    CORE_SHARE
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, s)| s)
        .expect("every workload has a core share")
}

/// The two readings of one slice, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reading {
    /// Random read-modify-writes into a 32 KiB and a 256 KiB table, and a
    /// 64 x 64 dense product.
    pub core_s: f64,
    /// A chain of dependent integer multiplies.
    pub chain_s: f64,
}

impl Reading {
    pub fn add(self, o: Reading) -> Reading {
        Reading {
            core_s: self.core_s + o.core_s,
            chain_s: self.chain_s + o.chain_s,
        }
    }
}

/// The host's slowdown against the reference speed, over `n` summed
/// readings: 1 at the reference speed, 1.5 when work takes half as long
/// again.
pub fn slowdown(core_share: f64, sum: Reading, n: usize) -> f64 {
    let n = n as f64;
    core_share * sum.core_s / (n * CORE_REF_S)
        + (1.0 - core_share) * sum.chain_s / (n * CHAIN_REF_S)
}

pub struct Yardstick {
    small: Vec<u64>,
    large: Vec<u64>,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    state: u64,
}

impl Yardstick {
    pub fn new() -> Self {
        let n2 = GEMM_N * GEMM_N;
        Yardstick {
            small: vec![0; 32 << 10 >> 3],
            large: vec![0; 256 << 10 >> 3],
            a: (0..n2).map(|i| i as f64 * 0.5).collect(),
            b: (0..n2).map(|i| 1.0 / (1.0 + i as f64)).collect(),
            c: vec![0.0; n2],
            state: 7,
        }
    }

    /// Do the fixed work once and time its two parts.
    pub fn read(&mut self) -> Reading {
        let t0 = Instant::now();
        update(&mut self.small, &mut self.state, SMALL_UPDATES);
        update(&mut self.large, &mut self.state, LARGE_UPDATES);
        let n = GEMM_N;
        self.c.fill(0.0);
        for i in 0..n {
            for k in 0..n {
                let aik = self.a[i * n + k];
                for j in 0..n {
                    self.c[i * n + j] += aik * self.b[k * n + j];
                }
            }
        }
        black_box(&self.c);
        let t1 = Instant::now();
        let mut x = self.state;
        for _ in 0..CHAIN_STEPS {
            x = x.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (x >> 13);
        }
        self.state = black_box(x);
        let t2 = Instant::now();
        Reading {
            core_s: (t1 - t0).as_secs_f64(),
            chain_s: (t2 - t1).as_secs_f64(),
        }
    }
}

/// `n` random read-modify-writes into `table` (its length a power of two).
fn update(table: &mut [u64], state: &mut u64, n: usize) {
    let mask = table.len() - 1;
    for _ in 0..n {
        let r = splitmix(state);
        let i = r as usize & mask;
        table[i] = table[i].wrapping_add(r);
    }
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_weighs_the_readings_by_the_core_share() {
        let at_ref = Reading {
            core_s: 3.0 * CORE_REF_S,
            chain_s: 3.0 * CHAIN_REF_S,
        };
        assert!((slowdown(0.4, at_ref, 3) - 1.0).abs() < 1e-12);
        let core_twice = Reading {
            core_s: 2.0 * CORE_REF_S,
            chain_s: CHAIN_REF_S,
        };
        assert!((slowdown(0.4, core_twice, 1) - 1.4).abs() < 1e-12);
        assert!((slowdown(1.0, core_twice, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn every_workload_has_a_core_share() {
        for w in crate::cells::WORKLOADS {
            assert!((0.0..=1.0).contains(&core_share(w)), "{w}");
        }
    }
}
