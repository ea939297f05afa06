//! The access abstraction instrumented kernels are generic over.
//!
//! Kernels in `dense`, `cdag` and `nbody` are written once against
//! [`Mem`] and monomorphized three ways:
//!
//! * [`RawMem`] — plain `Vec<f64>` access, zero overhead: used for numeric
//!   verification and wall-clock benchmarks;
//! * [`SimMem`] — every access drives the cache simulator
//!   ([`crate::MemSim`]) *and* performs the arithmetic, so counter
//!   measurements come from real executions with verified outputs;
//! * [`TraceMem`] — streams every access into a [`TraceTally`]: words
//!   accessed, words written, and distinct cache lines touched. Nothing
//!   is stored per access; a run costs two counter adds and one bitset
//!   mask per 64 lines it spans.
//!
//! [`Access`] is the per-word record of an offline trace, the input of
//! the Belady replay in [`crate::ideal`].

use crate::hierarchy::MemSim;
use crate::xeon::LINE_WORDS;

/// Word-addressed memory with read/write instrumentation hooks.
///
/// The bulk accessors `ld_run`/`st_run` describe one *run* of consecutive
/// words. Their default implementations fall back to the per-word hooks
/// (so every backend observes the identical word stream), but [`RawMem`]
/// overrides them with `memcpy`, [`SimMem`] routes them through the
/// simulator's line-granular [`MemSim::read_range`]/[`MemSim::write_range`]
/// fast path — which is where the order-of-magnitude simulation speedup
/// of the instrumented kernels comes from — and [`TraceMem`] tallies a
/// whole run at once.
pub trait Mem {
    /// Load the word at `addr`.
    fn ld(&mut self, addr: usize) -> f64;
    /// Store `v` at `addr`.
    fn st(&mut self, addr: usize, v: f64);

    /// Load the run `[addr, addr + out.len())` into `out`.
    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.ld(addr + i);
        }
    }

    /// Store `src` over the run `[addr, addr + src.len())`.
    fn st_run(&mut self, addr: usize, src: &[f64]) {
        for (i, &v) in src.iter().enumerate() {
            self.st(addr + i, v);
        }
    }

    /// Number of words of backing storage.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mark a profiling phase boundary (see [`crate::probe::Probe`]).
    /// No-op by default, so kernels can mark phases unconditionally;
    /// [`SimMem`] routes it to the simulator's probe.
    fn phase(&mut self, _name: &'static str) {}
}

/// Forwarding impl so code generic over `M: Mem` can also run through a
/// `&mut dyn Mem` (pass `&mut mem_ref`): the engine's workload runners use
/// this to hand one closure all four backends.
impl<M: Mem + ?Sized> Mem for &mut M {
    #[inline]
    fn ld(&mut self, addr: usize) -> f64 {
        (**self).ld(addr)
    }

    #[inline]
    fn st(&mut self, addr: usize, v: f64) {
        (**self).st(addr, v)
    }

    #[inline]
    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        (**self).ld_run(addr, out)
    }

    #[inline]
    fn st_run(&mut self, addr: usize, src: &[f64]) {
        (**self).st_run(addr, src)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline]
    fn phase(&mut self, name: &'static str) {
        (**self).phase(name)
    }
}

/// Uninstrumented backing store.
pub struct RawMem {
    pub data: Vec<f64>,
}

impl RawMem {
    pub fn new(words: usize) -> Self {
        RawMem {
            data: vec![0.0; words],
        }
    }

    pub fn from_vec(data: Vec<f64>) -> Self {
        RawMem { data }
    }
}

impl Mem for RawMem {
    #[inline]
    fn ld(&mut self, addr: usize) -> f64 {
        self.data[addr]
    }

    #[inline]
    fn st(&mut self, addr: usize, v: f64) {
        self.data[addr] = v;
    }

    #[inline]
    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        out.copy_from_slice(&self.data[addr..addr + out.len()]);
    }

    #[inline]
    fn st_run(&mut self, addr: usize, src: &[f64]) {
        self.data[addr..addr + src.len()].copy_from_slice(src);
    }

    fn len(&self) -> usize {
        self.data.len()
    }
}

/// Cache-simulated backing store: every access walks the hierarchy.
pub struct SimMem {
    pub data: Vec<f64>,
    pub sim: MemSim,
}

impl SimMem {
    pub fn new(words: usize, sim: MemSim) -> Self {
        SimMem {
            data: vec![0.0; words],
            sim,
        }
    }

    pub fn from_vec(data: Vec<f64>, sim: MemSim) -> Self {
        SimMem { data, sim }
    }
}

impl Mem for SimMem {
    #[inline]
    fn ld(&mut self, addr: usize) -> f64 {
        self.sim.read(addr);
        self.data[addr]
    }

    #[inline]
    fn st(&mut self, addr: usize, v: f64) {
        self.sim.write(addr);
        self.data[addr] = v;
    }

    #[inline]
    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        self.sim.read_range(addr, out.len());
        out.copy_from_slice(&self.data[addr..addr + out.len()]);
    }

    #[inline]
    fn st_run(&mut self, addr: usize, src: &[f64]) {
        self.sim.write_range(addr, src.len());
        self.data[addr..addr + src.len()].copy_from_slice(src);
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn phase(&mut self, name: &'static str) {
        self.sim.phase(name);
    }
}

/// One word access of an offline trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    pub addr: usize,
    pub is_write: bool,
}

/// Streaming tally of a word-access stream: the words accessed, the words
/// written, and a growable bitset of the touched line indices
/// (`addr / LINE_WORDS`). Run-granular like [`MemSim::read_range`]: a run
/// of `n` words costs two counter adds and one mask per 64 lines it
/// spans, and the tally holds one bit per line of the address range seen.
#[derive(Debug, Default)]
pub struct TraceTally {
    words: u64,
    writes: u64,
    distinct_lines: u64,
    lines: Vec<u64>,
}

impl TraceTally {
    /// An empty tally whose bitset already covers addresses `0..words`.
    pub fn with_words(words: usize) -> Self {
        TraceTally {
            lines: vec![0; words.div_ceil(LINE_WORDS * 64)],
            ..Self::default()
        }
    }

    /// Tally a read of `[addr, addr + words)`.
    #[inline]
    pub fn read_range(&mut self, addr: usize, words: usize) {
        self.words += words as u64;
        self.mark(addr, words);
    }

    /// Tally a write of `[addr, addr + words)`.
    #[inline]
    pub fn write_range(&mut self, addr: usize, words: usize) {
        self.words += words as u64;
        self.writes += words as u64;
        self.mark(addr, words);
    }

    /// Set the bits of every line `[addr, addr + words)` touches, counting
    /// the ones that were clear.
    #[inline]
    fn mark(&mut self, addr: usize, words: usize) {
        if words == 0 {
            return;
        }
        let (first, last) = (addr / LINE_WORDS, (addr + words - 1) / LINE_WORDS);
        if self.lines.len() <= last / 64 {
            self.lines.resize(last / 64 + 1, 0);
        }
        for slot in first / 64..=last / 64 {
            let lo = if slot == first / 64 { first % 64 } else { 0 };
            let hi = if slot == last / 64 { last % 64 } else { 63 };
            let mask = (u64::MAX << lo) & (u64::MAX >> (63 - hi));
            let bits = &mut self.lines[slot];
            self.distinct_lines += u64::from((mask & !*bits).count_ones());
            *bits |= mask;
        }
    }

    /// Words accessed (loads + stores).
    pub fn words(&self) -> u64 {
        self.words
    }

    /// Words stored.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Distinct lines touched (the stream's footprint in lines).
    pub fn distinct_lines(&self) -> u64 {
        self.distinct_lines
    }
}

/// Tallying backing store: the `traced` backend's [`Mem`].
pub struct TraceMem {
    pub data: Vec<f64>,
    pub tally: TraceTally,
}

impl TraceMem {
    pub fn new(words: usize) -> Self {
        Self::from_vec(vec![0.0; words])
    }

    pub fn from_vec(data: Vec<f64>) -> Self {
        TraceMem {
            tally: TraceTally::with_words(data.len()),
            data,
        }
    }
}

impl Mem for TraceMem {
    #[inline]
    fn ld(&mut self, addr: usize) -> f64 {
        wa_core::cancel::tick(1);
        self.tally.read_range(addr, 1);
        self.data[addr]
    }

    #[inline]
    fn st(&mut self, addr: usize, v: f64) {
        wa_core::cancel::tick(1);
        self.tally.write_range(addr, 1);
        self.data[addr] = v;
    }

    #[inline]
    fn ld_run(&mut self, addr: usize, out: &mut [f64]) {
        wa_core::cancel::tick(out.len() as u64);
        self.tally.read_range(addr, out.len());
        out.copy_from_slice(&self.data[addr..addr + out.len()]);
    }

    #[inline]
    fn st_run(&mut self, addr: usize, src: &[f64]) {
        wa_core::cancel::tick(src.len() as u64);
        self.tally.write_range(addr, src.len());
        self.data[addr..addr + src.len()].copy_from_slice(src);
    }

    fn len(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::policy::Policy;

    fn run_kernel<M: Mem>(m: &mut M) -> f64 {
        // A toy kernel: y[i] = x[i] * 2 with x at 0..4, y at 4..8.
        let mut acc = 0.0;
        for i in 0..4 {
            let v = m.ld(i) * 2.0;
            m.st(4 + i, v);
            acc += v;
        }
        acc
    }

    #[test]
    fn raw_and_sim_agree_numerically() {
        let input = vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0];
        let mut raw = RawMem::from_vec(input.clone());
        let sim = MemSim::two_level(CacheConfig {
            capacity_words: 16,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        });
        let mut simm = SimMem::from_vec(input, sim);
        assert_eq!(run_kernel(&mut raw), run_kernel(&mut simm));
        assert_eq!(raw.data, simm.data);
        assert!(simm.sim.llc().hits + simm.sim.llc().misses == 8);
    }

    #[test]
    fn trace_tallies_words_writes_and_lines() {
        let mut t = TraceMem::new(64);
        t.st(0, 1.0);
        let _ = t.ld(0);
        t.st_run(5, &[2.0; 6]); // words 5..11: lines 0 and 1
        let mut out = [0.0; 3];
        t.ld_run(61, &mut out); // line 7
        assert_eq!(t.data[5..11], [2.0; 6]);
        assert_eq!(t.tally.words(), 11);
        assert_eq!(t.tally.writes(), 7);
        assert_eq!(t.tally.distinct_lines(), 2 + 1);
    }
}
