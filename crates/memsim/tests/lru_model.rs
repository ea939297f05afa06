//! Model-based property tests: the O(1) fully-associative LRU
//! implementation must agree, access for access, with a naive
//! reference model (vector of (line, dirty, timestamp)), and must keep
//! LRU's inclusion property as capacity grows.

use memsim::{CacheConfig, MemSim, Policy};
use proptest::prelude::*;

/// Naive reference: fully-associative LRU with write-back, tracked as a
/// plain vector; returns (hits, misses, victims_m, victims_e, dram_writes).
struct RefLru {
    cap: usize,
    line_words: usize,
    lines: Vec<(u64, bool, u64)>, // (line, dirty, last_use)
    clock: u64,
    hits: u64,
    misses: u64,
    victims_m: u64,
    victims_e: u64,
}

impl RefLru {
    fn new(cap: usize, line_words: usize) -> Self {
        RefLru {
            cap,
            line_words,
            lines: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            victims_m: 0,
            victims_e: 0,
        }
    }

    fn access(&mut self, addr: usize, is_write: bool) {
        self.clock += 1;
        let line = (addr / self.line_words) as u64;
        if let Some(e) = self.lines.iter_mut().find(|e| e.0 == line) {
            self.hits += 1;
            e.1 |= is_write;
            e.2 = self.clock;
            return;
        }
        self.misses += 1;
        if self.lines.len() == self.cap {
            let (idx, _) = self
                .lines
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.2)
                .unwrap();
            let v = self.lines.swap_remove(idx);
            if v.1 {
                self.victims_m += 1;
            } else {
                self.victims_e += 1;
            }
        }
        self.lines.push((line, is_write, self.clock));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fa_lru_matches_reference_model(
        ops in prop::collection::vec((0usize..1024, any::<bool>()), 1..800),
        cap_lines in 1usize..24,
    ) {
        let cfg = CacheConfig {
            capacity_words: cap_lines * 8,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let mut sim = MemSim::two_level(cfg);
        let mut reference = RefLru::new(cap_lines, 8);
        for &(addr, is_write) in &ops {
            if is_write {
                sim.write(addr);
            } else {
                sim.read(addr);
            }
            reference.access(addr, is_write);
        }
        let c = sim.llc();
        prop_assert_eq!(c.hits, reference.hits);
        prop_assert_eq!(c.misses, reference.misses);
        prop_assert_eq!(c.victims_m, reference.victims_m);
        prop_assert_eq!(c.victims_e, reference.victims_e);
        prop_assert_eq!(sim.dram_writes_lines, reference.victims_m);
    }

    /// The 3-level inclusive hierarchy never loses dirty data: total DRAM
    /// write-backs after a flush equal the number of distinct lines ever
    /// written (each written line must reach DRAM exactly once if never
    /// rewritten after its last flush... here: at least once, and hits +
    /// misses at L1 equals the access count).
    #[test]
    fn hierarchy_conservation(
        ops in prop::collection::vec((0usize..4096, any::<bool>()), 1..600),
    ) {
        let cfg = |words: usize| CacheConfig {
            capacity_words: words,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let mut sim = MemSim::new(&[cfg(64), cfg(256), cfg(1024)]);
        let mut dirty_lines = std::collections::HashSet::new();
        for &(addr, is_write) in &ops {
            if is_write {
                sim.write(addr);
                dirty_lines.insert(addr / 8);
            } else {
                sim.read(addr);
            }
        }
        sim.flush();
        let l1 = sim.counters(0);
        prop_assert_eq!(l1.hits + l1.misses, ops.len() as u64);
        // Every dirty line reaches DRAM at least once, possibly more if
        // re-dirtied after an eviction.
        prop_assert!(sim.dram_writes_lines >= dirty_lines.len() as u64);
        // Monotone filtering: lower levels see at most the accesses the
        // upper ones missed.
        let l2 = sim.counters(1);
        let l3 = sim.counters(2);
        prop_assert!(l2.hits + l2.misses <= l1.misses);
        prop_assert!(l3.hits + l3.misses <= l2.misses);
    }

    /// Set-associative caches of any legal geometry preserve hit+miss
    /// conservation and never exceed capacity.
    #[test]
    fn set_assoc_geometry_invariants(
        ops in prop::collection::vec((0usize..2048, any::<bool>()), 1..400),
        ways in prop::sample::select(vec![1usize, 2, 4, 8]),
        sets_pow in 1u32..5,
        policy in prop::sample::select(vec![Policy::Lru, Policy::Clock3, Policy::Fifo]),
    ) {
        let sets = 1usize << sets_pow;
        let cap_lines = sets * ways;
        let cfg = CacheConfig {
            capacity_words: cap_lines * 8,
            line_words: 8,
            ways,
            policy,
        };
        let mut sim = MemSim::two_level(cfg);
        for &(addr, is_write) in &ops {
            if is_write {
                sim.write(addr);
            } else {
                sim.read(addr);
            }
        }
        let c = sim.llc();
        prop_assert_eq!(c.hits + c.misses, ops.len() as u64);
        prop_assert!(sim.resident_lines(0) <= cap_lines);
        prop_assert_eq!(c.fills - c.victims(), sim.resident_lines(0) as u64);
    }

    /// LRU inclusion: a bigger fully-associative cache never writes back
    /// more (flush included) nor misses more. This is why a cache of `M`
    /// words plus a `K`-word write buffer may be treated as one `M + K`
    /// cache when bounding write-backs (§2.2).
    #[test]
    fn bigger_cache_never_writes_back_more(
        ops in prop::collection::vec((0usize..1024, any::<bool>()), 1..2000),
        cap_lines in 1usize..24,
        extra_lines in 1usize..16,
    ) {
        let run = |lines: usize| {
            let mut sim = MemSim::two_level(CacheConfig {
                capacity_words: lines * 8,
                line_words: 8,
                ways: 0,
                policy: Policy::Lru,
            });
            for &(addr, is_write) in &ops {
                if is_write {
                    sim.write(addr);
                } else {
                    sim.read(addr);
                }
            }
            sim.flush();
            let c = sim.llc();
            (c.victims_m + c.flush_victims_m, c.misses)
        };
        let (small_wb, small_misses) = run(cap_lines);
        let (big_wb, big_misses) = run(cap_lines + extra_lines);
        prop_assert!(big_wb <= small_wb, "write-backs {} > {}", big_wb, small_wb);
        prop_assert!(big_misses <= small_misses);
    }
}
