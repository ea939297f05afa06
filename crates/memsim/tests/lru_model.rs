//! Model-based property tests: the O(1) fully-associative LRU
//! implementation must agree, access for access, with a naive
//! reference model (vector of (line, dirty, timestamp)), and must keep
//! LRU's inclusion property as capacity grows. The multi-level stack is
//! checked counter for counter against a naive inclusive model too.

use memsim::{CacheConfig, LevelCounters, MemSim, Policy};
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

/// One level of [`RefHier`]: resident `(line, dirty, last_use)` entries.
struct RefLevel {
    cap: usize,
    lines: Vec<(u64, bool, u64)>,
    c: LevelCounters,
}

impl RefLevel {
    fn pos(&self, line: u64) -> Option<usize> {
        self.lines.iter().position(|e| e.0 == line)
    }
}

/// Naive inclusive multi-level FA-LRU write-back hierarchy, the semantics
/// `MemSim` documents, kept in plain vectors with linear scans:
///
/// * an access walks down to the first level holding the line (a hit
///   refreshes only that level's recency) and fills every level above;
/// * writes dirty L1 only;
/// * a victim at level `i` back-invalidates its copies in the faster
///   levels, merges their dirtiness, and counts as M or E at level `i`;
///   a dirty victim marks level `i + 1` dirty or is a DRAM write;
/// * flush drains top-down, each dirty line counting a flush victim at
///   its level and dirtying the next one (or DRAM).
struct RefHier {
    line_words: usize,
    levels: Vec<RefLevel>,
    clock: u64,
    dram_reads: u64,
    dram_writes: u64,
}

impl RefHier {
    fn new(caps: &[usize], line_words: usize) -> Self {
        RefHier {
            line_words,
            levels: caps
                .iter()
                .map(|&cap| RefLevel {
                    cap,
                    lines: Vec::new(),
                    c: LevelCounters::default(),
                })
                .collect(),
            clock: 0,
            dram_reads: 0,
            dram_writes: 0,
        }
    }

    fn access(&mut self, addr: usize, is_write: bool) {
        self.clock += 1;
        let line = (addr / self.line_words) as u64;
        let n = self.levels.len();
        let mut hit = n;
        for i in 0..n {
            let l = &mut self.levels[i];
            match l.pos(line) {
                Some(k) => {
                    l.c.hits += 1;
                    l.lines[k].2 = self.clock;
                    l.lines[k].1 |= is_write && i == 0;
                    hit = i;
                    break;
                }
                None => l.c.misses += 1,
            }
        }
        if hit == n {
            self.dram_reads += 1;
        }
        for i in (0..hit).rev() {
            let l = &mut self.levels[i];
            let victim = (l.lines.len() == l.cap).then(|| {
                let k = (0..l.lines.len()).min_by_key(|&k| l.lines[k].2).unwrap();
                l.lines.swap_remove(k)
            });
            l.c.fills += 1;
            l.lines.push((line, is_write && i == 0, self.clock));
            if let Some((vline, vdirty, _)) = victim {
                self.evict(i, vline, vdirty);
            }
        }
    }

    fn evict(&mut self, i: usize, line: u64, mut dirty: bool) {
        for j in 0..i {
            if let Some(k) = self.levels[j].pos(line) {
                dirty |= self.levels[j].lines.swap_remove(k).1;
            }
        }
        if dirty {
            self.levels[i].c.victims_m += 1;
            self.mark_below(i, line);
        } else {
            self.levels[i].c.victims_e += 1;
        }
    }

    /// A dirty line leaves level `i`: dirty its copy below, or write DRAM.
    fn mark_below(&mut self, i: usize, line: u64) {
        match self.levels.get_mut(i + 1) {
            Some(below) => {
                let k = below.pos(line).expect("inclusion");
                below.lines[k].1 = true;
            }
            None => self.dram_writes += 1,
        }
    }

    fn flush(&mut self) {
        for i in 0..self.levels.len() {
            for (line, dirty, _) in std::mem::take(&mut self.levels[i].lines) {
                if dirty {
                    self.levels[i].c.flush_victims_m += 1;
                    self.mark_below(i, line);
                }
            }
        }
    }

    /// Every counter of every level, then DRAM reads and writes.
    fn counters(&self) -> (Vec<LevelCounters>, u64, u64) {
        let c = self.levels.iter().map(|l| l.c).collect();
        (c, self.dram_reads, self.dram_writes)
    }
}

/// [`RefHier::counters`] read off a `MemSim`.
fn sim_counters(sim: &MemSim) -> (Vec<LevelCounters>, u64, u64) {
    let c = (0..sim.num_levels()).map(|i| sim.counters(i)).collect();
    (c, sim.dram_reads_lines, sim.dram_writes_lines)
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

    /// `MemSim` on 1-, 2- and 3-level FA-LRU stacks equals the naive
    /// inclusive model on every counter of every level and on the DRAM
    /// tallies, before and after each flush, with reuse after the first
    /// flush. Runs go through `read_range`/`write_range` (the line memo
    /// and the line-granular path), and some land on a high line, which
    /// grows the dense line table far past the footprint.
    #[test]
    fn stacked_fa_lru_matches_the_inclusive_reference_model(
        ops in prop::collection::vec((0usize..640, 1usize..20, any::<bool>(), 0u8..16), 1..300),
        depth in 1usize..4,
        line_words in prop::sample::select(vec![1usize, 2, 8]),
        caps in (1usize..5, 1usize..6, 1usize..10),
        split in 0usize..300,
    ) {
        let caps = [caps.0, caps.0 + caps.1, caps.0 + caps.1 + caps.2];
        let caps = &caps[..depth];
        let cfgs: Vec<CacheConfig> = caps
            .iter()
            .map(|&lines| CacheConfig {
                capacity_words: lines * line_words,
                line_words,
                ways: 0,
                policy: Policy::Lru,
            })
            .collect();
        let mut sim = MemSim::new(&cfgs);
        let mut model = RefHier::new(caps, line_words);
        let split = split.min(ops.len());
        for (half, part) in [&ops[..split], &ops[split..]].into_iter().enumerate() {
            for &(addr, words, is_write, high) in part {
                // One op in 16 lands 2^20 lines up.
                let addr = if high == 0 { addr + (line_words << 20) } else { addr };
                if is_write {
                    sim.write_range(addr, words);
                } else {
                    sim.read_range(addr, words);
                }
                for a in addr..addr + words {
                    model.access(a, is_write);
                }
            }
            let (got, want) = (sim_counters(&sim), model.counters());
            prop_assert!(got == want, "before flush {}: sim {:?} != model {:?}", half, got, want);
            sim.flush();
            model.flush();
            let (got, want) = (sim_counters(&sim), model.counters());
            prop_assert!(got == want, "after flush {}: sim {:?} != model {:?}", half, got, want);
        }
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
