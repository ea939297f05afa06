//! Counter-exactness of the line-granular fast path.
//!
//! The bulk APIs ([`MemSim::read_range`], [`MemSim::write_range`],
//! [`MemSim::run`]) and the last-line memo inside `access` are pure
//! accelerations: for ANY access trace, every [`LevelCounters`] field of
//! every level — and the DRAM line tallies — must be byte-identical to
//! the per-word reference walk (`disable_fast_path`). These property
//! tests drive random run traces through random 1-, 2-, and 3-level
//! hierarchies under every replacement policy and compare the two paths
//! field for field.
//!
//! The same holds for the `traced` backend's [`TraceTally`]: driven
//! through [`TraceMem`]'s run path (`ld_run`/`st_run`) it must report the
//! word, write and distinct-line counts of the per-word `ld`/`st` walk,
//! and of a `BTreeSet` of `addr / LINE_WORDS` built from the same runs.

use memsim::{
    AccessRun, CacheConfig, LevelCounters, Mem, MemSim, Policy, TraceMem, TraceTally, LINE_WORDS,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// All (ways, policy) combinations the simulator supports. Fully
/// associative (`ways == 0`) requires true LRU; the set-associative
/// configurations exercise LRU, the 3-bit clock, and FIFO.
const CONFIGS: [(usize, Policy); 4] = [
    (0, Policy::Lru),
    (2, Policy::Lru),
    (4, Policy::Clock3),
    (2, Policy::Fifo),
];

fn build(levels: usize, ways: usize, policy: Policy, base_lines: usize) -> MemSim {
    let cfgs: Vec<CacheConfig> = (0..levels)
        .map(|i| CacheConfig {
            // Strictly growing capacities: 4x per level keeps every level
            // a whole number of (ways-divisible) sets.
            capacity_words: (base_lines * 8) << (2 * i),
            line_words: 8,
            ways,
            policy,
        })
        .collect();
    MemSim::new(&cfgs)
}

/// Apply `runs` through the bulk API on one sim and the per-word
/// reference walk on another; compare every counter of every level.
fn assert_equivalent(
    levels: usize,
    ways: usize,
    policy: Policy,
    base_lines: usize,
    runs: &[AccessRun],
) {
    let mut fast = build(levels, ways, policy, base_lines);
    let mut refr = build(levels, ways, policy, base_lines);
    refr.disable_fast_path();
    fast.run(runs);
    for r in runs {
        for a in r.addr..r.addr + r.words {
            if r.is_write {
                refr.write(a);
            } else {
                refr.read(a);
            }
        }
    }
    for i in 0..levels {
        let (f, r): (LevelCounters, LevelCounters) = (fast.counters(i), refr.counters(i));
        assert_eq!(f, r, "level {i} counters diverge ({ways}-way {policy:?})");
    }
    assert_eq!(fast.dram_reads_lines, refr.dram_reads_lines);
    assert_eq!(fast.dram_writes_lines, refr.dram_writes_lines);
    // And after a flush both must have pushed the same dirty state out.
    fast.flush();
    refr.flush();
    for i in 0..levels {
        assert_eq!(
            fast.counters(i),
            refr.counters(i),
            "level {i} counters diverge after flush"
        );
    }
    assert_eq!(fast.dram_writes_lines, refr.dram_writes_lines);
}

/// `(words, writes, distinct_lines)` of a tally.
fn counts(t: &TraceTally) -> (u64, u64, u64) {
    (t.words(), t.writes(), t.distinct_lines())
}

/// The reference counts of `runs`, from a `BTreeSet` of line indices.
fn reference_counts(runs: &[AccessRun]) -> (u64, u64, u64) {
    let lines: BTreeSet<usize> = runs
        .iter()
        .flat_map(|r| (r.addr..r.addr + r.words).map(|a| a / LINE_WORDS))
        .collect();
    let words = runs.iter().map(|r| r.words as u64).sum();
    let writes = runs
        .iter()
        .filter(|r| r.is_write)
        .map(|r| r.words as u64)
        .sum();
    (words, writes, lines.len() as u64)
}

/// Drive `runs` through `TraceMem`'s run path and, on a second
/// `TraceMem`, through the per-word hooks; both must match the
/// reference counts (and the stored data must agree).
fn assert_trace_equivalent(words: usize, runs: &[AccessRun]) {
    let mut fast = TraceMem::new(words);
    let mut slow = TraceMem::new(words);
    for (i, r) in runs.iter().enumerate() {
        let span = r.addr..r.addr + r.words;
        if r.is_write {
            let src: Vec<f64> = span.clone().map(|a| (a + i) as f64).collect();
            fast.st_run(r.addr, &src);
            for (a, v) in span.zip(src) {
                slow.st(a, v);
            }
        } else {
            let mut out = vec![0.0; r.words];
            fast.ld_run(r.addr, &mut out);
            let walked: Vec<f64> = span.map(|a| slow.ld(a)).collect();
            assert_eq!(out, walked, "run {i} loaded different data");
        }
    }
    let want = reference_counts(runs);
    assert_eq!(counts(&fast.tally), want, "run path vs reference");
    assert_eq!(counts(&slow.tally), want, "per-word path vs reference");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random run traces over a small address space (heavy line reuse and
    /// eviction pressure) across all policies and 1/2/3-level shapes.
    #[test]
    fn range_and_bulk_api_match_per_word_reference(
        levels in 1usize..4,
        cfg_idx in 0usize..4,
        base_lines in 2usize..6,
        spec in prop::collection::vec((0usize..160, 1usize..24, any::<bool>()), 1..40),
    ) {
        let (ways, policy) = CONFIGS[cfg_idx];
        let runs: Vec<AccessRun> = spec
            .iter()
            .map(|&(addr, words, is_write)| AccessRun { addr, words, is_write })
            .collect();
        assert_equivalent(levels, ways, policy, base_lines * 4, &runs);
    }

    /// Dense same-line hammering maximizes memo usage; strided runs
    /// maximize line crossings. Both extremes must stay exact.
    #[test]
    fn adversarial_memo_traces_match(
        stride in 1usize..12,
        reps in 1usize..30,
        cfg_idx in 0usize..4,
    ) {
        let (ways, policy) = CONFIGS[cfg_idx];
        let mut runs = Vec::new();
        for r in 0..reps {
            // Same word over and over, then a strided hop, then a span
            // crossing several lines starting mid-line.
            runs.push(AccessRun::write(r * stride, 1));
            runs.push(AccessRun::read(r * stride, 1));
            runs.push(AccessRun::read(r * stride + 3, 13));
        }
        assert_equivalent(2, ways, policy, 8, &runs);
    }

    /// Random run traces through `TraceMem`, zero-length runs included:
    /// run path, per-word walk and `BTreeSet` reference agree.
    #[test]
    fn trace_run_path_matches_per_word_reference(
        spec in prop::collection::vec((0usize..160, 0usize..24, any::<bool>()), 1..40),
    ) {
        let runs: Vec<AccessRun> = spec
            .iter()
            .map(|&(addr, words, is_write)| AccessRun { addr, words, is_write })
            .collect();
        assert_trace_equivalent(184, &runs);
    }

    /// A tally that starts empty, as each parallel rank's does, grows its
    /// bitset across many 64-line slots and still counts exactly.
    #[test]
    fn trace_tally_grows_past_its_initial_capacity(
        spec in prop::collection::vec((0usize..1 << 16, 0usize..700, any::<bool>()), 1..24),
    ) {
        let runs: Vec<AccessRun> = spec
            .iter()
            .map(|&(addr, words, is_write)| AccessRun { addr, words, is_write })
            .collect();
        let mut t = TraceTally::default();
        for r in &runs {
            if r.is_write {
                t.write_range(r.addr, r.words);
            } else {
                t.read_range(r.addr, r.words);
            }
        }
        prop_assert_eq!(counts(&t), reference_counts(&runs));
    }
}

/// Hand-picked edges: zero-length runs, single words at both ends of a
/// line, unaligned runs straddling one and many lines, runs crossing a
/// 64-line bitset slot, and exact repeats that add no new line.
#[test]
fn trace_edge_runs_match_per_word_reference() {
    let slot = 64 * LINE_WORDS;
    let runs = [
        AccessRun::read(0, 0),
        AccessRun::write(7, 0),
        AccessRun::read(7, 1),
        AccessRun::write(8, 1),
        AccessRun::read(5, 6),
        AccessRun::write(3, 29),
        AccessRun::read(slot - 3, 6),
        AccessRun::write(slot - 1, 2),
        AccessRun::read(LINE_WORDS, 3 * slot),
        AccessRun::write(5, 6),
        AccessRun::read(4 * slot - 1, 1),
    ];
    assert_trace_equivalent(4 * slot, &runs);
}
