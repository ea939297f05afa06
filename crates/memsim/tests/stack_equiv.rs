//! Exactness of the single-pass Mattson stack projection.
//!
//! For ANY access trace and ANY capacity, the [`StackSim`] curve must be
//! byte-identical to an independent per-capacity FA-LRU
//! [`MemSim::single_level_lru`] run of the same trace — fills, during-run
//! dirty victims, flush write-backs, and word-granular hits alike. These
//! property tests drive random run traces and random capacity lists
//! through both simulators, plus the edge cases (empty trace, capacity
//! beyond the footprint, write-only streams). Long traces over a few
//! lines force many compactions of the recency stack's tick window.
//!
//! The recency stack's other client, the probe's [`memsim::ReuseHist`],
//! must bucket exactly the distances the stack simulator counts.

use memsim::{AccessRun, MemSim, StackSim};
use proptest::prelude::*;

/// Reference counters at one capacity: a flushed FA-LRU MemSim run.
/// Returns (fills, victims_m, flush_victims_m, hits, dram_reads,
/// dram_writes).
fn reference(runs: &[AccessRun], cap_words: usize) -> (u64, u64, u64, u64, u64, u64) {
    let mut m = MemSim::single_level_lru(cap_words);
    m.run(runs);
    m.flush();
    let c = m.llc();
    (
        c.fills,
        c.victims_m,
        c.flush_victims_m,
        c.hits,
        m.dram_reads_lines,
        m.dram_writes_lines,
    )
}

/// Project the stack curve at every capacity in `caps_lines` and compare
/// field-for-field against independent per-capacity reference runs.
fn assert_curve_matches(runs: &[AccessRun], caps_lines: &[usize]) {
    let mut s = StackSim::new();
    s.run(runs);
    let curve = s.curve();
    // Histogram mass: every line touch is cold, repeat, or distanced.
    assert_eq!(curve.line_touches, curve.word_accesses);
    for &c in caps_lines {
        let cap_words = c * 8;
        let p = curve.at(cap_words as u64);
        let (fills, victims_m, flush_m, hits, dram_r, dram_w) = reference(runs, cap_words);
        assert_eq!(p.fills, fills, "fills at {c} lines");
        assert_eq!(p.writebacks, victims_m, "victims_m at {c} lines");
        assert_eq!(p.flush_writebacks, flush_m, "flush_victims_m at {c} lines");
        assert_eq!(p.hits, hits, "hits at {c} lines");
        assert_eq!(p.dram_reads_lines(), dram_r, "dram reads at {c} lines");
        assert_eq!(p.dram_writes_lines(), dram_w, "dram writes at {c} lines");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random run traces over a small address space (heavy reuse and
    /// eviction pressure), checked at a random capacity list. A random
    /// tail of up to thousands of runs over a few lines follows: its
    /// distinct-line touches fill the tick window many times over, so
    /// distances must survive repeated compactions.
    #[test]
    fn random_traces_match_reference_at_random_capacities(
        spec in prop::collection::vec((0usize..160, 1usize..24, any::<bool>()), 1..40),
        tail in prop::collection::vec((0usize..40, 1usize..12, any::<bool>()), 0..4000),
        caps in prop::collection::vec(1usize..30, 1..6),
    ) {
        let runs: Vec<AccessRun> = spec
            .iter()
            .chain(&tail)
            .map(|&(addr, words, is_write)| AccessRun { addr, words, is_write })
            .collect();
        assert_curve_matches(&runs, &caps);
    }

    /// The two recency-stack clients agree on random line streams: a
    /// `MemSim` probe's bucketed `ReuseHist` equals the `StackSim` exact
    /// distance histogram after bucketing, with the same cold and repeat
    /// counts.
    #[test]
    fn reuse_hist_buckets_the_stack_distance_histogram(
        spec in prop::collection::vec((0usize..400, 1usize..24, any::<bool>()), 1..2000),
    ) {
        let runs: Vec<AccessRun> = spec
            .iter()
            .map(|&(addr, words, is_write)| AccessRun { addr, words, is_write })
            .collect();
        let mut m = MemSim::single_level_lru(64);
        m.attach_probe(true);
        m.run(&runs);
        let h = m.probe().unwrap().reuse().unwrap();
        let mut s = StackSim::new();
        s.run(&runs);
        let curve = s.curve();
        prop_assert_eq!(h.cold, curve.cold);
        prop_assert_eq!(h.repeats, curve.repeats);
        let mut buckets = vec![0u64];
        let mut below = 0;
        for (d, cum) in curve.dist_cum.to_vec().into_iter().enumerate() {
            let b = if d == 0 { 0 } else { 64 - (d as u64).leading_zeros() as usize };
            if buckets.len() <= b {
                buckets.resize(b + 1, 0);
            }
            buckets[b] += cum - below;
            below = cum;
        }
        // Trailing empty buckets carry no information.
        let trim = |v: &[u64]| v[..v.iter().rposition(|&n| n > 0).map_or(1, |i| i + 1)].to_vec();
        prop_assert_eq!(trim(&h.buckets), trim(&buckets));
        prop_assert_eq!(h.total(), curve.line_touches);
    }

    /// Write-heavy ping-pong + strided spans: maximizes dirty evictions,
    /// re-dirtying, and repeat writes — the paths the interval emission
    /// and the repeat memo must get exactly right.
    #[test]
    fn adversarial_write_patterns_match(
        stride in 1usize..12,
        reps in 1usize..30,
    ) {
        let mut runs = Vec::new();
        for r in 0..reps {
            runs.push(AccessRun::write(r * stride, 1));
            runs.push(AccessRun::read(r * stride, 1));
            runs.push(AccessRun::write(r * stride + 3, 13));
        }
        assert_curve_matches(&runs, &[1, 2, 3, 5, 8, 64]);
    }

    /// Write-only streams: every fill eventually leaves dirty (during the
    /// run or at flush), at every capacity.
    #[test]
    fn write_only_streams_match(
        spec in prop::collection::vec((0usize..120, 1usize..20), 1..30),
        caps in prop::collection::vec(1usize..20, 1..5),
    ) {
        let runs: Vec<AccessRun> = spec
            .iter()
            .map(|&(addr, words)| AccessRun::write(addr, words))
            .collect();
        assert_curve_matches(&runs, &caps);
        // Cross-capacity invariant: total DRAM writes = fills at every
        // capacity (each filled line is written at least once after).
        let mut s = StackSim::new();
        s.run(&runs);
        let curve = s.curve();
        for &c in &caps {
            let p = curve.at((c * 8) as u64);
            assert_eq!(p.dram_writes_lines(), p.fills, "write-only at {c} lines");
        }
    }
}

#[test]
fn empty_trace_is_all_zero_at_every_capacity() {
    assert_curve_matches(&[], &[1, 2, 7, 100]);
}

#[test]
fn capacity_beyond_footprint_sees_only_cold_misses() {
    let runs = [
        AccessRun::read(0, 40),
        AccessRun::write(8, 24),
        AccessRun::read(0, 40),
    ];
    // Footprint is 5 lines; everything ≥ 5 lines behaves identically.
    assert_curve_matches(&runs, &[5, 6, 100, 4096]);
    let mut s = StackSim::new();
    s.run(&runs);
    let curve = s.curve();
    let p = curve.at(4096 * 8);
    assert_eq!(
        p.fills, curve.cold,
        "no capacity misses above the footprint"
    );
    assert_eq!(p.writebacks, 0, "nothing evicted above the footprint");
    assert_eq!(p.flush_writebacks, 3, "the 3 written lines flush");
}

#[test]
fn zero_length_runs_and_partial_lines_are_harmless() {
    let runs = [
        AccessRun::read(3, 0),
        AccessRun::write(5, 9),
        AccessRun::read(13, 1),
        AccessRun::write(0, 0),
    ];
    assert_curve_matches(&runs, &[1, 2, 3]);
}
