//! Adapters projecting both measurement substrates into the uniform
//! [`RunReport`] shape.
//!
//! * [`explicit_report`] — an [`ExplicitHier`]'s per-boundary word counts
//!   and R2 local writes transfer directly: the explicit model *is* the
//!   refined model of the paper, so the projection is lossless.
//! * [`memsim_report`] — a [`MemSim`]'s per-level fill/victim counters are
//!   reinterpreted as boundary traffic: a fill of level `i` is a load
//!   across boundary `i` (slow→fast, one line message), a dirty victim of
//!   level `i` is a store across it, and the DRAM boundary uses the
//!   simulator's `dram_reads_lines`/`dram_writes_lines`. Call
//!   [`MemSim::flush`] first if end-of-run dirty state should be charged
//!   (the cross-model agreement tests do; the Figure 2 reproductions do
//!   not, matching the paper's counter methodology).
//!
//! * [`stack_report`] — a [`StackSim`]'s all-capacities projection: the
//!   report's single boundary carries the counters at the workload's own
//!   fast-memory capacity (identical to what a flushed single-level
//!   `simmed` run would report), and the full [`wa_core::CapacityCurve`]
//!   rides along in [`RunReport::curve`].
//!
//! The projections emit the *same* schema, which is what makes
//! explicit-vs-simulated cross-validation a `diff` of two reports instead
//! of a by-eye comparison of unlike tables.

use crate::explicit::ExplicitHier;
use crate::hierarchy::MemSim;
use crate::stack::StackSim;
use wa_core::report::RunReport;
use wa_core::traffic::BoundaryTraffic;

/// Fill `report` from an explicit-movement run: per-boundary traffic,
/// per-level writes (boundary loads/stores plus R2 local writes), flops,
/// and a capacity echo.
pub fn explicit_report(h: &ExplicitHier, report: RunReport) -> RunReport {
    let levels = h.num_levels();
    let local: Vec<u64> = (1..=levels).map(|l| h.local_writes(l)).collect();
    let mut r = report.with_boundaries(h.traffic(), &local);
    r.flops = h.flops();
    let caps: Vec<String> = (1..=levels)
        .map(|l| {
            let c = h.capacity(l);
            if c == u64::MAX {
                "inf".to_string()
            } else {
                c.to_string()
            }
        })
        .collect();
    r.config("levels", levels)
        .config("capacities_words", caps.join("/"))
}

/// Fill `report` from a cache-simulator run.
///
/// Boundary `i` (0-indexed) separates simulated level `i` (fast side)
/// from level `i+1`; the last boundary is LLC↔DRAM. Word counts are
/// line-granular: `words = lines × line_words`, `msgs = lines` (each line
/// transfer is one message — the block-transfer notion of the model).
pub fn memsim_report(sim: &MemSim, report: RunReport) -> RunReport {
    let n = sim.num_levels();
    let lw = sim.line_words() as u64;
    let mut bt = BoundaryTraffic::new(n + 1);
    for i in 0..n {
        let c = sim.counters(i);
        let b = bt.boundary_mut(i);
        // Fills of level i arrive from the slow side of boundary i.
        b.load_words = c.fills * lw;
        b.load_msgs = c.fills;
        // Dirty victims of level i are written back across boundary i;
        // flush()-drained dirty lines cross it too (flush_victims_m). At
        // the LLC use the DRAM tallies instead, which already include
        // flush traffic if the caller flushed.
        if i + 1 == n {
            b.load_words = sim.dram_reads_lines * lw;
            b.load_msgs = sim.dram_reads_lines;
            b.store_words = sim.dram_writes_lines * lw;
            b.store_msgs = sim.dram_writes_lines;
        } else {
            let wb = c.victims_m + c.flush_victims_m;
            b.store_words = wb * lw;
            b.store_msgs = wb;
        }
    }
    let mut r = report.with_boundaries(&bt, &[]);
    let llc = sim.llc();
    r = r
        .config("levels", n)
        .config("line_words", lw)
        .config(
            "capacities_words",
            (0..n)
                .map(|i| sim.config(i).capacity_words.to_string())
                .collect::<Vec<_>>()
                .join("/"),
        )
        .config("llc_hits", llc.hits)
        .config("llc_misses", llc.misses)
        .config("llc_victims_m", llc.victims_m)
        .config("llc_victims_e", llc.victims_e)
        .config("llc_flush_victims_m", llc.flush_victims_m)
        .config("memo_hits", sim.memo_hits)
        .config("memo_misses", sim.memo_misses);
    if let Some(p) = sim.probe() {
        let phases = p.finalized(sim.snapshot());
        if let Some(h) = p.reuse() {
            r = r.config("reuse_hist", h.render());
        }
        if let Some(rec) = wa_core::obs::active() {
            // Close every counter track on the run's final totals and
            // hand the per-phase table to the recorder for `profile`.
            sim.emit_counter_tracks();
            rec.push_phase_rows(
                phases
                    .iter()
                    .map(|p| wa_core::obs::PhaseRow {
                        phase: p.name.clone(),
                        wall_ns: p.wall_ns,
                        accesses: p.accesses,
                        fills: p.fills.clone(),
                        writebacks: p.writebacks.clone(),
                        dram_reads: p.dram_reads,
                        dram_writes: p.dram_writes,
                        memo_hits: p.memo_hits,
                        memo_misses: p.memo_misses,
                    })
                    .collect(),
            );
        }
        r = r.note(format!("probe: {} phase(s) observed", phases.len()));
    }
    r
}

/// Fill `report` from a single-pass stack simulation, projecting the
/// boundary counters at `fast_words` (the capacity the workload's
/// `simmed` backend would simulate) and attaching the all-capacities
/// [`wa_core::CapacityCurve`]. Line counts match a *flushed* FA-LRU
/// [`MemSim::single_level_lru`] run of the same trace at `fast_words`,
/// so `stack` and `simmed` cells cross-check by construction.
pub fn stack_report(sim: &StackSim, fast_words: usize, report: RunReport) -> RunReport {
    let curve = sim.curve();
    let p = curve.at(fast_words as u64);
    let lw = curve.line_words;
    let mut bt = BoundaryTraffic::new(2);
    let b = bt.boundary_mut(0);
    b.load_words = p.fills * lw;
    b.load_msgs = p.fills;
    b.store_words = p.dram_writes_lines() * lw;
    b.store_msgs = p.dram_writes_lines();
    let mut r = report.with_boundaries(&bt, &[]);
    r = r
        .config("levels", 1)
        .config("line_words", lw)
        .config("capacities_words", fast_words)
        .config("llc_hits", p.hits)
        .config("llc_misses", p.misses)
        .config("llc_victims_m", p.writebacks)
        .config("llc_flush_victims_m", p.flush_writebacks)
        .config("footprint_lines", curve.footprint_lines)
        .config("cold_lines", curve.cold)
        .config("repeats", curve.repeats)
        .note(format!(
            "stack: single-pass Mattson projection over {} capacities (flushed semantics)",
            curve.default_ladder().len()
        ));
    r.curve = Some(curve);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::policy::Policy;
    use wa_core::engine::{BackendKind, Scale};

    fn blank(backend: BackendKind) -> RunReport {
        RunReport::new("t", backend, Scale::Small)
    }

    #[test]
    fn explicit_projection_is_lossless() {
        let mut h = ExplicitHier::two_level(100);
        h.load(0, 60);
        h.alloc(1, 10);
        h.store(0, 60);
        h.free(1, 70);
        h.flop(123);
        let r = explicit_report(&h, blank(BackendKind::Explicit));
        assert_eq!(r.boundaries.len(), 1);
        assert_eq!(r.boundaries[0].load_words, 60);
        assert_eq!(r.boundaries[0].store_words, 60);
        // L1 writes: 60 loaded + 10 local; slow level receives the store.
        assert_eq!(r.writes_per_level, vec![70, 60]);
        assert_eq!(r.flops, 123);
        assert_eq!(r.writes_to_slow(), 60);
    }

    #[test]
    fn memsim_projection_counts_lines_after_flush() {
        let cfg = CacheConfig {
            capacity_words: 64,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let mut sim = MemSim::two_level(cfg);
        // Write 16 lines through an 8-line cache: 8 victims during the
        // run, 8 more on flush.
        for a in (0..128).step_by(8) {
            sim.write(a);
        }
        sim.flush();
        let r = memsim_report(&sim, blank(BackendKind::Simmed));
        assert_eq!(r.boundaries.len(), 1);
        assert_eq!(r.boundaries[0].load_words, 16 * 8);
        assert_eq!(r.boundaries[0].store_words, 16 * 8);
        assert_eq!(r.writes_to_slow(), 128);
        // Config echo carries the raw counters, memo rates included.
        assert!(r.config.iter().any(|(k, v)| k == "llc_misses" && v == "16"));
        assert!(r
            .config
            .iter()
            .any(|(k, v)| k == "memo_misses" && v == "16"));
        assert!(r.config.iter().any(|(k, v)| k == "memo_hits" && v == "0"));
    }

    #[test]
    fn stack_report_boundary_equals_flushed_simmed_at_the_same_capacity() {
        use wa_core::AccessRun;
        let runs = [
            AccessRun::read(0, 128),
            AccessRun::write(0, 64),
            AccessRun::read(128, 64),
            AccessRun::write(32, 8),
        ];
        let mut sim = MemSim::single_level_lru(64);
        sim.run(&runs);
        sim.flush();
        let simmed = memsim_report(&sim, blank(BackendKind::Simmed));

        let mut st = crate::stack::StackSim::new();
        st.run(&runs);
        let stack = stack_report(&st, 64, blank(BackendKind::Stack));

        assert_eq!(stack.boundaries.len(), 1);
        assert_eq!(stack.boundaries[0], simmed.boundaries[0]);
        let curve = stack.curve.as_ref().expect("stack report carries a curve");
        assert_eq!(curve.footprint_lines, 24);
        // The curve is monotone: larger capacity, fewer fills.
        let f: Vec<u64> = curve
            .default_ladder()
            .iter()
            .map(|&c| curve.at(c).fills)
            .collect();
        assert!(
            f.windows(2).all(|w| w[1] <= w[0]),
            "fills not monotone: {f:?}"
        );
    }

    #[test]
    fn probe_phase_table_reaches_the_report_notes() {
        let mut sim = MemSim::single_level_lru(64);
        sim.attach_probe(true);
        sim.read_range(0, 32);
        sim.phase("tail");
        sim.write_range(0, 8);
        let r = memsim_report(&sim, blank(BackendKind::Simmed));
        assert!(r.notes.iter().any(|n| n.contains("phase(s) observed")));
        assert!(
            r.config
                .iter()
                .any(|(k, v)| k == "reuse_hist" && v.contains("cold=4")),
            "config: {:?}",
            r.config
        );
    }

    #[test]
    fn flush_charges_inner_boundaries_too() {
        // One dirty line left in L1 at the end: after flush() it crosses
        // both the L1/L2 boundary and the LLC/DRAM boundary.
        let cfg = |w: usize| CacheConfig {
            capacity_words: w,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let mut sim = MemSim::new(&[cfg(64), cfg(256)]);
        sim.write(0);
        sim.flush();
        let r = memsim_report(&sim, blank(BackendKind::Simmed));
        assert_eq!(r.boundaries[0].store_words, 8);
        assert_eq!(r.boundaries[1].store_words, 8);
        assert_eq!(r.writes_to_slow(), 8);
    }

    #[test]
    fn memsim_three_level_boundary_shape() {
        let cfg = |w: usize| CacheConfig {
            capacity_words: w,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        };
        let mut sim = MemSim::new(&[cfg(64), cfg(256), cfg(1024)]);
        for a in (0..4096).step_by(8) {
            sim.read(a);
        }
        let r = memsim_report(&sim, blank(BackendKind::Simmed));
        // 3 cache levels -> 3 boundaries (L1/L2, L2/L3, L3/DRAM).
        assert_eq!(r.boundaries.len(), 3);
        assert_eq!(r.boundaries[2].load_words, sim.dram_reads_lines * 8);
        assert_eq!(r.writes_per_level.len(), 4);
    }
}
