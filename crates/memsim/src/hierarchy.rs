//! Inclusive multi-level write-back hierarchy.
//!
//! Levels are ordered fastest first (`levels[0]` = L1, last = LLC). The
//! hierarchy is *inclusive* like the Nehalem-EX machine in the paper's
//! Section 6: every line resident in a faster level is also resident in all
//! slower levels, and evicting a line from a slower level back-invalidates
//! the faster copies (merging their dirtiness into the victim). Writes dirty
//! the topmost level only; dirtiness trickles down on eviction, exactly as
//! in hardware write-back caches.
//!
//! Counters per level mirror the paper's uncore events; at the last level,
//! `victims_m` is the number of obligatory DRAM write-backs
//! (`LLC_VICTIMS.M`), `victims_e` the clean forgotten lines
//! (`LLC_VICTIMS.E`), and `fills` the DRAM→LLC reads (`LLC_S_FILLS.E`).
//!
//! Cost of a walk: the word→line step is a shift, and each
//! fully-associative level finds, inserts and back-invalidates a line
//! through a dense line→slot table (one load or store each), so a miss
//! at depth `d` costs O(d) array operations with no hashing. The table is
//! indexed by line number, so addresses must be dense, as they are for
//! every feeder in the workspace (see the `recency` module).
//! Set-associative levels scan their set's ways.

use crate::cache::{CacheConfig, Level, LevelCounters, Touch, Victim};
use crate::probe::{Probe, Snapshot};
pub use wa_core::AccessRun;

/// Multi-level cache simulator. See the module docs for semantics.
///
/// ```
/// use memsim::{CacheConfig, MemSim, Policy};
/// let mut sim = MemSim::two_level(CacheConfig {
///     capacity_words: 64, line_words: 8, ways: 0, policy: Policy::Lru,
/// });
/// sim.write(0);           // miss, fill, dirty
/// sim.read(3);            // same line: hit
/// assert_eq!(sim.llc().hits, 1);
/// sim.flush();
/// assert_eq!(sim.dram_writes_lines, 1);
/// ```
pub struct MemSim {
    levels: Vec<Level>,
    /// `log2(line_words)`: [`Level::new`] asserts a power-of-two line, so
    /// every word→line step on the walk is a shift, not a division.
    line_shift: u32,
    clock: u64,
    /// Two-entry line memo. `memo[0]` is the `(line, l1_slot)` of the most
    /// recent access: after any access that line is resident in L1 at
    /// `l1_slot` and is that level's MRU entry, so a consecutive access to
    /// the same line short-circuits to an L1 hit-count bump — no index
    /// lookup, no recency-list surgery. `memo[1]` is the previous
    /// *distinct* line: ping-pong patterns (fft's bit-reversal, nbody's
    /// pairwise sweep) alternate between two lines, so a `memo[1]` match
    /// skips the index lookup and the multi-level walk but still performs
    /// the full L1 recency update ([`Level::rehit`]) — and, because walks
    /// since the entry was recorded may have evicted the line or reused
    /// the slot, the entry is revalidated against the L1 tag array first
    /// ([`Level::slot_holds`]). Entries always name distinct lines.
    /// Invalidated by [`MemSim::flush`] (the only non-access mutation).
    memo: [Option<(u64, usize)>; 2],
    /// When false, every word takes the full multi-level walk (the
    /// pre-memo reference behavior). Exists so the property tests can
    /// compare the fast path against the reference on the same trace.
    fast_path: bool,
    /// Lines read from DRAM (= fills of the last level).
    pub dram_reads_lines: u64,
    /// Lines written back to DRAM (dirty LLC victims; includes flush if
    /// [`MemSim::flush`] is called).
    pub dram_writes_lines: u64,
    /// Accesses served by the last-line memo (the PR-4 fast path),
    /// including the bulk repeat-hits of `read_range`/`write_range`.
    pub memo_hits: u64,
    /// Accesses that took the full multi-level walk.
    pub memo_misses: u64,
    /// Optional per-phase observer (attached automatically by the
    /// [`MemSim::single_level_lru`]/[`MemSim::stacked_lru`] constructors
    /// when a [`wa_core::obs`] recorder is installed).
    probe: Option<Box<Probe>>,
    /// Cached `probe.has_reuse()` so the per-access hot path pays one
    /// predictable bool test, not an `Option` chain.
    probe_reuse: bool,
    /// Phase marks seen; used to throttle trace counter-track emission.
    phase_marks: u64,
    /// Cancel token captured from the constructing thread (the engine's
    /// cell worker installs one per attempt); `None` outside an engine
    /// dispatch.
    cancel_token: Option<wa_core::CancelToken>,
    /// Clock value at which the token is next polled. `u64::MAX` when no
    /// token is installed, so the hot path pays one predictable compare.
    cancel_check_at: u64,
}

impl MemSim {
    /// Build a hierarchy from fastest to slowest. All levels must share the
    /// line size and capacities must be strictly increasing (inclusivity).
    pub fn new(cfgs: &[CacheConfig]) -> Self {
        assert!(!cfgs.is_empty(), "need at least one cache level");
        let line_words = cfgs[0].line_words;
        for w in cfgs.windows(2) {
            assert_eq!(
                w[0].line_words, w[1].line_words,
                "all levels must share a line size"
            );
            assert!(
                w[0].capacity_words < w[1].capacity_words,
                "capacities must increase toward the LLC (inclusive hierarchy)"
            );
        }
        MemSim {
            levels: cfgs.iter().map(|c| Level::new(*c)).collect(),
            line_shift: line_words.trailing_zeros(),
            clock: 0,
            memo: [None, None],
            fast_path: true,
            dram_reads_lines: 0,
            dram_writes_lines: 0,
            memo_hits: 0,
            memo_misses: 0,
            probe: None,
            probe_reuse: false,
            phase_marks: 0,
            cancel_token: wa_core::cancel::current(),
            cancel_check_at: 0,
        }
        .with_cancel_schedule()
    }

    /// Initialize the cancellation polling schedule after construction:
    /// first poll after one check interval, or never if no token is
    /// installed on this thread.
    fn with_cancel_schedule(mut self) -> Self {
        self.cancel_check_at = if self.cancel_token.is_some() {
            wa_core::cancel::CHECK_INTERVAL
        } else {
            u64::MAX
        };
        self
    }

    /// Poll the captured cancel token (the cold branch of the per-access
    /// check) and unwind with the current clock if it has fired.
    #[cold]
    fn cancel_checkpoint(&mut self) {
        self.cancel_check_at = self.clock + wa_core::cancel::CHECK_INTERVAL;
        if let Some(t) = &self.cancel_token {
            if t.is_cancelled() {
                let reason = t.reason().unwrap_or(wa_core::CancelReason::Deadline);
                wa_core::cancel::raise(self.clock, reason);
            }
        }
    }

    /// Convenience: a single-level (cache + DRAM) simulator, the two-level
    /// model of Sections 2–5.
    pub fn two_level(cfg: CacheConfig) -> Self {
        MemSim::new(&[cfg])
    }

    /// Convenience: a single fully-associative true-LRU cache of `words`
    /// words (8-word lines) over DRAM — the configuration every engine
    /// `simmed` backend defaults to. Centralized here so the workload
    /// crates cannot drift apart on line size or policy.
    pub fn single_level_lru(words: usize) -> Self {
        MemSim::stacked_lru(&[words])
    }

    /// Convenience: a stack of fully-associative true-LRU levels
    /// ([`crate::LINE_WORDS`]-word lines) with the given capacities,
    /// fastest first — the multi-level hierarchies the depth-aware
    /// `simmed` backends build. Centralized like
    /// [`MemSim::single_level_lru`] so the workload crates share one
    /// line size and policy.
    pub fn stacked_lru(caps_words: &[usize]) -> Self {
        let cfgs: Vec<CacheConfig> = caps_words
            .iter()
            .map(|&w| CacheConfig {
                capacity_words: w,
                line_words: crate::xeon::LINE_WORDS,
                ways: 0,
                policy: crate::policy::Policy::Lru,
            })
            .collect();
        let mut sim = MemSim::new(&cfgs);
        // These two constructors are the funnel every engine `simmed`
        // backend builds through, so they are also the observability
        // attach point: tracing/profiling needs no workload signature
        // changes, and with no recorder installed the cost is one
        // atomic load per simulator construction.
        if wa_core::obs::is_active() {
            sim.attach_probe(wa_core::obs::reuse_requested());
        }
        sim
    }

    /// Attach a per-phase [`Probe`] (optionally with the reuse-distance
    /// histogram), replacing any existing one.
    pub fn attach_probe(&mut self, reuse: bool) {
        let mut p = Probe::new(self.levels.len());
        if reuse {
            p = p.with_reuse();
        }
        p.reset_start(self.snapshot());
        self.probe = Some(Box::new(p));
        self.probe_reuse = reuse;
    }

    /// The attached probe, if any.
    pub fn probe(&self) -> Option<&Probe> {
        self.probe.as_deref()
    }

    /// Cumulative counter state right now (what [`Probe`] deltas are
    /// computed from).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            accesses: self.clock,
            counters: self.levels.iter().map(|l| l.counters).collect(),
            dram_reads: self.dram_reads_lines,
            dram_writes: self.dram_writes_lines,
            memo_hits: self.memo_hits,
            memo_misses: self.memo_misses,
        }
    }

    /// Mark a phase boundary: counter deltas and wall time from here on
    /// are attributed to `name`. No-op without a probe (one branch), so
    /// kernels can mark phases unconditionally in hot loops.
    pub fn phase(&mut self, name: &str) {
        if self.probe.is_none() {
            return;
        }
        let snap = self.snapshot();
        // Emit counter-track samples into the trace at phase boundaries,
        // throttled by mark count (kernels mark thousands of times;
        // count-based throttling keeps traces small *and* deterministic).
        self.phase_marks += 1;
        if self.phase_marks % 64 == 1 {
            self.emit_counter_tracks();
        }
        self.probe.as_mut().unwrap().mark(name, snap);
    }

    /// Push one cumulative sample per counter track (per-level fills and
    /// write-backs, DRAM reads/writes, memo hit/miss) to the installed
    /// recorder, if any.
    pub(crate) fn emit_counter_tracks(&self) {
        let Some(rec) = wa_core::obs::active() else {
            return;
        };
        for (i, l) in self.levels.iter().enumerate() {
            let c = l.counters;
            rec.counter(
                &format!("memsim L{}", i + 1),
                &[
                    ("fills", c.fills),
                    ("writebacks", c.victims_m + c.flush_victims_m),
                ],
            );
        }
        rec.counter(
            "memsim DRAM",
            &[
                ("read_lines", self.dram_reads_lines),
                ("write_lines", self.dram_writes_lines),
            ],
        );
        rec.counter(
            "memsim memo",
            &[("hits", self.memo_hits), ("misses", self.memo_misses)],
        );
    }

    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    pub fn line_words(&self) -> usize {
        1 << self.line_shift
    }

    /// Counters of level `i` (0 = L1 ... last = LLC).
    pub fn counters(&self, i: usize) -> LevelCounters {
        self.levels[i].counters
    }

    /// Counters of the last (largest) level — the one the paper plots.
    pub fn llc(&self) -> LevelCounters {
        self.levels.last().unwrap().counters
    }

    /// Record a read of word address `addr`.
    #[inline]
    pub fn read(&mut self, addr: usize) {
        self.access(addr as u64, false);
    }

    /// Record a write of word address `addr`.
    #[inline]
    pub fn write(&mut self, addr: usize) {
        self.access(addr as u64, true);
    }

    /// Record a sequential scan of `[addr, addr + words)`.
    ///
    /// Line-granular: the span is decomposed into its line intervals and
    /// each line takes one full hierarchy walk; the remaining words of the
    /// interval are L1 repeat-hits and are counted in O(1) per line.
    /// Counters are byte-identical to the per-word loop
    /// `for a in addr..addr+words { self.read(a) }` (property-tested in
    /// `tests/range_equiv.rs`).
    pub fn read_range(&mut self, addr: usize, words: usize) {
        self.range_access(addr, words, false);
    }

    /// Record sequential writes over `[addr, addr + words)`. Line-granular
    /// like [`MemSim::read_range`]; only lines actually overlapped by the
    /// span are touched (and dirtied) — partial first/last lines do not
    /// spill onto their neighbors.
    pub fn write_range(&mut self, addr: usize, words: usize) {
        self.range_access(addr, words, true);
    }

    /// Replay a batch of access runs (the bulk API kernels drive).
    pub fn run(&mut self, runs: &[AccessRun]) {
        for r in runs {
            self.range_access(r.addr, r.words, r.is_write);
        }
    }

    fn range_access(&mut self, addr: usize, words: usize, is_write: bool) {
        if !self.fast_path {
            for a in addr..addr + words {
                self.access(a as u64, is_write);
            }
            return;
        }
        let sh = self.line_shift;
        let end = addr + words;
        let mut a = addr;
        while a < end {
            let line_end = ((a >> sh) + 1) << sh;
            let in_line = line_end.min(end) - a;
            // First word of the line interval: full walk (or memo hit).
            self.access(a as u64, is_write);
            if in_line > 1 {
                // The remaining words of the interval are consecutive
                // same-line accesses: L1 repeat-hits, counted in bulk.
                let (_, slot) = self.memo[0].expect("access() always sets the memo");
                self.clock += (in_line - 1) as u64;
                self.levels[0].fast_hits(slot, (in_line - 1) as u64, is_write);
                self.memo_hits += (in_line - 1) as u64;
                if self.probe_reuse {
                    if let Some(h) = self.probe.as_mut().and_then(|p| p.reuse_mut()) {
                        h.record_repeats((in_line - 1) as u64);
                    }
                }
            }
            a = line_end;
        }
    }

    /// Disable the line memo and the line-granular range decomposition,
    /// forcing the reference per-word walk. Used by the equivalence
    /// property tests; simulation results must not depend on this switch.
    pub fn disable_fast_path(&mut self) {
        self.fast_path = false;
        self.memo = [None, None];
    }

    fn access(&mut self, addr: u64, is_write: bool) {
        self.clock += 1;
        if self.clock >= self.cancel_check_at {
            self.cancel_checkpoint();
        }
        let line = addr >> self.line_shift;

        if self.fast_path {
            // memo[0]: the line of the immediately preceding access is
            // resident and MRU in L1 — a repeat touch only bumps the hit
            // counter (and dirtiness); replacement state cannot change.
            if let Some((memo_line, slot)) = self.memo[0] {
                if memo_line == line {
                    self.levels[0].fast_hits(slot, 1, is_write);
                    self.memo_hits += 1;
                    if self.probe_reuse {
                        if let Some(h) = self.probe.as_mut().and_then(|p| p.reuse_mut()) {
                            h.record_repeats(1);
                        }
                    }
                    return;
                }
            }
            // memo[1]: the previous distinct line. If its slot still
            // holds it (walks since may have evicted it), this is an L1
            // hit that skips only the index lookup and the level walk —
            // the recency update is the real one, since the line is not
            // MRU. The reuse histogram must see it as a full touch (it
            // is not a distance-0 repeat; skipping would leave the
            // line's recency-stack tick stale and corrupt later distances).
            if let Some((memo_line, slot)) = self.memo[1] {
                if memo_line == line && self.levels[0].slot_holds(slot, line) {
                    self.levels[0].rehit(slot, self.clock, is_write);
                    self.memo_hits += 1;
                    if self.probe_reuse {
                        if let Some(h) = self.probe.as_mut().and_then(|p| p.reuse_mut()) {
                            h.touch(line);
                        }
                    }
                    self.memo.swap(0, 1);
                    return;
                }
            }
        }
        self.memo_misses += 1;
        if self.probe_reuse {
            if let Some(h) = self.probe.as_mut().and_then(|p| p.reuse_mut()) {
                h.touch(line);
            }
        }

        let n = self.levels.len();
        // Walk down until a hit; dirtiness is tracked at L1 only.
        let mut hit = n; // n = missed everywhere (DRAM)
        let mut l1_slot = usize::MAX;
        for i in 0..n {
            match self.levels[i].touch(line, self.clock, is_write && i == 0) {
                Touch::Hit(slot) => {
                    hit = i;
                    if i == 0 {
                        l1_slot = slot;
                    }
                    break;
                }
                Touch::Miss => {}
            }
        }
        if hit == n {
            self.dram_reads_lines += 1;
        }

        // Fill the line into every level above the hit, slowest first so
        // inclusion holds when victim handling back-invalidates.
        for i in (0..hit.min(n)).rev() {
            let dirty_here = is_write && i == 0;
            let (slot, victim) = self.levels[i].insert(line, self.clock, dirty_here);
            if i == 0 {
                l1_slot = slot;
            }
            if let Some(v) = victim {
                self.handle_victim(i, v);
            }
        }
        // The accessed line now sits in L1 at `l1_slot` as the MRU entry;
        // the previous front entry is carried (revalidated on use — this
        // walk's evictions may have displaced it).
        self.memo[1] = self.memo[0];
        self.memo[0] = Some((line, l1_slot));
    }

    /// A victim was displaced from level `i`: back-invalidate faster
    /// copies (inclusion), merge dirtiness, write back to `i+1` or DRAM.
    fn handle_victim(&mut self, i: usize, v: Victim) {
        let mut dirty = v.dirty;
        for j in 0..i {
            if let Some(upper_dirty) = self.levels[j].invalidate(v.line) {
                dirty |= upper_dirty;
            }
        }
        self.levels[i].count_victim(dirty);
        if dirty {
            if i + 1 < self.levels.len() {
                // Present below by inclusion.
                let present = self.levels[i + 1].mark_dirty(v.line);
                debug_assert!(present, "inclusion violated: victim absent below");
            } else {
                self.dram_writes_lines += 1;
            }
        }
    }

    /// Drain all levels, writing dirty lines to DRAM. Returns the number of
    /// lines flushed to DRAM. Flush-caused dirty evictions are recorded in
    /// every drained level's `flush_victims_m` (they cross that level's
    /// boundary on the way down), *not* in `victims_m`, so the during-run
    /// counters remain comparable to the paper's (cold-start, no-flush)
    /// runs.
    pub fn flush(&mut self) -> u64 {
        // Attribute the drain's write-backs to their own phase, not to
        // whatever kernel phase happened to be current.
        self.phase("(flush)");
        let n = self.levels.len();
        let mut flushed = 0;
        // Residency is about to change wholesale; the line memo would
        // dangle.
        self.memo = [None, None];
        // Top-down: push dirtiness toward the LLC.
        for i in 0..n {
            let drained = self.levels[i].drain();
            for (line, dirty) in drained {
                if dirty {
                    self.levels[i].counters.flush_victims_m += 1;
                    if i + 1 < n {
                        self.levels[i + 1].mark_dirty(line);
                    } else {
                        self.dram_writes_lines += 1;
                        flushed += 1;
                    }
                }
            }
        }
        flushed
    }

    /// Write the dirty lines of `[addr, addr + words)` down to the backing
    /// store without evicting them — the clwb/persist primitive. Each
    /// dirty line is charged as a `flush_victims_m` crossing at every
    /// level it passes on the way down plus one `dram_writes_lines`, the
    /// same attribution `flush` uses; clean or absent lines cost nothing,
    /// and residency, recency, and the line memo all survive (a later
    /// write re-dirties the cached copy). Returns lines written to the
    /// backing store.
    ///
    /// This is what a distributed rank's "write block to NVM" maps to:
    /// the block stays hot in cache but its bytes now live in slow memory.
    pub fn writeback_range(&mut self, addr: usize, words: usize) -> u64 {
        if words == 0 {
            return 0;
        }
        let sh = self.line_shift;
        let first = (addr >> sh) as u64;
        let last = ((addr + words - 1) >> sh) as u64;
        let n = self.levels.len();
        let mut flushed = 0;
        for line in first..=last {
            // Carry dirtiness downward: a line dirty in a fast level has
            // (by inclusion) a stale copy in every slower level, so the
            // write-back crosses each of those boundaries too.
            let mut dirty = false;
            for i in 0..n {
                if let Some(was_dirty) = self.levels[i].clean(line) {
                    dirty |= was_dirty;
                }
                if dirty {
                    self.levels[i].counters.flush_victims_m += 1;
                }
            }
            if dirty {
                self.dram_writes_lines += 1;
                flushed += 1;
            }
        }
        flushed
    }

    /// Total resident lines at level `i` (diagnostics).
    pub fn resident_lines(&self, i: usize) -> usize {
        self.levels[i].resident_lines()
    }

    /// Is the line containing word `addr` resident at level `i`
    /// (diagnostics)?
    pub fn contains(&self, i: usize, addr: usize) -> bool {
        self.levels[i].contains((addr >> self.line_shift) as u64)
    }

    /// The configuration of level `i`.
    pub fn config(&self, i: usize) -> CacheConfig {
        *self.levels[i].cfg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    fn cfg(words: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            capacity_words: words,
            line_words: 8,
            ways,
            policy: Policy::Lru,
        }
    }

    #[test]
    fn read_miss_fills_all_levels() {
        let mut m = MemSim::new(&[cfg(64, 0), cfg(256, 0)]);
        m.read(0);
        assert_eq!(m.counters(0).misses, 1);
        assert_eq!(m.counters(1).misses, 1);
        assert_eq!(m.counters(0).fills, 1);
        assert_eq!(m.counters(1).fills, 1);
        assert_eq!(m.dram_reads_lines, 1);
        // Second read of the same line hits L1; no LLC traffic.
        m.read(3);
        assert_eq!(m.counters(0).hits, 1);
        assert_eq!(m.counters(1).hits, 0);
    }

    #[test]
    fn write_dirties_topmost_only_and_flush_reaches_dram() {
        let mut m = MemSim::new(&[cfg(64, 0), cfg(256, 0)]);
        m.write(5);
        assert_eq!(m.dram_writes_lines, 0);
        let flushed = m.flush();
        assert_eq!(flushed, 1);
        assert_eq!(m.dram_writes_lines, 1);
        assert_eq!(m.llc().flush_victims_m, 1);
        assert_eq!(m.llc().victims_m, 0, "flush must not pollute victims_m");
    }

    #[test]
    fn dirty_line_written_back_on_capacity_eviction() {
        // Single-level cache of 2 lines, LRU.
        let mut m = MemSim::two_level(cfg(16, 0));
        m.write(0); // line 0 dirty
        m.read(8); // line 1
        m.read(16); // line 2 -> evicts line 0 (LRU), dirty
        assert_eq!(m.llc().victims_m, 1);
        assert_eq!(m.dram_writes_lines, 1);
        m.read(24); // line 3 -> evicts line 1, clean
        assert_eq!(m.llc().victims_e, 1);
        assert_eq!(m.dram_writes_lines, 1);
    }

    #[test]
    fn writeback_range_persists_dirty_lines_without_evicting() {
        let mut m = MemSim::new(&[cfg(64, 0), cfg(256, 0)]);
        m.write_range(0, 16); // lines 0 and 1 dirty in L1
        assert_eq!(m.writeback_range(0, 16), 2);
        assert_eq!(m.dram_writes_lines, 2);
        // Attribution matches flush: one crossing per level per line.
        assert_eq!(m.counters(0).flush_victims_m, 2);
        assert_eq!(m.counters(1).flush_victims_m, 2);
        // Still resident and clean: re-reading is a pure hit, and a full
        // flush now writes nothing.
        assert!(m.contains(0, 0) && m.contains(0, 8));
        m.read(0);
        assert_eq!(m.counters(0).fills, 2, "writeback must not evict");
        assert_eq!(m.flush(), 0);
        assert_eq!(m.dram_writes_lines, 2);
    }

    #[test]
    fn writeback_range_ignores_clean_and_absent_lines() {
        let mut m = MemSim::new(&[cfg(64, 0), cfg(256, 0)]);
        m.read_range(0, 8); // line 0 resident, clean
        assert_eq!(m.writeback_range(0, 32), 0); // lines 1-3 absent
        assert_eq!(m.dram_writes_lines, 0);
        assert_eq!(m.counters(0).flush_victims_m, 0);
    }

    #[test]
    fn rewrite_after_writeback_is_charged_again() {
        let mut m = MemSim::new(&[cfg(64, 0), cfg(256, 0)]);
        m.write_range(0, 8);
        assert_eq!(m.writeback_range(0, 8), 1);
        assert_eq!(m.writeback_range(0, 8), 0, "already clean");
        // The memo fast path must re-dirty the cleaned resident line.
        m.write_range(0, 8);
        assert_eq!(m.writeback_range(0, 8), 1);
        assert_eq!(m.dram_writes_lines, 2);
    }

    #[test]
    fn writeback_of_line_dirty_only_in_l1_crosses_both_boundaries() {
        let mut m = MemSim::new(&[cfg(64, 0), cfg(256, 0)]);
        m.write(3); // dirty in L1, clean (by inclusion) in L2
        assert_eq!(m.writeback_range(0, 8), 1);
        assert_eq!(m.counters(0).flush_victims_m, 1);
        assert_eq!(m.counters(1).flush_victims_m, 1);
        assert_eq!(m.dram_writes_lines, 1);
    }

    #[test]
    fn llc_eviction_back_invalidates_and_merges_dirtiness() {
        // L1: 1 line. L2: 2 lines. Write line 0 (dirty in L1, clean in L2).
        let mut m = MemSim::new(&[cfg(8, 0), cfg(16, 0)]);
        m.write(0); // line 0: dirty in L1 only
        m.read(8); // line 1: evicts line 0 from L1 -> L2 copy goes dirty
        m.read(16); // line 2: evicts line 0 from L2 (LRU) -> DRAM write
        assert_eq!(m.dram_writes_lines, 1);
        assert_eq!(m.llc().victims_m, 1);
    }

    #[test]
    fn llc_eviction_with_dirtiness_still_in_l1_counts_modified() {
        // L1 hits do not refresh the LLC's recency, so the LLC can evict a
        // line that is still dirty in L1: inclusion back-invalidates the L1
        // copy and the victim must be classified M.
        let mut m = MemSim::new(&[cfg(16, 0), cfg(24, 0)]); // 2-line L1, 3-line L2
        m.write(0); // line 0 dirty in L1, clean in L2
        m.read(8); // line 1 in both
        m.read(0); // L1 hit keeps line 0 hot in L1 *only*
        m.read(16); // line 2: L1 evicts line 1 (clean); L2 now full
        m.read(24); // line 3: L2 evicts its LRU = line 0, still dirty in L1
        assert_eq!(m.dram_writes_lines, 1);
        assert_eq!(m.llc().victims_m, 1);
        // And the L1 copy must be gone (back-invalidated).
        m.read(0); // must miss everywhere now
        assert_eq!(m.dram_reads_lines, 5);
    }

    #[test]
    fn streaming_reads_count_one_fill_per_line() {
        let mut m = MemSim::two_level(cfg(64, 0));
        m.read_range(0, 64); // 8 lines
        assert_eq!(m.llc().fills, 8);
        assert_eq!(m.llc().hits, 56);
        assert_eq!(m.dram_reads_lines, 8);
    }

    #[test]
    fn working_set_within_capacity_never_evicts() {
        let mut m = MemSim::two_level(cfg(128, 0));
        for _ in 0..10 {
            m.read_range(0, 128);
        }
        assert_eq!(m.llc().victims(), 0);
        assert_eq!(m.llc().fills, 16);
    }

    #[test]
    fn write_only_stream_produces_equal_writebacks_after_flush() {
        let mut m = MemSim::two_level(cfg(64, 0));
        m.write_range(0, 512); // 64 lines through an 8-line cache
        let during = m.llc().victims_m;
        m.flush();
        assert_eq!(during + m.llc().flush_victims_m, 64);
        assert_eq!(m.dram_writes_lines, 64);
    }

    #[test]
    fn write_range_straddling_a_clean_resident_line_dirties_only_touched_lines() {
        // Regression: a span covering the tail of line 0, all of line 1,
        // and the head of line 2 — with all three lines already resident
        // *clean* — must dirty exactly those three lines and nothing else,
        // and partial coverage must not skip the partially-touched lines.
        let mut m = MemSim::two_level(cfg(64, 0));
        m.read_range(0, 32); // lines 0..3 resident clean
        assert_eq!(m.llc().fills, 4);
        m.write_range(5, 14); // words 5..19: tail of L0, L1, head of L2
        assert_eq!(m.llc().fills, 4, "no new fills: all lines were resident");
        assert_eq!(m.llc().hits, 28 + 14);
        m.flush();
        assert_eq!(
            m.llc().flush_victims_m,
            3,
            "exactly lines 0,1,2 dirty — not line 3, not rounded-out neighbors"
        );
        assert_eq!(m.dram_writes_lines, 3);
    }

    #[test]
    fn range_counters_match_word_loop_exactly() {
        // Spot check of the property the proptest suite covers broadly:
        // read_range/write_range must be counter-identical to the word
        // loop, including partial first/last lines and the DRAM tallies.
        let spans = [(3usize, 18usize), (21, 1), (8, 16), (0, 7), (30, 11)];
        let mut fast = MemSim::two_level(cfg(32, 0));
        let mut slow = MemSim::two_level(cfg(32, 0));
        slow.disable_fast_path();
        for (i, &(addr, words)) in spans.iter().enumerate() {
            let w = i % 2 == 0;
            if w {
                fast.write_range(addr, words);
            } else {
                fast.read_range(addr, words);
            }
            for a in addr..addr + words {
                if w {
                    slow.write(a);
                } else {
                    slow.read(a);
                }
            }
        }
        assert_eq!(fast.llc(), slow.llc());
        assert_eq!(fast.dram_reads_lines, slow.dram_reads_lines);
        assert_eq!(fast.dram_writes_lines, slow.dram_writes_lines);
    }

    #[test]
    fn bulk_run_equals_sequential_ranges() {
        let runs = [
            AccessRun::read(0, 24),
            AccessRun::write(8, 8),
            AccessRun::read(40, 3),
            AccessRun::write(0, 0),
        ];
        let mut a = MemSim::two_level(cfg(32, 0));
        a.run(&runs);
        let mut b = MemSim::two_level(cfg(32, 0));
        for r in &runs {
            if r.is_write {
                b.write_range(r.addr, r.words);
            } else {
                b.read_range(r.addr, r.words);
            }
        }
        assert_eq!(a.llc(), b.llc());
    }

    #[test]
    fn empty_run_batches_and_zero_length_ranges_touch_nothing() {
        let mut m = MemSim::two_level(cfg(64, 0));
        m.run(&[]);
        m.read_range(40, 0);
        m.write_range(0, 0);
        m.run(&[AccessRun::read(0, 0), AccessRun::write(8, 0)]);
        assert_eq!(m.llc().hits + m.llc().misses, 0, "no accesses recorded");
        assert_eq!(m.dram_reads_lines, 0);
        assert_eq!(m.dram_writes_lines, 0);
        assert_eq!(m.flush(), 0, "nothing resident, nothing dirty");
        // The reference (fast-path-disabled) walk agrees.
        let mut r = MemSim::two_level(cfg(64, 0));
        r.disable_fast_path();
        r.run(&[]);
        r.write_range(5, 0);
        assert_eq!(r.llc(), m.llc());
    }

    #[test]
    fn memo_fast_path_survives_interleaved_lines_and_flush() {
        // Alternate between two lines (memo invalidated every access),
        // then hammer one line (memo active): counters must match the
        // reference walk either way.
        let mut fast = MemSim::new(&[cfg(16, 2), cfg(64, 0)]);
        let mut refr = MemSim::new(&[cfg(16, 2), cfg(64, 0)]);
        refr.disable_fast_path();
        for m in [&mut fast, &mut refr] {
            for _ in 0..4 {
                m.read(0);
                m.write(9);
            }
            for _ in 0..16 {
                m.write(2);
            }
            m.flush();
            m.read(2); // post-flush: must miss (memo cleared)
        }
        for i in 0..2 {
            assert_eq!(fast.counters(i), refr.counters(i), "level {i}");
        }
        assert_eq!(fast.dram_reads_lines, refr.dram_reads_lines);
        assert_eq!(fast.dram_writes_lines, refr.dram_writes_lines);
    }

    #[test]
    fn memo_counters_pin_a_known_access_pattern() {
        // read_range(0, 16) over 8-word lines: 2 lines, so 2 full walks
        // (one per line boundary) and 14 bulk repeat-hits.
        let mut m = MemSim::single_level_lru(64);
        m.read_range(0, 16);
        assert_eq!(m.memo_misses, 2);
        assert_eq!(m.memo_hits, 14);
        // Re-reading the first word: the last access ended on line 1, but
        // line 0 is the second memo entry — a memo[1] hit, no walk.
        m.read(0);
        assert_eq!(m.memo_misses, 2);
        assert_eq!(m.memo_hits, 15);
        // Hammering the same word memo[0]-hits every time.
        for _ in 0..5 {
            m.read(0);
        }
        assert_eq!(m.memo_hits, 20);
        assert_eq!(m.memo_misses, 2);
        // Flush invalidates both memo entries: the next access walks.
        m.flush();
        m.read(0);
        assert_eq!(m.memo_misses, 3);
        // Every access is either a memo hit or a walk.
        assert_eq!(m.memo_hits + m.memo_misses, 16 + 1 + 5 + 1);
    }

    #[test]
    fn two_entry_memo_catches_ping_pong_and_matches_reference() {
        // Strict A/B alternation never hits a 1-entry memo; the 2-entry
        // memo serves every access after the first two without a walk,
        // and the counters must still match the reference walk exactly
        // (the memo[1] path does a real recency update).
        let mut fast = MemSim::single_level_lru(64);
        let mut refr = MemSim::single_level_lru(64);
        refr.disable_fast_path();
        for m in [&mut fast, &mut refr] {
            for _ in 0..8 {
                m.read(0); // line 0
                m.write(8); // line 1
            }
            m.flush();
        }
        assert_eq!(fast.llc(), refr.llc());
        assert_eq!(fast.dram_writes_lines, refr.dram_writes_lines);
        assert_eq!(fast.memo_misses, 2, "only the two cold accesses walk");
        assert_eq!(fast.memo_hits, 14);
    }

    #[test]
    fn stale_memo_entry_is_revalidated_after_eviction() {
        // 1-line cache: every distinct-line access evicts the previous
        // line, so the carried memo[1] entry always points at a reused
        // slot. The tag revalidation must reject it and take the walk —
        // counters must match the reference.
        let mut fast = MemSim::single_level_lru(8);
        let mut refr = MemSim::single_level_lru(8);
        refr.disable_fast_path();
        for m in [&mut fast, &mut refr] {
            for _ in 0..4 {
                m.write(0); // line 0 evicts line 1
                m.read(8); // line 1 evicts line 0
            }
            m.flush();
        }
        assert_eq!(fast.llc(), refr.llc());
        assert_eq!(fast.dram_writes_lines, refr.dram_writes_lines);
        assert_eq!(fast.memo_hits, 0, "every memo[1] candidate was evicted");
    }

    #[test]
    fn attached_probe_attributes_phases_and_reuse_through_the_sim() {
        let mut m = MemSim::single_level_lru(64);
        m.attach_probe(true);
        m.read_range(0, 16); // (init): 16 accesses, 2 fills
        m.phase("writes");
        m.write_range(0, 8); // line 0 still resident: no fill, gets dirty
        m.flush(); // "(flush)" phase owns the write-back
        let rows = m.probe().unwrap().finalized(m.snapshot());
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(get("(init)").accesses, 16);
        assert_eq!(get("(init)").fills, vec![2]);
        assert_eq!(get("(init)").dram_reads, 2);
        assert_eq!(get("writes").accesses, 8);
        assert_eq!(get("writes").fills, vec![0]);
        assert_eq!(get("writes").dram_writes, 0, "dirty line still cached");
        // The drain's write-back is attributed to the "(flush)" phase.
        assert_eq!(get("(flush)").accesses, 0);
        assert_eq!(get("(flush)").dram_writes, 1);
        assert_eq!(get("(flush)").writebacks, vec![1]);
        assert_eq!(m.dram_writes_lines, 1);
        // Reuse histogram: 2 cold line touches, 14 + 7 bulk repeats, and
        // one distance-1 reuse at the line-0 boundary of the write span
        // (a memo[1] hit, which must still advance the recency stack).
        let h = m.probe().unwrap().reuse().unwrap();
        assert_eq!(h.cold, 2);
        assert_eq!(h.repeats, 21);
        assert_eq!(h.buckets[1], 1, "line 0 reused at distance 1");
        assert_eq!(h.total(), 24, "mass equals the 24 line touches");
    }

    #[test]
    fn phase_marks_without_probe_are_no_ops() {
        let mut m = MemSim::single_level_lru(64);
        m.phase("ignored");
        m.read(0);
        assert!(m.probe().is_none());
        assert_eq!(m.llc().misses, 1);
    }

    #[test]
    fn set_associative_conflict_behavior() {
        // 4 lines, direct-mapped: lines 0 and 4 conflict.
        let mut m = MemSim::two_level(CacheConfig {
            capacity_words: 32,
            line_words: 8,
            ways: 1,
            policy: Policy::Lru,
        });
        m.read(0);
        m.read(32); // line 4, same set as line 0
        m.read(0); // miss again (conflict), despite capacity
        assert_eq!(m.llc().misses, 3);
    }

    #[test]
    fn clock_policy_runs_end_to_end() {
        let mut m = MemSim::two_level(CacheConfig {
            capacity_words: 64,
            line_words: 8,
            ways: 4,
            policy: Policy::Clock3,
        });
        for a in (0..2048).step_by(8) {
            m.read(a);
        }
        assert_eq!(m.llc().fills, 256);
        assert_eq!(m.llc().victims(), 256 - 8);
    }
}
