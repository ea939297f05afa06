//! One level of a set-associative (or fully-associative) write-back cache.
//!
//! Lines carry a Modified/Exclusive state like the MESIF experiments of the
//! paper's Section 6 (the S/F states never arise single-threaded). Counters
//! mirror the Xeon uncore events used in Figure 2/5:
//!
//! * [`LevelCounters::fills`] ≙ `LLC_S_FILLS.E` — lines brought in from the
//!   next-slower level;
//! * [`LevelCounters::victims_m`] ≙ `LLC_VICTIMS.M` — modified lines
//!   evicted (obligatory write-backs to the slower level);
//! * [`LevelCounters::victims_e`] ≙ `LLC_VICTIMS.E` — clean (exclusive)
//!   lines evicted and forgotten.

use crate::policy::Policy;

/// Invalid-tag sentinel.
const INVALID: u64 = u64::MAX;

/// Geometry and policy of one cache level.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Capacity in *words* (we simulate at word = element granularity;
    /// one f64 per word).
    pub capacity_words: usize,
    /// Line size in words (8 words ≙ a 64-byte line of f64).
    pub line_words: usize,
    /// Associativity; `0` means fully associative (requires [`Policy::Lru`]).
    pub ways: usize,
    /// Replacement policy.
    pub policy: Policy,
}

impl CacheConfig {
    /// Number of lines this level holds.
    pub fn capacity_lines(&self) -> usize {
        self.capacity_words / self.line_words
    }
}

/// Event counters for one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelCounters {
    /// Accesses that hit in this level.
    pub hits: u64,
    /// Accesses that missed in this level.
    pub misses: u64,
    /// Lines filled into this level from the next-slower level
    /// (≙ `LLC_S_FILLS.E` for the last level).
    pub fills: u64,
    /// Modified lines evicted — write-backs to the slower level
    /// (≙ `LLC_VICTIMS.M`).
    pub victims_m: u64,
    /// Clean lines evicted (≙ `LLC_VICTIMS.E`).
    pub victims_e: u64,
    /// Of `victims_m`, those forced out by `flush()` at the end rather than
    /// by capacity pressure during the run.
    pub flush_victims_m: u64,
}

impl LevelCounters {
    /// Total evictions.
    pub fn victims(&self) -> u64 {
        self.victims_m + self.victims_e
    }
}

/// The result of touching a level. A hit carries the slot index so the
/// hierarchy can memoize it for the line-granular fast path.
pub(crate) enum Touch {
    Hit(usize),
    Miss,
}

/// Victim metadata returned by an insertion that displaced a line.
pub(crate) struct Victim {
    pub line: u64,
    pub dirty: bool,
}

const NIL: u32 = u32::MAX;

/// O(1) fully-associative LRU bookkeeping: a dense line→slot table, an
/// intrusive doubly-linked recency list over slots (head = LRU,
/// tail = MRU) and a free-slot stack.
///
/// `slot_of` is indexed by line number directly, so a lookup is one load
/// and an insert or remove one store — no hashing, no chain. This needs
/// dense addresses, which every feeder in the workspace uses (`Mem` data
/// arrays, krylov's line-aligned nominal layout, the `parallel` machine's
/// bump allocator), the same requirement as [`crate::recency`]'s table: a
/// sparse address would size the table by its largest line rather than
/// by the footprint. The table grows by doubling on insert; line numbers
/// must fit in `u32`.
struct FaLru {
    /// Line → slot holding it, or `NIL` (also for lines past the end).
    slot_of: Vec<u32>,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    free: Vec<usize>,
}

impl FaLru {
    fn new(lines: usize) -> Self {
        FaLru {
            slot_of: Vec::new(),
            prev: vec![NIL; lines],
            next: vec![NIL; lines],
            head: NIL,
            tail: NIL,
            free: (0..lines).rev().collect(),
        }
    }

    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        match self.slot_of.get(line as usize) {
            Some(&s) if s != NIL => Some(s as usize),
            _ => None,
        }
    }

    fn index(&mut self, line: u64, slot: usize) {
        let i = line as usize;
        if i >= self.slot_of.len() {
            assert!(line < NIL as u64, "line {line} beyond the dense table");
            let len = (i + 1).max(2 * self.slot_of.len());
            self.slot_of.resize(len, NIL);
        }
        self.slot_of[i] = slot as u32;
    }

    fn unindex(&mut self, line: u64) {
        self.slot_of[line as usize] = NIL;
    }

    fn unlink(&mut self, s: usize) {
        let (p, n) = (self.prev[s], self.next[s]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[s] = NIL;
        self.next[s] = NIL;
    }

    fn push_mru(&mut self, s: usize) {
        self.prev[s] = self.tail;
        self.next[s] = NIL;
        if self.tail != NIL {
            self.next[self.tail as usize] = s as u32;
        } else {
            self.head = s as u32;
        }
        self.tail = s as u32;
    }

    /// Reset the recency list and free stack. The caller has already
    /// unindexed every resident line, so this costs O(capacity), not
    /// O(table).
    fn clear(&mut self) {
        let lines = self.prev.len();
        self.prev.iter_mut().for_each(|x| *x = NIL);
        self.next.iter_mut().for_each(|x| *x = NIL);
        self.head = NIL;
        self.tail = NIL;
        self.free = (0..lines).rev().collect();
    }
}

/// One cache level.
pub(crate) struct Level {
    cfg: CacheConfig,
    num_sets: usize,
    ways: usize,
    tags: Vec<u64>,
    dirty: Vec<bool>,
    meta: Vec<u64>,
    hands: Vec<u32>,
    /// Fully-associative O(1) LRU machinery (only when cfg.ways == 0).
    fa: Option<FaLru>,
    pub counters: LevelCounters,
}

impl Level {
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_words.is_power_of_two(), "line size must be 2^k");
        assert!(
            cfg.capacity_words.is_multiple_of(cfg.line_words),
            "capacity must be a whole number of lines"
        );
        let lines = cfg.capacity_lines();
        let (num_sets, ways, fa) = if cfg.ways == 0 {
            assert!(
                cfg.policy == Policy::Lru,
                "fully-associative mode implements LRU only"
            );
            (1, lines, Some(FaLru::new(lines)))
        } else {
            assert!(
                lines.is_multiple_of(cfg.ways),
                "lines ({lines}) must divide evenly into {}-way sets",
                cfg.ways
            );
            (lines / cfg.ways, cfg.ways, None)
        };
        Level {
            cfg,
            num_sets,
            ways,
            tags: vec![INVALID; lines],
            dirty: vec![false; lines],
            meta: vec![0; lines],
            hands: vec![0; num_sets],
            fa,
            counters: LevelCounters::default(),
        }
    }

    pub fn cfg(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line % self.num_sets as u64) as usize
    }

    #[inline]
    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// Find the slot holding `line`, if present.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        if let Some(fa) = &self.fa {
            return fa.find(line);
        }
        let set = self.set_of(line);
        self.slot_range(set).find(|&s| self.tags[s] == line)
    }

    /// Probe for `line`; on hit update replacement metadata (and dirtiness
    /// if `make_dirty`).
    pub fn touch(&mut self, line: u64, now: u64, make_dirty: bool) -> Touch {
        match self.find(line) {
            Some(slot) => {
                self.counters.hits += 1;
                if let Some(fa) = &mut self.fa {
                    fa.unlink(slot);
                    fa.push_mru(slot);
                } else {
                    self.cfg.policy.on_hit(&mut self.meta[slot], now);
                }
                if make_dirty {
                    self.dirty[slot] = true;
                }
                Touch::Hit(slot)
            }
            None => {
                self.counters.misses += 1;
                Touch::Miss
            }
        }
    }

    /// Count `count` repeat hits on `slot` in O(1). Valid only when the
    /// slot's line was the *immediately preceding* access at this level:
    /// with no intervening access the line is already MRU (fully
    /// associative LRU needs no list surgery) and the per-way policy
    /// effect of the skipped touches collapses to one
    /// [`Policy::on_repeat_hits`] call — so the replacement state a
    /// per-word re-touch loop would produce is behaviorally identical.
    #[inline]
    pub fn fast_hits(&mut self, slot: usize, count: u64, make_dirty: bool) {
        self.counters.hits += count;
        if make_dirty {
            self.dirty[slot] = true;
        }
        if self.fa.is_none() {
            self.cfg.policy.on_repeat_hits(&mut self.meta[slot], count);
        }
    }

    /// Does `slot` currently hold `line`? The hierarchy's carried memo
    /// entries may have been invalidated, or their slot reused, by walks
    /// that happened since they were recorded; this is the O(1)
    /// revalidation check (tags are private to this module).
    #[inline]
    pub fn slot_holds(&self, slot: usize, line: u64) -> bool {
        self.tags[slot] == line
    }

    /// Count one hit on `slot` whose line was accessed *recently but not
    /// immediately before*: unlike [`Level::fast_hits`] the line need not
    /// be MRU, so replacement metadata is refreshed exactly as
    /// [`Level::touch`] would — only the index lookup is skipped. The
    /// caller must have revalidated the slot via [`Level::slot_holds`].
    #[inline]
    pub fn rehit(&mut self, slot: usize, now: u64, make_dirty: bool) {
        self.counters.hits += 1;
        if let Some(fa) = &mut self.fa {
            fa.unlink(slot);
            fa.push_mru(slot);
        } else {
            self.cfg.policy.on_hit(&mut self.meta[slot], now);
        }
        if make_dirty {
            self.dirty[slot] = true;
        }
    }

    /// Is `line` present?
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Mark an already-present line dirty (used for write-backs arriving
    /// from a faster level). Returns false if absent.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        match self.find(line) {
            Some(slot) => {
                self.dirty[slot] = true;
                true
            }
            None => false,
        }
    }

    /// Clear `line`'s dirty bit if present, returning its previous
    /// dirtiness. Residency and replacement state are untouched — this is
    /// the per-level step of the hierarchy's clwb-style
    /// `MemSim::writeback_range`, which pushes dirty data down without
    /// evicting it.
    pub fn clean(&mut self, line: u64) -> Option<bool> {
        let slot = self.find(line)?;
        let was_dirty = self.dirty[slot];
        self.dirty[slot] = false;
        Some(was_dirty)
    }

    /// Invalidate `line` if present (inclusion maintenance). Returns the
    /// dirtiness of the dropped copy.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let slot = self.find(line)?;
        let was_dirty = self.dirty[slot];
        self.tags[slot] = INVALID;
        self.dirty[slot] = false;
        // Keep FIFO/LRU metadata at 0 for empty slots: insertion will reset.
        self.meta[slot] = 0;
        if let Some(fa) = &mut self.fa {
            fa.unindex(line);
            fa.unlink(slot);
            fa.free.push(slot);
        }
        Some(was_dirty)
    }

    /// Insert `line` (counting a fill), evicting a victim if the set is
    /// full. Returns the slot the line landed in (memoized by the
    /// hierarchy's fast path) plus the victim, if any. The caller (the
    /// hierarchy) classifies the victim as M or E — a line clean here may
    /// still be dirty in a faster level — and must call
    /// [`Level::count_victim`] with the effective dirtiness.
    pub fn insert(&mut self, line: u64, now: u64, dirty: bool) -> (usize, Option<Victim>) {
        debug_assert!(self.find(line).is_none(), "inserting a present line");
        self.counters.fills += 1;

        if let Some(fa) = &mut self.fa {
            // O(1) fully-associative LRU path.
            let (slot, victim) = match fa.free.pop() {
                Some(s) => (s, None),
                None => {
                    let s = fa.head as usize; // LRU slot
                    let v = Victim {
                        line: self.tags[s],
                        dirty: self.dirty[s],
                    };
                    fa.unindex(v.line);
                    fa.unlink(s);
                    (s, Some(v))
                }
            };
            self.tags[slot] = line;
            self.dirty[slot] = dirty;
            fa.index(line, slot);
            fa.push_mru(slot);
            return (slot, victim);
        }

        let set = self.set_of(line);
        let range = self.slot_range(set);
        // Free slot?
        let free = range.clone().find(|&s| self.tags[s] == INVALID);
        let (slot, victim) = match free {
            Some(s) => (s, None),
            None => {
                let base = range.start;
                let hand = &mut self.hands[set];
                let way = {
                    let meta = &mut self.meta[range.clone()];
                    self.cfg.policy.choose_victim(meta, hand)
                };
                let s = base + way;
                let v = Victim {
                    line: self.tags[s],
                    dirty: self.dirty[s],
                };
                (s, Some(v))
            }
        };
        self.tags[slot] = line;
        self.dirty[slot] = dirty;
        self.meta[slot] = self.cfg.policy.on_insert(now);
        (slot, victim)
    }

    /// Record a victim eviction in this level's counters with its
    /// *effective* dirtiness (local dirty bit merged with faster levels').
    pub fn count_victim(&mut self, effective_dirty: bool) {
        if effective_dirty {
            self.counters.victims_m += 1;
        } else {
            self.counters.victims_e += 1;
        }
    }

    /// Drain every resident line; returns `(line, dirty)` pairs. Used by
    /// `MemSim::flush`. Walks the slots, so it costs O(capacity) whatever
    /// the size of the fully-associative line table.
    pub fn drain(&mut self) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        for s in 0..self.tags.len() {
            if self.tags[s] != INVALID {
                out.push((self.tags[s], self.dirty[s]));
                if let Some(fa) = &mut self.fa {
                    fa.unindex(self.tags[s]);
                }
                self.tags[s] = INVALID;
                self.dirty[s] = false;
                self.meta[s] = 0;
            }
        }
        if let Some(fa) = &mut self.fa {
            fa.clear();
        }
        out
    }

    /// Number of currently valid lines (test/diagnostic helper).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, policy: Policy) -> Level {
        Level::new(CacheConfig {
            capacity_words: 32, // 4 lines of 8 words
            line_words: 8,
            ways,
            policy,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut l = tiny(0, Policy::Lru);
        assert!(l.insert(5, 1, false).1.is_none());
        assert!(matches!(l.touch(5, 2, false), Touch::Hit(_)));
        assert!(matches!(l.touch(6, 3, false), Touch::Miss));
    }

    #[test]
    fn lru_eviction_order_fully_associative() {
        let mut l = tiny(0, Policy::Lru);
        for (t, line) in [10u64, 11, 12, 13].iter().enumerate() {
            l.insert(*line, t as u64, false);
        }
        // Touch 10 so 11 becomes LRU.
        l.touch(10, 100, false);
        let v = l.insert(14, 101, false).1.expect("must evict");
        assert_eq!(v.line, 11);
        assert!(!v.dirty);
        l.count_victim(v.dirty);
        assert_eq!(l.counters.victims_e, 1);
    }

    #[test]
    fn dirty_victim_counts_as_m() {
        let mut l = tiny(0, Policy::Lru);
        for line in 0..4u64 {
            l.insert(line, line, false);
        }
        l.touch(0, 10, true); // dirty line 0, also makes it MRU
        let v = l.insert(99, 11, false).1.expect("must evict");
        assert_eq!(v.line, 1);
        assert!(!v.dirty);
        // Evict until line 0 goes: it must be the last and dirty.
        l.insert(98, 12, false).1.unwrap();
        l.insert(97, 13, false).1.unwrap();
        let v0 = l.insert(96, 14, false).1.unwrap();
        assert_eq!(v0.line, 0);
        assert!(v0.dirty);
    }

    #[test]
    fn set_mapping_conflicts() {
        // 4 lines, 1-way (direct mapped) => 4 sets; lines 0 and 4 collide.
        let mut l = tiny(1, Policy::Lru);
        l.insert(0, 1, false);
        let v = l.insert(4, 2, false).1.expect("direct-mapped conflict");
        assert_eq!(v.line, 0);
        // Lines 1 and 2 go to other sets without eviction.
        assert!(l.insert(1, 3, false).1.is_none());
        assert!(l.insert(2, 4, false).1.is_none());
    }

    #[test]
    fn invalidate_reports_dirtiness_and_frees_slot() {
        let mut l = tiny(0, Policy::Lru);
        l.insert(7, 1, true);
        assert_eq!(l.invalidate(7), Some(true));
        assert_eq!(l.invalidate(7), None);
        assert_eq!(l.resident_lines(), 0);
    }

    #[test]
    fn drain_returns_all_lines() {
        let mut l = tiny(2, Policy::Fifo);
        l.insert(1, 1, true);
        l.insert(2, 2, false);
        let mut d = l.drain();
        d.sort();
        assert_eq!(d, vec![(1, true), (2, false)]);
        assert_eq!(l.resident_lines(), 0);
    }

    #[test]
    fn fa_table_grows_for_high_lines_and_drain_unindexes_them() {
        let mut l = tiny(0, Policy::Lru);
        // A high line grows the table past every line indexed so far.
        for line in [0u64, 3, 1 << 20, 5] {
            l.insert(line, line, line == 3);
        }
        assert!(l.contains(1 << 20) && l.contains(0));
        assert!(!l.contains((1 << 20) + 1) && !l.contains(u64::MAX - 1));
        // Evicting the LRU line (0) frees its table entry.
        let v = l.insert(7, 9, false).1.expect("must evict");
        assert_eq!(v.line, 0);
        assert!(!l.contains(0));
        let mut d = l.drain();
        d.sort();
        assert_eq!(d, vec![(3, true), (5, false), (7, false), (1 << 20, false)]);
        for line in [3u64, 5, 7, 1 << 20] {
            assert!(!l.contains(line), "line {line} still indexed after drain");
        }
        // The drained level refills from a clean free list.
        for line in [1 << 20, 3, 8, 9] {
            assert!(l.insert(line, 20, false).1.is_none());
        }
        assert_eq!(l.resident_lines(), 4);
    }

    #[test]
    fn mark_dirty_only_when_present() {
        let mut l = tiny(0, Policy::Lru);
        assert!(!l.mark_dirty(3));
        l.insert(3, 1, false);
        assert!(l.mark_dirty(3));
        let _ = l.insert(4, 2, false);
        // Fill to capacity and evict; line 3 should eventually leave dirty.
        l.insert(5, 3, false);
        l.insert(6, 4, false);
        let v = l.insert(8, 5, false).1.expect("must evict");
        assert_eq!(v.line, 3);
        assert!(v.dirty);
    }
}
