//! Capacity curves: exact per-capacity miss/write-back projections from a
//! single-pass Mattson stack simulation.
//!
//! LRU is a *stack algorithm* (Mattson et al., 1970): the set of lines
//! resident in a fully associative LRU cache of capacity `C` is always the
//! top `C` entries of one global recency stack, independent of `C`. One
//! pass over the access stream therefore determines, for **every**
//! capacity at once, whether each access hits (stack distance `< C`) or
//! fills (`≥ C`). The dirty-aware extension tracked here also pins the
//! write-backs: an eviction is dirty for exactly the capacities in a
//! contiguous interval `[maxd+1, d]`, where `maxd` is the deepest stack
//! distance the line reached since its last write and `d` is the distance
//! at the access that re-fetches it (see `memsim::stack` for the
//! derivation and the per-access emission).
//!
//! [`CapacityCurve`] is the projection substrate: four cumulative
//! histograms over stack distance, each held as a [`CumSteps`] — only
//! the indices where the count rises, as LEB128 (Δindex, Δvalue) pairs.
//! A curve therefore costs a few bytes per *distinct* distance rather
//! than eight per line of footprint. [`CapacityCurve::at`] decodes up to
//! the queried capacity, O(breakpoints); [`CapacityCurve::points`] over
//! an ascending capacity list decodes each histogram once, so a whole
//! ladder costs O(breakpoints + ladder). The producing simulator lives
//! in `memsim::stack`; the struct lives here so
//! [`crate::report::RunReport`] can carry a curve without `wa-core`
//! depending on the simulator crate.

/// Exact counters of one fully associative LRU cache of a given capacity,
/// projected from a [`CapacityCurve`]. All line-denominated fields count
/// cache lines; `hits`/`misses` are word-granular like the simulator's
/// `LevelCounters` (every word access scores one hit or miss).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CurvePoint {
    /// Capacity this point was projected at, in words.
    pub capacity_words: u64,
    /// The same capacity in lines (`capacity_words / line_words`, min 1).
    pub capacity_lines: u64,
    /// Lines fetched from the backing store (cold + capacity misses).
    pub fills: u64,
    /// Dirty lines evicted to the backing store during the run.
    pub writebacks: u64,
    /// Dirty lines still resident at end of trace, charged as an
    /// end-of-run flush (the convention of the flushed `simmed` cells).
    pub flush_writebacks: u64,
    /// Word-granular hits (`word_accesses − misses`).
    pub hits: u64,
    /// Word-granular misses (equal to `fills`: each line touch that
    /// misses triggers exactly one fill).
    pub misses: u64,
}

impl CurvePoint {
    /// Lines read from the backing store (same as `fills`).
    pub fn dram_reads_lines(&self) -> u64 {
        self.fills
    }

    /// Lines written to the backing store, flush included.
    pub fn dram_writes_lines(&self) -> u64 {
        self.writebacks + self.flush_writebacks
    }
}

/// Single-pass projection data for FA-LRU caches of every capacity.
///
/// All histograms are *cumulative* (index `i` holds the count for
/// arguments `≤ i`), clamped at their last entry beyond the end, and
/// packed as [`CumSteps`]: memory is O(distinct distances), a single
/// [`CapacityCurve::at`] is O(breakpoints), and
/// [`CapacityCurve::points`] over an ascending list is one decode of
/// each histogram. Distances and capacities are measured in lines.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CapacityCurve {
    /// Words per cache line.
    pub line_words: u64,
    /// Total word-granular accesses in the trace.
    pub word_accesses: u64,
    /// Total line touches (one per word access; repeats included).
    pub line_touches: u64,
    /// Consecutive same-line touches (stack distance 0 by construction;
    /// they hit at every capacity ≥ 1 line).
    pub repeats: u64,
    /// First-ever touches (compulsory misses at every capacity).
    pub cold: u64,
    /// Distinct lines in the trace.
    pub footprint_lines: u64,
    /// `dist_cum[d]` = non-cold, non-repeat touches with stack distance
    /// `≤ d`. Its last entry is the total of such touches.
    pub dist_cum: CumSteps,
    /// `wb_lo_cum[c]` = dirty-eviction emissions whose capacity interval
    /// starts at `≤ c` (see module docs; intervals are `[maxd+1, d]`).
    pub wb_lo_cum: CumSteps,
    /// `wb_hi_cum[c]` = emissions whose interval ends at `≤ c`.
    pub wb_hi_cum: CumSteps,
    /// `flush_cum[c]` = lines dirty-resident at end of trace for every
    /// capacity `≥` their threshold, cumulative over thresholds `≤ c`.
    pub flush_cum: CumSteps,
}

/// A non-decreasing `u64` sequence over `0..len` — a cumulative
/// histogram — stored as its breakpoints: one LEB128 pair
/// `(index − previous index, value − previous value)` per index where
/// the value rises. Lookups past the end clamp to the last value, and an
/// empty sequence reads 0 everywhere, like a histogram that is zero past
/// its end. Any `u64` value packs; a pair takes at most 20 bytes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CumSteps {
    /// Length of the dense sequence.
    len: u64,
    /// Its final value (the histogram's total mass).
    last: u64,
    /// The breakpoint pairs, in index order.
    bytes: Vec<u8>,
}

fn put_leb128(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

fn get_leb128(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return x;
        }
        shift += 7;
    }
}

impl CumSteps {
    /// Pack an already cumulative sequence. Panics if it decreases.
    pub fn from_cum(values: &[u64]) -> CumSteps {
        Self::pack(values.len(), values.iter().copied())
    }

    /// Pack the running sums of a histogram of counts.
    pub fn from_counts(counts: &[u64]) -> CumSteps {
        let sums = counts.iter().scan(0u64, |acc, &c| {
            *acc += c;
            Some(*acc)
        });
        Self::pack(counts.len(), sums)
    }

    fn pack(len: usize, values: impl Iterator<Item = u64>) -> CumSteps {
        let mut s = CumSteps {
            len: len as u64,
            ..CumSteps::default()
        };
        let mut prev = 0;
        for (i, v) in values.enumerate() {
            assert!(v >= s.last, "CumSteps: sequence decreases at index {i}");
            if v > s.last {
                put_leb128(&mut s.bytes, i as u64 - prev);
                put_leb128(&mut s.bytes, v - s.last);
                prev = i as u64;
                s.last = v;
            }
        }
        s.bytes.shrink_to_fit();
        s
    }

    /// Length of the dense sequence.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The final value (0 when empty).
    pub fn last(&self) -> u64 {
        self.last
    }

    /// The value at index `i`, clamped to the last entry past the end.
    pub fn at(&self, i: u64) -> u64 {
        self.cursor().at(i)
    }

    /// The dense sequence.
    pub fn to_vec(&self) -> Vec<u64> {
        let mut c = self.cursor();
        (0..self.len).map(|i| c.at(i)).collect()
    }

    fn cursor(&self) -> Cursor<'_> {
        Cursor {
            steps: self,
            pos: 0,
            index: 0,
            value: 0,
            queried: 0,
        }
    }
}

/// Forward decoder over a [`CumSteps`]: each call to [`Cursor::at`]
/// decodes only the breakpoints between the previous query and this one,
/// and restarts from the front if queried out of order.
struct Cursor<'a> {
    steps: &'a CumSteps,
    /// Byte offset of the next undecoded pair.
    pos: usize,
    /// Index and value of the last decoded breakpoint.
    index: u64,
    value: u64,
    /// The previous query.
    queried: u64,
}

impl Cursor<'_> {
    fn at(&mut self, i: u64) -> u64 {
        if i < self.queried {
            *self = self.steps.cursor();
        }
        self.queried = i;
        let bytes = &self.steps.bytes;
        while self.pos < bytes.len() {
            let mut pos = self.pos;
            let index = self.index + get_leb128(bytes, &mut pos);
            if index > i {
                break;
            }
            self.value += get_leb128(bytes, &mut pos);
            self.index = index;
            self.pos = pos;
        }
        self.value
    }
}

/// Projects [`CurvePoint`]s from one decode of each histogram, for
/// capacities queried in ascending order.
struct Projector<'a> {
    curve: &'a CapacityCurve,
    dist: Cursor<'a>,
    wb_lo: Cursor<'a>,
    wb_hi: Cursor<'a>,
    flush: Cursor<'a>,
}

impl Projector<'_> {
    fn at(&mut self, capacity_words: u64) -> CurvePoint {
        let curve = self.curve;
        let c = (capacity_words / curve.line_words.max(1)).max(1);
        // A touch at distance d hits iff d < c: subtract the hits
        // (distance ≤ c−1) from the reuse touches, add compulsory misses.
        let reuse_misses = curve.dist_cum.last() - self.dist.at(c - 1);
        let fills = curve.cold + reuse_misses;
        // An emission [lo, hi] produces a write-back at capacity c iff
        // lo ≤ c ≤ hi: count intervals starting at ≤ c, minus those
        // already closed (ending at ≤ c−1).
        let writebacks = self.wb_lo.at(c) - self.wb_hi.at(c.saturating_sub(1));
        let flush_writebacks = self.flush.at(c);
        CurvePoint {
            capacity_words,
            capacity_lines: c,
            fills,
            writebacks,
            flush_writebacks,
            hits: curve.word_accesses - fills,
            misses: fills,
        }
    }
}

impl CapacityCurve {
    fn projector(&self) -> Projector<'_> {
        Projector {
            curve: self,
            dist: self.dist_cum.cursor(),
            wb_lo: self.wb_lo_cum.cursor(),
            wb_hi: self.wb_hi_cum.cursor(),
            flush: self.flush_cum.cursor(),
        }
    }

    /// Project the exact FA-LRU counters for a cache of `capacity_words`.
    /// Capacities below one line are clamped to one line (a cache holds
    /// at least the line being accessed).
    pub fn at(&self, capacity_words: u64) -> CurvePoint {
        self.projector().at(capacity_words)
    }

    /// Project a list of capacities (words), in the order given. An
    /// ascending list decodes each histogram once.
    pub fn points(&self, capacities_words: &[u64]) -> Vec<CurvePoint> {
        let mut p = self.projector();
        capacities_words.iter().map(|&w| p.at(w)).collect()
    }

    /// Default capacity ladder: powers of two in words, from one line up
    /// to the first power of two covering the trace footprint.
    pub fn default_ladder(&self) -> Vec<u64> {
        let lw = self.line_words.max(1);
        let footprint_words = (self.footprint_lines.max(1)) * lw;
        let mut caps = Vec::new();
        let mut c = lw.next_power_of_two();
        loop {
            caps.push(c);
            if c >= footprint_words {
                break;
            }
            c *= 2;
        }
        caps
    }

    /// JSON object (stable field order) carrying the curve sampled at
    /// `capacities_words`: summary scalars plus one point per capacity.
    pub fn to_json(&self, capacities_words: &[u64]) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"line_words\":{},\"word_accesses\":{},\"line_touches\":{},\
             \"repeats\":{},\"cold_lines\":{},\"footprint_lines\":{},\"points\":[",
            self.line_words,
            self.word_accesses,
            self.line_touches,
            self.repeats,
            self.cold,
            self.footprint_lines
        );
        for (i, p) in self.points(capacities_words).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"capacity_words\":{},\"capacity_lines\":{},\"fills\":{},\
                 \"writebacks\":{},\"flush_writebacks\":{},\"dram_reads_lines\":{},\
                 \"dram_writes_lines\":{},\"hits\":{},\"misses\":{}}}",
                p.capacity_words,
                p.capacity_lines,
                p.fills,
                p.writebacks,
                p.flush_writebacks,
                p.dram_reads_lines(),
                p.dram_writes_lines(),
                p.hits,
                p.misses
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense lookup the packed form replaces: clamped to the last
    /// entry, 0 when empty.
    fn dense_at(v: &[u64], i: u64) -> u64 {
        match v.get(i as usize) {
            Some(&x) => x,
            None => v.last().copied().unwrap_or(0),
        }
    }

    /// A non-decreasing vector from `(value, shape, run)` segments: shape
    /// 0 keeps a full-range value, 1 moves it within 16 of `u64::MAX`,
    /// 2 within 16 of 0; each value repeats `run` times (flat runs).
    fn staircase(segments: &[(u64, u8, usize)]) -> Vec<u64> {
        let mut vals: Vec<(u64, usize)> = segments
            .iter()
            .map(|&(v, shape, run)| match shape {
                0 => (v, run),
                1 => (u64::MAX - v % 16, run),
                _ => (v % 16, run),
            })
            .collect();
        vals.sort_unstable();
        vals.iter()
            .flat_map(|&(v, run)| std::iter::repeat_n(v, run))
            .collect()
    }

    fn segments() -> impl Strategy<Value = Vec<(u64, u8, usize)>> {
        prop::collection::vec((any::<u64>(), 0u8..3, 1usize..60), 0..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn packed_steps_equal_the_dense_clamped_lookup(seg in segments()) {
            let v = staircase(&seg);
            let packed = CumSteps::from_cum(&v);
            prop_assert_eq!(packed.len(), v.len());
            prop_assert_eq!(packed.last(), dense_at(&v, u64::MAX));
            prop_assert_eq!(packed.to_vec(), v.clone());
            for i in 0..v.len() as u64 + 3 {
                prop_assert_eq!(packed.at(i), dense_at(&v, i));
            }
            prop_assert_eq!(packed.at(u64::MAX), dense_at(&v, u64::MAX));
            // A histogram's running sums pack to the same steps.
            let counts: Vec<u64> = v
                .iter()
                .scan(0, |prev, &x| Some(x - std::mem::replace(prev, x)))
                .collect();
            prop_assert_eq!(CumSteps::from_counts(&counts), packed);
        }

        #[test]
        fn points_equal_at_point_by_point(
            dist in segments(),
            wb in segments(),
            flush in segments(),
            caps in prop::collection::vec(0u64..4000, 0..40),
        ) {
            let dist = CumSteps::from_cum(&staircase(&dist));
            let wb = CumSteps::from_cum(&staircase(&wb));
            let curve = CapacityCurve {
                line_words: 8,
                // No cold misses, so hits = accesses − fills never wraps.
                word_accesses: dist.last(),
                dist_cum: dist,
                // Equal lo/hi steps keep every interval count ≥ 0.
                wb_lo_cum: wb.clone(),
                wb_hi_cum: wb,
                flush_cum: CumSteps::from_cum(&staircase(&flush)),
                ..CapacityCurve::default()
            };
            let mut ladder = caps.clone();
            ladder.sort_unstable();
            ladder.extend(curve.default_ladder());
            // Ascending, then out of order (the cursors restart).
            for list in [ladder, caps] {
                let pts = curve.points(&list);
                prop_assert_eq!(pts.len(), list.len());
                for (p, &w) in pts.iter().zip(&list) {
                    prop_assert_eq!(*p, curve.at(w));
                }
            }
        }
    }

    #[test]
    fn packed_steps_edge_cases() {
        let empty = CumSteps::from_cum(&[]);
        assert!(empty.is_empty());
        assert_eq!((empty.at(0), empty.at(9), empty.last()), (0, 0, 0));
        assert_eq!(CumSteps::from_cum(&[7]).at(5), 7);
        let top = [0, u64::MAX - 1, u64::MAX, u64::MAX];
        assert_eq!(CumSteps::from_cum(&top).to_vec(), top);
        let flat = vec![3u64; 100_000];
        let packed = CumSteps::from_cum(&flat);
        assert_eq!(packed.at(99_999), 3);
        assert!(packed.bytes.len() <= 2, "a flat run is one breakpoint");
    }

    /// Hand-built curve for the trace R0 R1 R0 W1 (line addresses),
    /// line_words = 1, word = line touch.
    ///
    /// Touches: 0 cold, 1 cold, 0 at d=1, 1 at d=1 (write).
    /// Emissions: none during the run (both reuses hit any C ≥ 2; at
    /// C = 1 the W1 access finds line 1 clean — it was never written
    /// before). End state: line 1 dirty, maxd=0, 0 lines after it → e=0;
    /// line 0 clean. Flush threshold for line 1 = max(0, 0)+1 = 1.
    fn tiny() -> CapacityCurve {
        CapacityCurve {
            line_words: 1,
            word_accesses: 4,
            line_touches: 4,
            repeats: 0,
            cold: 2,
            footprint_lines: 2,
            // d-histogram {1: 2} → cumulative [0, 2].
            dist_cum: CumSteps::from_cum(&[0, 2]),
            wb_lo_cum: CumSteps::from_cum(&[0]),
            wb_hi_cum: CumSteps::from_cum(&[0]),
            // flush threshold histogram {1: 1} → cumulative [0, 1].
            flush_cum: CumSteps::from_cum(&[0, 1]),
        }
    }

    #[test]
    fn projection_matches_hand_simulation() {
        let c = tiny();
        // C = 1: both reuses miss (d=1 ≥ 1) → 4 fills; the final W1
        // leaves line 1 dirty-resident → 1 flush write-back.
        let p1 = c.at(1);
        assert_eq!(p1.fills, 4);
        assert_eq!(p1.writebacks, 0);
        assert_eq!(p1.flush_writebacks, 1);
        assert_eq!(p1.hits, 0);
        assert_eq!(p1.misses, 4);
        assert_eq!(p1.dram_writes_lines(), 1);
        // C = 2 (and beyond): only the 2 cold fills; line 1 still flushes.
        for cap in [2, 3, 100] {
            let p = c.at(cap);
            assert_eq!(p.fills, 2, "capacity {cap}");
            assert_eq!(p.hits, 2);
            assert_eq!(p.flush_writebacks, 1);
        }
    }

    #[test]
    fn sub_line_capacity_clamps_to_one_line() {
        let mut c = tiny();
        c.line_words = 8;
        let p = c.at(3);
        assert_eq!(p.capacity_lines, 1);
    }

    #[test]
    fn default_ladder_covers_footprint() {
        let mut c = tiny();
        c.line_words = 8;
        c.footprint_lines = 37;
        let ladder = c.default_ladder();
        assert_eq!(ladder[0], 8);
        assert!(ladder.windows(2).all(|w| w[1] == 2 * w[0]));
        assert!(*ladder.last().unwrap() >= 37 * 8);
        assert!(ladder[ladder.len() - 2] < 37 * 8);
    }

    #[test]
    fn json_shape_is_stable() {
        let j = tiny().to_json(&[1, 2]);
        assert!(j.starts_with("{\"line_words\":1,\"word_accesses\":4,"));
        assert!(j.contains("\"points\":[{\"capacity_words\":1,"));
        assert!(j.contains("\"fills\":4"));
        assert!(j.ends_with("}]}"));
    }
}
