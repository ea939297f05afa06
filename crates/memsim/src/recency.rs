//! The LRU recency stack behind both stack-distance clients,
//! [`crate::StackSim`] and [`crate::ReuseHist`] (Bennett and Kruskal,
//! 1975). A line's stack position is the tick of its most recent touch;
//! its distance is the number of live ticks newer than its own.
//!
//! * **Dense line table:** per-line state in a `Vec` indexed by line.
//! * **Compacting tick window:** when the window fills, the live lines are
//!   renumbered `1..=live` in recency order (every distance is kept), and
//!   the window doubles only if more than half of it is live. So it stays
//!   `≤ max(4·footprint, 64)` ticks, and memory is O(footprint), not
//!   O(trace).
//! * **Block rank structure:** a bitset over ticks plus a Fenwick tree of
//!   per-64-tick block counts; a move within one block skips the tree.
//!
//! Each mapped line holds exactly one live tick, all older than the touch
//! being recorded, so a distance is one rank query: `live − rank(pos)`.

/// Ticks per block of the rank structure (one bitset word).
const BLOCK: usize = 64;

#[derive(Default)]
struct Slot<T> {
    /// Tick of the line's most recent touch; 0 = never touched.
    pos: u32,
    state: T,
}

/// LRU recency stack with a client-defined per-line `state`.
///
/// Line numbers index the table directly, so feeders must use dense
/// addresses, as every feeder in the workspace does: `Mem` data arrays,
/// krylov's line-aligned nominal layout, and the `parallel` machine's
/// bump allocator. A sparse address (a high base offset, say) would size
/// the table by its largest line rather than by the footprint. The same
/// holds for [`crate::MemSim`]: each fully-associative level finds its
/// lines through a dense line→slot table (`cache::FaLru`).
pub(crate) struct RecencyStack<T> {
    slots: Vec<Slot<T>>,
    /// `owner[t]` = the line whose most recent touch is tick `t` (where
    /// `bits` has `t` set). Its length is the window.
    owner: Vec<u32>,
    /// Bit `t` set iff tick `t` is some line's most recent touch.
    bits: Vec<u64>,
    /// Fenwick tree over per-block popcounts of `bits` (1-based).
    blocks: Vec<i32>,
    /// Last tick handed out; ticks live in `1..window`.
    tick: usize,
    /// Mapped lines (the footprint).
    live: usize,
}

impl<T: Default> RecencyStack<T> {
    pub(crate) fn new() -> RecencyStack<T> {
        RecencyStack {
            slots: Vec::new(),
            owner: vec![0; BLOCK],
            bits: vec![0; 1],
            blocks: vec![0; 2],
            tick: 0,
            live: 0,
        }
    }

    /// Distinct lines touched so far.
    pub(crate) fn footprint(&self) -> u64 {
        self.live as u64
    }

    #[cfg(test)]
    pub(crate) fn window(&self) -> usize {
        self.owner.len()
    }

    /// Make `line` the most recent line. Returns its stack distance (the
    /// distinct other lines touched since its previous touch; `None` on a
    /// first touch) and its state.
    #[inline]
    pub(crate) fn touch(&mut self, line: u64) -> (Option<u64>, &mut T) {
        let i = line as usize;
        if i >= self.slots.len() {
            assert!(i < u32::MAX as usize, "line {i} beyond the dense table");
            let len = (i + 1).max(2 * self.slots.len());
            self.slots.resize_with(len, Slot::default);
        }
        let pos = self.slots[i].pos as usize;
        let d = (pos != 0).then(|| (self.live - self.rank(pos)) as u64);
        (d, self.move_to_top(i))
    }

    /// [`RecencyStack::touch`] for a mapped line whose distance the
    /// caller already knows: skips the rank query.
    #[inline]
    pub(crate) fn retouch(&mut self, line: u64) -> &mut T {
        debug_assert!(self.slots[line as usize].pos != 0, "unmapped line");
        self.move_to_top(line as usize)
    }

    /// State of a mapped line.
    pub(crate) fn state_mut(&mut self, line: u64) -> &mut T {
        &mut self.slots[line as usize].state
    }

    /// Every mapped line's depth (the distinct lines touched after its
    /// most recent touch) and state.
    pub(crate) fn lines(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let mapped = self.slots.iter().filter(|s| s.pos != 0);
        mapped.map(|s| ((self.live - self.rank(s.pos as usize)) as u64, &s.state))
    }

    /// Live ticks `≤ p`.
    #[inline]
    fn rank(&self, p: usize) -> usize {
        let b = p / BLOCK;
        let mut s = (self.bits[b] << (BLOCK - 1 - p % BLOCK)).count_ones() as i32;
        let mut k = b;
        while k > 0 {
            s += self.blocks[k];
            k &= k - 1;
        }
        s as usize
    }

    #[inline]
    fn block_add(&mut self, b: usize, v: i32) {
        let mut k = b + 1;
        while k < self.blocks.len() {
            self.blocks[k] += v;
            k += k & k.wrapping_neg();
        }
    }

    /// Move line `i` to the next tick, mapping it if new.
    #[inline]
    fn move_to_top(&mut self, i: usize) -> &mut T {
        if self.tick + 1 == self.owner.len() {
            self.compact();
        }
        self.tick += 1;
        let (old, new) = (self.slots[i].pos as usize, self.tick);
        if old == 0 {
            self.live += 1;
            self.block_add(new / BLOCK, 1);
        } else {
            self.bits[old / BLOCK] &= !(1 << (old % BLOCK));
            if old / BLOCK != new / BLOCK {
                self.block_add(old / BLOCK, -1);
                self.block_add(new / BLOCK, 1);
            }
        }
        self.bits[new / BLOCK] |= 1 << (new % BLOCK);
        self.owner[new] = i as u32;
        let slot = &mut self.slots[i];
        slot.pos = new as u32;
        &mut slot.state
    }

    /// The window is full: renumber the live lines in recency order,
    /// double the window if more than half of it is live, and rebuild the
    /// rank structure, all in O(window).
    #[cold]
    fn compact(&mut self) {
        let mut n = 0;
        for w in 0..self.bits.len() {
            let mut rest = self.bits[w];
            while rest != 0 {
                let line = self.owner[w * BLOCK + rest.trailing_zeros() as usize];
                rest &= rest - 1;
                n += 1;
                self.owner[n] = line;
                self.slots[line as usize].pos = n as u32;
            }
        }
        self.tick = n;
        if 2 * n > self.owner.len() {
            self.owner.resize(2 * self.owner.len(), 0);
        }
        let nb = self.owner.len() / BLOCK;
        self.bits = vec![0; nb];
        self.blocks = vec![0; nb + 1];
        for t in 1..=n {
            self.bits[t / BLOCK] |= 1 << (t % BLOCK);
        }
        for b in 0..nb {
            self.block_add(b, self.bits[b].count_ones() as i32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances_survive_compactions_and_doublings() {
        // A footprint growing to 500 lines under heavy reuse crosses both
        // window paths; reference distances come from an explicit
        // most-recent-first list.
        let mut rng = wa_core::rng::XorShift::new(7);
        let (mut s, mut naive) = (RecencyStack::<()>::new(), Vec::new());
        for i in 0..20_000u64 {
            let line = rng.next_u64() % (1 + i / 40);
            let d = naive.iter().position(|&x| x == line);
            if let Some(j) = d {
                naive.remove(j);
            }
            naive.insert(0, line);
            assert_eq!(s.touch(line).0, d.map(|j| j as u64), "touch {i}");
        }
        assert!(s.window() <= 4 * s.footprint() as usize + BLOCK);
    }
}
