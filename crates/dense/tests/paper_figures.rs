//! The headline shapes of the paper's Figures 2 and 5, at the small scaled
//! Xeon 7560 geometry (`XeonGeometry::for_scale(Scale::Small, _)`: L3 ÷256,
//! linear dimensions ÷16) under fully-associative true LRU at every level —
//! the setting of Propositions 6.1/6.2. At ÷256 capacities a 16-way L3 has
//! only ~100 sets, so set conflicts (absent at hardware scale) would
//! dominate the counts; full associativity keeps the scaling honest.
//!
//! Counts are the L3's `victims_m` (the paper's `L3_VICTIMS.M`,
//! write-backs to DRAM) against the write lower bound: the output C's size
//! in lines.

use dense::desc::alloc_layout;
use dense::matmul::{co_matmul, ml_matmul, tuned_matmul, RecOrder};
use memsim::xeon::XeonGeometry;
use memsim::{CacheConfig, MemSim, Policy, SimMem};
use wa_core::{Mat, Scale};

fn geometry() -> XeonGeometry {
    XeonGeometry::for_scale(Scale::Small, Policy::Lru)
}

/// Three fully-associative LRU levels with the geometry's capacities.
fn fa_lru_sim(g: &XeonGeometry) -> MemSim {
    let fa = |words: usize| CacheConfig {
        capacity_words: words,
        line_words: g.line_words,
        ways: 0,
        policy: Policy::Lru,
    };
    MemSim::new(&[fa(g.l1_words), fa(g.l2_words), fa(g.l3_words)])
}

/// Largest `b` with three `b×b` blocks fitting in `words`.
fn three_fit(words: usize) -> usize {
    ((words / 3) as f64).sqrt().floor() as usize
}

/// One matmul variant at one middle dimension `m`.
#[derive(Clone, Copy)]
enum Variant {
    /// Fig 2a: recursive cache-oblivious.
    CacheOblivious,
    /// Fig 2b: tuned, write-oblivious (the MKL stand-in).
    Tuned,
    /// Three-level WA with this L3 block; `rest` is the order below the
    /// top level: `COuter` is Fig 4a (Fig 5 left), `AOuter` the slab
    /// order of Fig 4b (Fig 2c–f and Fig 5 right).
    Wa { b3: usize, rest: RecOrder },
}

/// Run `variant` on `n×m · m×n` from a cold cache; returns
/// `(L3 write-backs, write lower bound)` in lines.
fn l3_writebacks(variant: Variant, m: usize) -> (u64, u64) {
    let g = geometry();
    let n = g.scale_dim(4000);
    let (b2, b1) = (three_fit(g.l2_words), three_fit(g.l1_words));
    let (d, words) = alloc_layout(&[(n, m), (m, n), (n, n)]);
    let mut mem = SimMem::new(words, fa_lru_sim(&g));
    d[0].store_mat(&mut mem, &Mat::random(n, m, 0xA));
    d[1].store_mat(&mut mem, &Mat::random(m, n, 0xB));
    let mut mem = SimMem::from_vec(std::mem::take(&mut mem.data), fa_lru_sim(&g));
    let (a, b, c) = (d[0], d[1], d[2]);
    match variant {
        Variant::CacheOblivious => co_matmul(&mut mem, a, b, c, b1),
        Variant::Tuned => tuned_matmul(&mut mem, a, b, c, b2),
        Variant::Wa { b3, rest } => {
            ml_matmul(&mut mem, a, b, c, &[b3, b2, b1], RecOrder::COuter, rest)
        }
    }
    (mem.sim.llc().victims_m, (n * n / g.line_words) as u64)
}

/// Figure 2: WA write-backs stay flat near the bound as m grows 8→256;
/// cache-oblivious and tuned write-backs grow with m and exceed WA's.
#[test]
fn fig2_shapes_reproduce() {
    let wa = Variant::Wa {
        b3: geometry().l3_block_for(3),
        rest: RecOrder::AOuter,
    };
    // The growth regime needs A and B to overflow L3 by a wide margin
    // (paper: growth starts once 2·4000·m exceeds the 3.1M-word L3).
    let (small_m, big_m) = (8, 256);

    let (wa_small, _) = l3_writebacks(wa, small_m);
    let (wa_big, lb) = l3_writebacks(wa, big_m);
    assert!(wa_big < 3 * lb, "WA {wa_big} vs bound {lb}");
    assert!(wa_big < 4 * wa_small.max(1));

    let (co_small, _) = l3_writebacks(Variant::CacheOblivious, small_m);
    let (co_big, _) = l3_writebacks(Variant::CacheOblivious, big_m);
    // 32× the middle dimension -> more than 3× the write-backs.
    assert!(co_big > 3 * co_small, "CO {co_small} -> {co_big}");
    assert!(co_big > 2 * wa_big);

    let (tuned_big, _) = l3_writebacks(Variant::Tuned, big_m);
    assert!(tuned_big > 2 * wa_big);
}

/// Figure 5: at the largest L3 block (3 fit) the slab order holds
/// write-backs near the bound while the multi-level order thrashes; a
/// smaller block (the paper's 700, 5+ fit) helps the multi-level order.
#[test]
fn fig5_left_column_degrades_right_column_does_not() {
    let g = geometry();
    let big = g.l3_block_for(3);
    let small = g.scale_dim(700);
    // Needs several top-level shared-dimension blocks so that a C block
    // must survive from one J step to the next (the LRU priority effect
    // of Fig 3 only matters then).
    let m = 256;
    let run = |b3, rest| l3_writebacks(Variant::Wa { b3, rest }, m);

    let (slab_big, lb) = run(big, RecOrder::AOuter);
    let (ml_big, _) = run(big, RecOrder::COuter);
    let (ml_small, _) = run(small, RecOrder::COuter);

    assert!(
        slab_big < 3 * lb,
        "slab at big block: {slab_big} vs bound {lb}"
    );
    assert!(
        ml_big > 2 * slab_big,
        "multi-level at big block ({ml_big}) must thrash vs slab ({slab_big})"
    );
    assert!(
        ml_small < ml_big,
        "smaller blocks must help the multi-level order: {ml_small} vs {ml_big}"
    );
}
