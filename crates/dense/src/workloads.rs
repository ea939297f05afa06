//! Engine registrations for the dense kernels.
//!
//! Each paper algorithm variant registers once; the run function projects
//! whichever backend was requested into a [`RunReport`]:
//!
//! * `explicit` — the Algorithm 1–3 explicit-movement kernels (plus the
//!   §7.2 LU orders) on a two-level [`ExplicitHier`] whose fast memory is
//!   the scale's L3;
//! * `simmed` — the access-driven kernels through a fully-associative
//!   true-LRU L3-sized simulator (the Propositions 6.1/6.2 setting),
//!   flushed before reporting so end-of-run dirty state is charged;
//! * `raw` — the same access-driven kernels on raw memory (wall clock);
//! * `traced` — a streaming tally of the address stream, reported as
//!   words accessed, words written and distinct lines touched;
//! * `stack` — the single-pass Mattson stack simulator: one run of the
//!   access-driven kernel yields exact FA-LRU fills and write-backs at
//!   *every* capacity (a [`wa_core::CapacityCurve`]); the report's
//!   boundary echoes the L3-sized projection so it agrees byte-for-byte
//!   with flushed `simmed`.
//!
//! Geometry: fast memory `M` = the scale's L3 words; the matrix dimension
//! is `2·b_sim` where `b_sim = ⌊√(M/5)⌋` rounded down to a whole number
//! of lines, so block edges align with cache lines and the simulated
//! write-backs are exactly the output size for WA orders (Prop 6.1).
//!
//! `matmul-wa` additionally models hierarchy depths 2 and 3 (see
//! [`deep_geometry`]): the explicit kernel recurses through
//! [`explicit_mm_multilevel_blocks`] and the simulator stacks one
//! fully-associative LRU level per depth, on *identical* line-aligned
//! blockings with Prop-6.2 slack, so the per-boundary write counts of the
//! two models are directly comparable at every level.

use crate::cholesky::{blocked_cholesky, CholVariant};
use crate::desc::alloc_layout;
use crate::explicit_cholesky::{explicit_cholesky_ll, explicit_cholesky_rl};
use crate::explicit_lu::{explicit_lu_ll, explicit_lu_rl};
use crate::explicit_mm::{explicit_mm_multilevel_blocks, explicit_mm_two_level};
use crate::explicit_trsm::{explicit_trsm_rl, explicit_trsm_wa};
use crate::lu::{blocked_lu, LuVariant};
use crate::matmul::multilevel::{ml_matmul, RecOrder};
use crate::matmul::{blocked_matmul, co_matmul, LoopOrder};
use crate::trsm::{blocked_trsm, TrsmVariant};
use memsim::xeon::XeonGeometry;
use memsim::{
    explicit_report, memsim_report, stack_report, ExplicitHier, Mem, MemSim, RawMem, SimMem,
    StackMem, TraceMem,
};
use wa_core::engine::{BackendKind, EngineError, FnWorkload, RunCfg, Scale, Workload};
use wa_core::report::{timed, RunReport};
use wa_core::Mat;

/// Fast-memory capacity (words) for the two-level models at `scale`.
pub fn fast_words(scale: Scale) -> usize {
    XeonGeometry::for_scale(scale, memsim::Policy::Lru).l3_words
}

/// Simulated block size: largest whole-line block with five copies
/// resident (Prop 6.1 head-room), and the matrix dimension `n = 2b`.
pub fn sim_block_and_dim(scale: Scale) -> (usize, usize) {
    let m = fast_words(scale);
    let b = ((((m / 5) as f64).sqrt()) as usize / 8 * 8).max(8);
    (b, 2 * b)
}

/// Geometry for the depth-`d` (d ≥ 2) cross-model hierarchies: per-level
/// block sizes (smallest first, line-aligned, doubling per level), level
/// capacities in words with Proposition-6.2 slack (five blocks per
/// level), and the matrix dimension `n = 2·b_top`. Both the explicit
/// multi-level kernel and the stacked-LRU simulator run this exact
/// blocking, which is what makes their per-boundary counts comparable.
pub fn deep_geometry(scale: Scale, depth: usize) -> (Vec<usize>, Vec<u64>, usize) {
    assert!(depth >= 1);
    let b0: usize = match scale {
        Scale::Small => 8,
        Scale::Paper => 16,
    };
    let blocks: Vec<usize> = (0..depth).map(|s| b0 << s).collect();
    let caps: Vec<u64> = blocks.iter().map(|&b| 5 * (b * b) as u64).collect();
    let n = 2 * blocks[depth - 1];
    (blocks, caps, n)
}

/// Single-level (L3-only) fully-associative LRU simulator of `m` words.
fn l3_sim(m: usize) -> MemSim {
    MemSim::single_level_lru(m)
}

/// Footprint estimator for a dense kernel touching `mats` n×n f64
/// matrices: the dimension follows the same geometry the run uses
/// ([`deep_geometry`] past depth 1, [`sim_block_and_dim`] otherwise), so
/// `RunLimits::mem_budget` preflights against the real staging size.
fn dense_footprint(mats: u64) -> impl Fn(Scale, usize) -> u64 {
    move |scale, depth| {
        let n = if depth > 1 {
            deep_geometry(scale, depth).2
        } else {
            sim_block_and_dim(scale).1
        };
        mats * (n as u64) * (n as u64) * 8
    }
}

/// Stage three matrices into a fresh memory, returning `(descs, data)`.
fn stage(mats: &[&Mat]) -> (Vec<crate::MatDesc>, Vec<f64>) {
    let shapes: Vec<(usize, usize)> = mats.iter().map(|m| (m.rows(), m.cols())).collect();
    let (d, words) = alloc_layout(&shapes);
    let mut raw = RawMem::new(words);
    for (desc, m) in d.iter().zip(mats) {
        desc.store_mat(&mut raw, m);
    }
    (d, raw.data)
}

fn base_report(name: &str, backend: BackendKind, scale: Scale, n: usize) -> RunReport {
    RunReport::new(name, backend, scale)
        .config("n", n)
        .config("fast_words", fast_words(scale))
}

/// Run one access-driven dense kernel on the requested backend. The
/// kernel closure receives the memory and the matrix descriptors.
fn run_mem_kernel(
    name: &'static str,
    backend: BackendKind,
    scale: Scale,
    mats: &[&Mat],
    kernel: impl Fn(&mut &mut dyn Mem, &[crate::MatDesc]),
) -> Result<RunReport, EngineError> {
    let n = mats[0].rows();
    let m_words = fast_words(scale);
    let (d, data) = stage(mats);
    match backend {
        BackendKind::Raw => {
            let mut mem = RawMem::from_vec(data);
            let (_, ns) = timed(|| kernel(&mut (&mut mem as &mut dyn Mem), &d));
            let mut r = base_report(name, backend, scale, n);
            r.wall_ns = ns;
            Ok(r)
        }
        BackendKind::Simmed => {
            let mut mem = SimMem::from_vec(data, l3_sim(m_words));
            let (_, ns) = timed(|| kernel(&mut (&mut mem as &mut dyn Mem), &d));
            mem.sim.flush();
            let mut r = memsim_report(&mem.sim, base_report(name, backend, scale, n))
                .note("flushed: end-of-run dirty lines charged to the DRAM boundary");
            r.wall_ns = ns;
            Ok(r)
        }
        BackendKind::Stack => {
            let mut mem = StackMem::from_vec(data);
            let (_, ns) = timed(|| kernel(&mut (&mut mem as &mut dyn Mem), &d));
            let mut r = stack_report(&mem.sim, m_words, base_report(name, backend, scale, n));
            r.wall_ns = ns;
            Ok(r)
        }
        BackendKind::Traced => {
            let mut mem = TraceMem::from_vec(data);
            let (_, ns) = timed(|| kernel(&mut (&mut mem as &mut dyn Mem), &d));
            let t = &mem.tally;
            let mut r = base_report(name, backend, scale, n)
                .config("trace_len", t.words())
                .config("trace_writes", t.writes())
                .config("trace_distinct_lines", t.distinct_lines());
            r.wall_ns = ns;
            Ok(r)
        }
        BackendKind::Explicit => Err(EngineError::UnsupportedBackend {
            workload: name.to_string(),
            backend,
            supported: vec![
                BackendKind::Raw,
                BackendKind::Simmed,
                BackendKind::Traced,
                BackendKind::Stack,
            ],
        }),
    }
}

/// A depth-`d` stacked hierarchy of fully-associative true-LRU levels
/// (one per entry of `caps`), the simulated side of the multi-level
/// cross-model check.
fn deep_sim(caps: &[u64]) -> MemSim {
    let words: Vec<usize> = caps.iter().map(|&w| w as usize).collect();
    MemSim::stacked_lru(&words)
}

/// The depth ≥ 2 scenarios of `matmul-wa`: explicit multi-level recursion
/// vs the stacked-LRU simulator, on identical blockings.
fn run_matmul_wa_deep(cfg: RunCfg) -> Result<RunReport, EngineError> {
    let RunCfg {
        backend,
        scale,
        depth,
        ..
    } = cfg;
    let (blocks, caps, n) = deep_geometry(scale, depth);
    let a = Mat::random(n, n, 11);
    let b = Mat::random(n, n, 12);
    let blocks_echo = blocks
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join("/");
    match backend {
        BackendKind::Explicit => {
            let mut c = Mat::zeros(n, n);
            let mut sizes = caps.clone();
            sizes.push(u64::MAX);
            let mut h = ExplicitHier::new(&sizes);
            let (_, ns) = timed(|| explicit_mm_multilevel_blocks(&a, &b, &mut c, &mut h, &blocks));
            let mut r = explicit_report(&h, base_report("matmul-wa", backend, scale, n))
                .config("depth", depth)
                .config("blocks", &blocks_echo);
            r.wall_ns = ns;
            Ok(r)
        }
        BackendKind::Simmed => {
            let c0 = Mat::zeros(n, n);
            let (d, data) = stage(&[&a, &b, &c0]);
            let mut mem = SimMem::from_vec(data, deep_sim(&caps));
            let mut big_first = blocks.clone();
            big_first.reverse();
            let (_, ns) = timed(|| {
                ml_matmul(
                    &mut mem,
                    d[0],
                    d[1],
                    d[2],
                    &big_first,
                    RecOrder::COuter,
                    RecOrder::COuter,
                )
            });
            mem.sim.flush();
            let mut r = memsim_report(&mem.sim, base_report("matmul-wa", backend, scale, n))
                .config("depth", depth)
                .config("blocks", &blocks_echo)
                .note("flushed: end-of-run dirty lines charged to the DRAM boundary");
            r.wall_ns = ns;
            Ok(r)
        }
        // FnWorkload::run_cfg rejects depth > max_depth before the
        // closure runs, and only explicit/simmed advertise depth > 1.
        other => unreachable!("depth {depth} advertised only for explicit/simmed, got {other}"),
    }
}

/// Matmul workloads: WA (`k` innermost) and non-WA (`k` outermost) blocked
/// orders, plus the cache-oblivious recursion.
fn matmul_workload(
    name: &'static str,
    description: &'static str,
    order: Option<LoopOrder>, // None = cache-oblivious
) -> Box<dyn Workload> {
    let backends = if order.is_some() {
        vec![
            BackendKind::Raw,
            BackendKind::Simmed,
            BackendKind::Traced,
            BackendKind::Explicit,
            BackendKind::Stack,
        ]
    } else {
        vec![
            BackendKind::Raw,
            BackendKind::Simmed,
            BackendKind::Traced,
            BackendKind::Stack,
        ]
    };
    // Only the WA order has a multi-level explicit kernel (§4.1 induction)
    // to compare the stacked simulator against.
    let depths: &[(BackendKind, usize)] = if order == Some(LoopOrder::Ijk) {
        &[(BackendKind::Explicit, 3), (BackendKind::Simmed, 3)]
    } else {
        &[]
    };
    FnWorkload::boxed_sized(
        name,
        "dense",
        description,
        &backends,
        depths,
        dense_footprint(3),
        move |cfg| {
            let RunCfg { backend, scale, .. } = cfg;
            if cfg.depth > 1 {
                return run_matmul_wa_deep(cfg);
            }
            let (bsize, n) = sim_block_and_dim(scale);
            let a = Mat::random(n, n, 11);
            let b = Mat::random(n, n, 12);
            if backend == BackendKind::Explicit {
                let order = order.expect("explicit requires a loop order");
                let mut c = Mat::zeros(n, n);
                let mut h = ExplicitHier::two_level(fast_words(scale) as u64);
                let (_, ns) = timed(|| explicit_mm_two_level(&a, &b, &mut c, &mut h, order));
                let mut r = explicit_report(&h, base_report(name, backend, scale, n))
                    .config("order", format!("{order:?}"));
                r.wall_ns = ns;
                return Ok(r);
            }
            let c0 = Mat::zeros(n, n);
            run_mem_kernel(name, backend, scale, &[&a, &b, &c0], |mem, d| match order {
                Some(o) => blocked_matmul(mem, d[0], d[1], d[2], bsize, o),
                None => co_matmul(mem, d[0], d[1], d[2], 16),
            })
            .map(|r| r.config("block", bsize))
        },
    )
}

pub fn workloads() -> Vec<Box<dyn Workload>> {
    vec![
        matmul_workload(
            "matmul-wa",
            "Algorithm 1 blocked matmul, WA order (k innermost): stores = output size",
            Some(LoopOrder::Ijk),
        ),
        matmul_workload(
            "matmul-nonwa",
            "blocked matmul, non-WA order (k outermost): stores = (n/b) x output size",
            Some(LoopOrder::Kij),
        ),
        matmul_workload(
            "matmul-co",
            "cache-oblivious recursive matmul (Frigo et al.): CA but provably not WA (Thm 3)",
            None,
        ),
        trsm_workload(
            "trsm-wa",
            "Algorithm 2 TRSM, WA order: stores = output size exactly",
            true,
        ),
        trsm_workload(
            "trsm-rl",
            "right-looking TRSM: eager updates rewrite B every panel",
            false,
        ),
        cholesky_workload(
            "cholesky-wa",
            "Algorithm 3 left-looking Cholesky (write-avoiding)",
            true,
        ),
        cholesky_workload(
            "cholesky-rl",
            "right-looking Cholesky: eager Schur updates are write-heavy",
            false,
        ),
        lu_workload(
            "lu-wa",
            "left-looking blocked LU (no pivoting), the WA order of section 7.2",
            LuVariant::LeftLooking,
        ),
        lu_workload(
            "lu-rl",
            "right-looking blocked LU (no pivoting), eager trailing updates",
            LuVariant::RightLooking,
        ),
    ]
}

fn trsm_workload(name: &'static str, description: &'static str, wa: bool) -> Box<dyn Workload> {
    let backends = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Explicit,
        BackendKind::Stack,
    ];
    FnWorkload::boxed_sized(
        name,
        "dense",
        description,
        &backends,
        &[],
        dense_footprint(4),
        move |RunCfg { backend, scale, .. }| {
            let (bsize, n) = sim_block_and_dim(scale);
            let t = Mat::random_upper_triangular(n, 21);
            let x = Mat::random(n, n, 22);
            let rhs = t.matmul_ref(&x);
            if backend == BackendKind::Explicit {
                let mut b = rhs.clone();
                let mut h = ExplicitHier::two_level(fast_words(scale) as u64);
                let (_, ns) = timed(|| {
                    if wa {
                        explicit_trsm_wa(&t, &mut b, &mut h)
                    } else {
                        explicit_trsm_rl(&t, &mut b, &mut h)
                    }
                });
                let mut r = explicit_report(&h, base_report(name, backend, scale, n));
                r.wall_ns = ns;
                return Ok(r);
            }
            let variant = if wa {
                TrsmVariant::WriteAvoiding
            } else {
                TrsmVariant::RightLooking
            };
            run_mem_kernel(name, backend, scale, &[&t, &rhs], move |mem, d| {
                blocked_trsm(mem, d[0], d[1], bsize, variant)
            })
            .map(|r| r.config("block", bsize))
        },
    )
}

fn cholesky_workload(name: &'static str, description: &'static str, wa: bool) -> Box<dyn Workload> {
    let backends = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Explicit,
        BackendKind::Stack,
    ];
    FnWorkload::boxed_sized(
        name,
        "dense",
        description,
        &backends,
        &[],
        dense_footprint(3),
        move |RunCfg { backend, scale, .. }| {
            let (bsize, n) = sim_block_and_dim(scale);
            let spd = Mat::random_spd(n, 31);
            if backend == BackendKind::Explicit {
                let mut a = spd.clone();
                let mut h = ExplicitHier::two_level(fast_words(scale) as u64);
                let (_, ns) = timed(|| {
                    if wa {
                        explicit_cholesky_ll(&mut a, &mut h)
                    } else {
                        explicit_cholesky_rl(&mut a, &mut h)
                    }
                });
                let mut r = explicit_report(&h, base_report(name, backend, scale, n));
                r.wall_ns = ns;
                return Ok(r);
            }
            let variant = if wa {
                CholVariant::LeftLooking
            } else {
                CholVariant::RightLooking
            };
            run_mem_kernel(name, backend, scale, &[&spd], move |mem, d| {
                blocked_cholesky(mem, d[0], bsize, variant)
            })
            .map(|r| r.config("block", bsize))
        },
    )
}

fn lu_workload(
    name: &'static str,
    description: &'static str,
    variant: LuVariant,
) -> Box<dyn Workload> {
    let backends = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Explicit,
        BackendKind::Stack,
    ];
    FnWorkload::boxed_sized(
        name,
        "dense",
        description,
        &backends,
        &[],
        dense_footprint(3),
        move |RunCfg { backend, scale, .. }| {
            let (bsize, n) = sim_block_and_dim(scale);
            let a = Mat::random_diagdom(n, 41);
            if backend == BackendKind::Explicit {
                let mut lu = a.clone();
                let mut h = ExplicitHier::two_level(fast_words(scale) as u64);
                let (_, ns) = timed(|| match variant {
                    LuVariant::LeftLooking => explicit_lu_ll(&mut lu, &mut h),
                    LuVariant::RightLooking => explicit_lu_rl(&mut lu, &mut h),
                });
                let mut r = explicit_report(&h, base_report(name, backend, scale, n));
                r.wall_ns = ns;
                return Ok(r);
            }
            run_mem_kernel(name, backend, scale, &[&a], move |mem, d| {
                blocked_lu(mem, d[0], bsize, variant)
            })
            .map(|r| r.config("block", bsize))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dense_workload_runs_on_each_declared_backend() {
        for w in workloads() {
            for &b in w.backends() {
                let r = w
                    .run(b, Scale::Small)
                    .unwrap_or_else(|e| panic!("{} on {b}: {e}", w.name()));
                assert_eq!(r.backend, b);
                if b == BackendKind::Simmed || b == BackendKind::Explicit || b == BackendKind::Stack
                {
                    assert!(!r.boundaries.is_empty(), "{} on {b}", w.name());
                }
                if b == BackendKind::Stack {
                    assert!(r.curve.is_some(), "{} on {b} must carry a curve", w.name());
                }
            }
        }
    }

    #[test]
    fn stack_boundary_agrees_with_flushed_simmed_for_every_dense_workload() {
        for w in workloads() {
            if !w.backends().contains(&BackendKind::Stack) {
                continue;
            }
            let sim = w.run(BackendKind::Simmed, Scale::Small).unwrap();
            let stk = w.run(BackendKind::Stack, Scale::Small).unwrap();
            assert_eq!(
                sim.boundaries.last().unwrap(),
                stk.boundaries.last().unwrap(),
                "{}: stack projection at fast_words must equal flushed simmed",
                w.name()
            );
        }
    }

    #[test]
    fn wa_matmul_explicit_and_simmed_store_the_output_size() {
        let reg: Vec<Box<dyn Workload>> = workloads();
        let w = reg.iter().find(|w| w.name() == "matmul-wa").unwrap();
        let (_, n) = sim_block_and_dim(Scale::Small);
        let out = (n * n) as u64;
        let exp = w.run(BackendKind::Explicit, Scale::Small).unwrap();
        assert_eq!(exp.writes_to_slow(), out);
        let sim = w.run(BackendKind::Simmed, Scale::Small).unwrap();
        assert_eq!(sim.writes_to_slow(), out);
    }

    #[test]
    fn explicit_lu_ll_stores_the_output_and_agrees_with_simmed() {
        let reg: Vec<Box<dyn Workload>> = workloads();
        let w = reg.iter().find(|w| w.name() == "lu-wa").unwrap();
        let (_, n) = sim_block_and_dim(Scale::Small);
        let out = (n * n) as u64;
        let exp = w.run(BackendKind::Explicit, Scale::Small).unwrap();
        assert_eq!(exp.writes_to_slow(), out);
        let sim = w.run(BackendKind::Simmed, Scale::Small).unwrap();
        assert_eq!(sim.writes_to_slow(), out);
    }

    #[test]
    fn deep_matmul_boundary_counts_agree_at_every_level() {
        let reg: Vec<Box<dyn Workload>> = workloads();
        let w = reg.iter().find(|w| w.name() == "matmul-wa").unwrap();
        for depth in [2usize, 3] {
            let exp = w
                .run_cfg(RunCfg::with_depth(
                    BackendKind::Explicit,
                    Scale::Small,
                    depth,
                ))
                .unwrap();
            let sim = w
                .run_cfg(RunCfg::with_depth(BackendKind::Simmed, Scale::Small, depth))
                .unwrap();
            assert_eq!(exp.boundaries.len(), depth);
            assert_eq!(sim.boundaries.len(), depth);
            for b in 0..depth {
                assert_eq!(
                    exp.boundaries[b].store_words, sim.boundaries[b].store_words,
                    "depth {depth} boundary {b}"
                );
            }
            // The slowest boundary stores exactly the output.
            let (_, _, n) = deep_geometry(Scale::Small, depth);
            assert_eq!(exp.writes_to_slow(), (n * n) as u64);
        }
    }
}
