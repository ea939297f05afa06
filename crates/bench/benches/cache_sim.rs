//! Cache-simulator benches and the replacement-policy ablation: LRU vs
//! 3-bit clock vs FIFO, fully-associative vs set-associative, driven by
//! the Fig 4a/4b instruction orders.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dense::desc::alloc_layout;
use dense::matmul::{ml_matmul, RecOrder};
use memsim::mem::Access;
use memsim::{CacheConfig, Mem, MemSim, Policy, RawMem, SimMem};
use wa_core::Mat;

fn run_workload(cfgs: &[CacheConfig], n: usize, order_rest: RecOrder) -> u64 {
    let (d, words) = alloc_layout(&[(n, n), (n, n), (n, n)]);
    let mut mem = SimMem::new(words, MemSim::new(cfgs));
    d[0].store_mat(&mut mem, &Mat::random(n, n, 1));
    d[1].store_mat(&mut mem, &Mat::random(n, n, 2));
    let data = std::mem::take(&mut mem.data);
    let mut mem = SimMem::from_vec(data, MemSim::new(cfgs));
    ml_matmul(
        &mut mem,
        d[0],
        d[1],
        d[2],
        &[32, 8],
        RecOrder::COuter,
        order_rest,
    );
    mem.sim.llc().victims_m
}

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_sim/policy");
    let n = 64;
    let accesses = (2 * n * n * n + 2 * n * n) as u64 * 2;
    g.throughput(Throughput::Elements(accesses));
    let cases: Vec<(&str, CacheConfig)> = vec![
        (
            "fa_lru",
            CacheConfig {
                capacity_words: 3 * 32 * 32 + 8,
                line_words: 8,
                ways: 0,
                policy: Policy::Lru,
            },
        ),
        (
            "clock_16way",
            CacheConfig {
                capacity_words: 3328, // 416 lines: a multiple of 16-way sets
                line_words: 8,
                ways: 16,
                policy: Policy::Clock3,
            },
        ),
        (
            "fifo_16way",
            CacheConfig {
                capacity_words: 3328,
                line_words: 8,
                ways: 16,
                policy: Policy::Fifo,
            },
        ),
    ];
    for (name, cfg) in cases {
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| run_workload(&[*cfg], n, RecOrder::AOuter));
        });
    }
    g.finish();
}

fn bench_orders_under_lru(c: &mut Criterion) {
    // The Fig 5 ablation as a bench: slab vs multi-level order through the
    // full 3-level simulator.
    let mut g = c.benchmark_group("cache_sim/fig5_order");
    let cfgs = [
        CacheConfig {
            capacity_words: 64,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        },
        CacheConfig {
            capacity_words: 512,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        },
        CacheConfig {
            capacity_words: 3 * 32 * 32 + 8,
            line_words: 8,
            ways: 0,
            policy: Policy::Lru,
        },
    ];
    for (name, rest) in [("multilevel", RecOrder::COuter), ("slab", RecOrder::AOuter)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &rest, |b, &rest| {
            b.iter(|| run_workload(&cfgs, 64, rest));
        });
    }
    g.finish();
}

/// Per-word recording memory: the `(addr, is_write)` stream that the
/// offline Belady replay consumes. Runs fall back to the per-word hooks.
struct RecordMem {
    data: Vec<f64>,
    trace: Vec<Access>,
}

impl Mem for RecordMem {
    fn ld(&mut self, addr: usize) -> f64 {
        self.trace.push(Access {
            addr,
            is_write: false,
        });
        self.data[addr]
    }

    fn st(&mut self, addr: usize, v: f64) {
        self.trace.push(Access {
            addr,
            is_write: true,
        });
        self.data[addr] = v;
    }

    fn len(&self) -> usize {
        self.data.len()
    }
}

fn bench_belady(c: &mut Criterion) {
    use memsim::ideal::simulate_belady;
    let mut g = c.benchmark_group("cache_sim/belady");
    // Record a modest matmul trace once, replay through Belady.
    let n = 48;
    let (d, words) = alloc_layout(&[(n, n), (n, n), (n, n)]);
    let mut raw = RawMem::new(words);
    d[0].store_mat(&mut raw, &Mat::random(n, n, 1));
    d[1].store_mat(&mut raw, &Mat::random(n, n, 2));
    let mut tm = RecordMem {
        data: raw.data,
        trace: Vec::new(),
    };
    ml_matmul(
        &mut tm,
        d[0],
        d[1],
        d[2],
        &[16],
        RecOrder::COuter,
        RecOrder::COuter,
    );
    let trace: Vec<Access> = tm.trace;
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("offline_min", |b| {
        b.iter(|| simulate_belady(&trace, 96, 8));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_policies, bench_orders_under_lru, bench_belady
}
criterion_main!(benches);
