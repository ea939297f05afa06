//! The per-layer split of a traced pass: span durations recovered from
//! the recorder's events, combined with the counters and `wall_ns` the
//! reports carry.

use crate::cells::Cell;
use crate::pass::Pass;
use wa_core::obs::{Event, EventKind};
use wa_core::{BackendKind, RunReport};

/// A metric's name, value and unit.
pub type Metric = (&'static str, f64, &'static str);

/// Span durations of one cell call, in nanoseconds. The recorder's wall
/// clock ticks in microseconds, so each is a multiple of 1000.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellSpans {
    /// The benchmark's span around `Registry::run_cfg`.
    pub cell_ns: u128,
    /// The engine's `run` spans inside it (one per attempt).
    pub run_ns: u128,
    pub validate_ns: u128,
    pub to_json_ns: u128,
}

/// One [`CellSpans`] per benchmark `cell` span, in the order the cells
/// ran. Spans of other names (simulator phases, `attempt`) are skipped.
pub fn cell_spans(events: &[Event]) -> Vec<CellSpans> {
    let mut out: Vec<CellSpans> = Vec::new();
    let mut open: Vec<(&str, &str, u64)> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::Begin { name, cat } => {
                if name == "cell" && *cat == "bench" {
                    out.push(CellSpans::default());
                }
                open.push((name, cat, e.ts));
            }
            EventKind::End { name, cat } => {
                let (n, c, t0) = open.pop().expect("span closed that was never opened");
                assert!(n == name && c == *cat, "span `{n}` closed as `{name}`");
                let ns = u128::from(e.ts - t0) * 1000;
                let Some(cur) = out.last_mut() else { continue };
                match (n, c) {
                    ("cell", "bench") => cur.cell_ns += ns,
                    ("run", "engine") => cur.run_ns += ns,
                    ("validate", "bench") => cur.validate_ns += ns,
                    ("to_json", "bench") => cur.to_json_ns += ns,
                    _ => {}
                }
            }
            EventKind::Instant { .. } | EventKind::Counter { .. } => {}
        }
    }
    out
}

/// `(name, value, unit)` of the per-layer metrics of one traced pass.
/// Times are seconds summed over the pass's cells; a layer the workload
/// does not run reads 0.
pub fn layer_metrics(cells: &[Cell], pass: &Pass, spans: &[CellSpans]) -> Vec<Metric> {
    assert_eq!(
        pass.results.len(),
        spans.len(),
        "one cell span per cell call"
    );
    let mut m = Sums::default();
    for (res, sp) in pass.results.iter().zip(spans) {
        m.engine_overhead_ns += sp.cell_ns.saturating_sub(sp.run_ns);
        m.validate_ns += sp.validate_ns;
        m.to_json_ns += sp.to_json_ns;
        let Ok(r) = &res.outcome else { continue };
        let b = backend_index(cells[res.cell].cfg.backend);
        m.wall_ns[b] += r.wall_ns;
        m.post_ns[b] += sp.run_ns as i128 - r.wall_ns as i128;
        m.add_counters(r);
    }
    let s = |ns: u128| ns as f64 / 1e9;
    let per = |num: u128, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let wall = |b: BackendKind| s(m.wall_ns[backend_index(b)]);
    let post = |b: BackendKind| m.post_ns[backend_index(b)] as f64 / 1e9;
    let (sec, count, frac) = ("s", "count", "frac");
    vec![
        ("kernel.s", wall(BackendKind::Raw), sec),
        ("memsim.explicit.s", wall(BackendKind::Explicit), sec),
        ("memsim.hierarchy.s", wall(BackendKind::Simmed), sec),
        ("memsim.hierarchy.accesses", m.hier_accesses as f64, count),
        (
            "memsim.hierarchy.ns_per_access",
            per(m.hier_counted_ns, m.hier_accesses),
            "ns",
        ),
        (
            "memsim.hierarchy.memo_hit_rate",
            per(u128::from(m.memo_hits), m.hier_accesses),
            frac,
        ),
        ("memsim.stack.s", wall(BackendKind::Stack), sec),
        ("memsim.stack.accesses", m.stack_accesses as f64, count),
        (
            "memsim.stack.ns_per_access",
            per(m.stack_counted_ns, m.stack_accesses),
            "ns",
        ),
        ("memsim.trace.s", wall(BackendKind::Traced), sec),
        ("memsim.trace.records", m.trace_records as f64, count),
        ("workloads.post_s.raw", post(BackendKind::Raw), sec),
        (
            "workloads.post_s.explicit",
            post(BackendKind::Explicit),
            sec,
        ),
        ("workloads.post_s.simmed", post(BackendKind::Simmed), sec),
        ("workloads.post_s.stack", post(BackendKind::Stack), sec),
        ("workloads.post_s.traced", post(BackendKind::Traced), sec),
        ("wa_core.engine.overhead_s", s(m.engine_overhead_ns), sec),
        ("wa_core.report.validate_s", s(m.validate_ns), sec),
        ("wa_core.report.to_json_s", s(m.to_json_ns), sec),
        ("counters.slow_writes_words", m.slow_writes as f64, "words"),
        ("counters.slow_reads_words", m.slow_reads as f64, "words"),
        ("counters.line_fills", m.line_fills as f64, "lines"),
        (
            "counters.line_writebacks",
            m.line_writebacks as f64,
            "lines",
        ),
    ]
}

/// Index into the per-backend arrays, in [`BackendKind::ALL`] order.
fn backend_index(b: BackendKind) -> usize {
    BackendKind::ALL
        .iter()
        .position(|&k| k == b)
        .expect("every backend is in ALL")
}

#[derive(Default)]
struct Sums {
    wall_ns: [u128; 5],
    post_ns: [i128; 5],
    engine_overhead_ns: u128,
    validate_ns: u128,
    to_json_ns: u128,
    /// `simmed` accesses entering the hierarchy (`memo_hits +
    /// memo_misses`), and the `wall_ns` of the cells that report them.
    hier_accesses: u64,
    hier_counted_ns: u128,
    memo_hits: u64,
    /// `stack` accesses (`llc_hits + llc_misses`) and their cells' time.
    stack_accesses: u64,
    stack_counted_ns: u128,
    trace_records: u64,
    slow_writes: u64,
    slow_reads: u64,
    line_fills: u64,
    line_writebacks: u64,
}

impl Sums {
    fn add_counters(&mut self, r: &RunReport) {
        let get = |k: &str| config_u64(r, k);
        match r.backend {
            BackendKind::Simmed => {
                if let (Some(h), Some(mi)) = (get("memo_hits"), get("memo_misses")) {
                    self.hier_accesses += h + mi;
                    self.memo_hits += h;
                    self.hier_counted_ns += r.wall_ns;
                }
            }
            BackendKind::Stack => {
                if let (Some(h), Some(mi)) = (get("llc_hits"), get("llc_misses")) {
                    self.stack_accesses += h + mi;
                    self.stack_counted_ns += r.wall_ns;
                }
            }
            BackendKind::Traced => {
                self.trace_records += get("trace_len").or(get("trace_words")).unwrap_or(0);
            }
            BackendKind::Raw | BackendKind::Explicit => {}
        }
        let slow = r.slow_traffic();
        self.slow_writes += slow.store_words;
        self.slow_reads += slow.load_words;
        // Line-granular simulators only: lines filled from and written
        // back to the level behind the last cache.
        if let Some(fills) = get("llc_misses") {
            self.line_fills += fills;
            self.line_writebacks +=
                get("llc_victims_m").unwrap_or(0) + get("llc_flush_victims_m").unwrap_or(0);
        }
    }
}

/// A numeric config entry of `r`, if present.
fn config_u64(r: &RunReport, key: &str) -> Option<u64> {
    r.config
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.parse().ok())
}
