//! The benchmark's cells: which registry scenarios each workload runs,
//! the deterministic counters every report carries, and the pins those
//! counters are checked against on every pass.

use wa_core::{BackendKind, Registry, RunCfg, RunReport, Scale};

/// The benchmark workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sim-paper", "count-paper", "deep-paper"];

/// The pinned counters of every paper-scale cell, one line each.
pub const PINS: &str = include_str!("../pins.txt");

/// One registry scenario with the counters it must reproduce.
#[derive(Clone, Debug)]
pub struct Cell {
    pub name: String,
    pub cfg: RunCfg,
    pub pin: String,
}

impl Cell {
    pub fn key(&self) -> String {
        self.cfg.cell_key(&self.name)
    }
}

/// The benchmark workload a paper-scale cell belongs to: every hierarchy
/// deeper than two levels goes to `deep-paper`; of the rest, the
/// backends that only count (`raw`, `explicit`) go to `count-paper` and
/// the measuring substrates (`simmed`, `stack`, `traced`) to `sim-paper`.
pub fn workload_of(cfg: &RunCfg) -> &'static str {
    match cfg.backend {
        _ if cfg.depth >= 2 => "deep-paper",
        BackendKind::Raw | BackendKind::Explicit => "count-paper",
        BackendKind::Simmed | BackendKind::Stack | BackendKind::Traced => "sim-paper",
    }
}

/// Every paper-scale cell the registry offers, in registration order:
/// each supported backend at every depth from 1 to the workload's
/// maximum. This is the set `--write-pins` records.
pub fn registry_cells(reg: &Registry) -> Vec<(String, RunCfg)> {
    let mut out = Vec::new();
    for w in reg.iter() {
        for &b in w.backends() {
            for depth in 1..=w.max_depth(b) {
                out.push((
                    w.name().to_string(),
                    RunCfg::with_depth(b, Scale::Paper, depth),
                ));
            }
        }
    }
    out
}

/// Parse pin lines (`<cell key>\t<counters>`; `#` starts a comment) and
/// keep the cells of `workload`.
pub fn load_pins(text: &str, workload: &str) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |why: &str| format!("pins line {}: {why}", i + 1);
        let (key, pin) = line.split_once('\t').ok_or_else(|| bad("no tab"))?;
        let (name, cfg) = RunCfg::parse_cell_key(key).ok_or_else(|| bad("bad cell key"))?;
        if workload_of(&cfg) == workload {
            cells.push(Cell {
                name,
                cfg,
                pin: pin.to_string(),
            });
        }
    }
    if cells.is_empty() {
        return Err(format!("no pinned cells for workload `{workload}`"));
    }
    Ok(cells)
}

/// Render the lines of a pins file for `(cell, report)` pairs.
pub fn render_pins(rows: &[(String, RunReport)]) -> String {
    let mut s = String::from(
        "# Deterministic counters of every paper-scale registry cell.\n\
         # <workload|backend|scale|depth>\\t<counters>; regenerate with --write-pins.\n",
    );
    for (key, r) in rows {
        s.push_str(key);
        s.push('\t');
        s.push_str(&counters(r));
        s.push('\n');
    }
    s
}

/// The report's deterministic counters in one canonical line: flops,
/// per-level writes, per-boundary traffic, and the simulator (`llc_*`,
/// `memo_*`) and trace (`trace_*`) tallies from the config echo. Wall
/// time, notes and the rest of the config are left out.
pub fn counters(r: &RunReport) -> String {
    let mut s = format!("flops={}", r.flops);
    let wpl: Vec<String> = r.writes_per_level.iter().map(u64::to_string).collect();
    s.push_str(&format!(" wpl={}", wpl.join("/")));
    let bounds: Vec<String> = r
        .boundaries
        .iter()
        .map(|t| {
            format!(
                "{},{},{},{}",
                t.load_words, t.load_msgs, t.store_words, t.store_msgs
            )
        })
        .collect();
    s.push_str(&format!(" bounds={}", bounds.join(";")));
    for (k, v) in &r.config {
        if ["llc_", "memo_", "trace_"].iter().any(|p| k.starts_with(p)) {
            s.push_str(&format!(" {k}={v}"));
        }
    }
    s
}
