//! The repository benchmark. It runs the paper-scale registry cells of
//! one workload, one after another on one thread, in an order shuffled
//! by `--seed`, and times each `Registry::run_cfg` call (with the
//! report's `validate` and `to_json`) from outside the program. Every
//! report's counters are checked against `pins.txt` on every pass.
//! Times are scaled to a reference host speed read by a yardstick
//! before every cell (see `yardstick`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-paper --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced passes with passes under a `wa_core::obs::Recorder`, prints
//! the per-layer metrics, and writes the last traced pass's Chrome trace
//! to `perfbench/out/`. `--write-pins` re-records `pins.txt`. The last
//! line of standard output is one JSON object with the results.

mod cells;
mod layers;
mod pass;
mod yardstick;

use cells::{Cell, PINS, WORKLOADS};
use layers::Metric;
use pass::{run_pass, shuffled, Pass};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wa_core::obs::{self, Clock, Recorder};
use wa_core::{Registry, RunCfg, Scale, XorShift};
use yardstick::Yardstick;

const USAGE: &str = "usage: wa-perfbench --workload <sim-paper|count-paper|deep-paper> \
                     --seed <n> --seconds <n> --trace <0|1>\n       wa-perfbench --write-pins";

/// Set-up is repeated at least this many times, and until the rounds
/// add up to [`SETUP_SECS`] of host time; the median round is reported.
const SETUP_ROUNDS: usize = 3;
const SETUP_SECS: f64 = 2.0;
/// Passes measured at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// `(name, unit)` of every end-to-end metric (`--trace 0`).
const END_TO_END: [(&str, &str); 5] = [
    ("pass_s", "s"),
    ("slowest_cell_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "frac"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    WritePins,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args == ["--write-pins"] {
        return Ok(Mode::WritePins);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}`: not a whole number: `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|&&w| w == value);
                workload = Some(*w.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Mode::WritePins) => write_pins(),
        Ok(Mode::Run(a)) => run(&a),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Run every paper-scale registry cell once and record its counters.
fn write_pins() -> Result<(), String> {
    let reg = wa_bench::registry::registry();
    let mut rows = Vec::new();
    for (name, cfg) in cells::registry_cells(&reg) {
        let r = reg
            .run_cfg(&name, cfg)
            .map_err(|e| format!("{}: {e}", cfg.cell_key(&name)))?;
        rows.push((cfg.cell_key(&name), r));
    }
    let path = package_dir().join("pins.txt");
    std::fs::write(&path, cells::render_pins(&rows))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("pinned {} cells in {}", rows.len(), path.display());
    Ok(())
}

/// One set-up round as it was timed: its host seconds, leaving out the
/// yardstick readings taken before each of its steps, and the slowdown
/// those readings give.
struct SetUp {
    reg: Registry,
    cells: Vec<Cell>,
    secs: f64,
    slowdown: f64,
}

/// One set-up round: build the registry, load the workload's pins, and
/// warm up by running each of its cells once at small scale.
fn set_up(workload: &str, stick: &mut Yardstick) -> Result<SetUp, String> {
    let share = yardstick::core_share(workload);
    let mut readings = stick.read();
    let t0 = Instant::now();
    let reg = wa_bench::registry::registry();
    let cells = cells::load_pins(PINS, workload)?;
    let mut secs = t0.elapsed().as_secs_f64();
    for c in &cells {
        readings = readings.add(stick.read());
        let cfg = RunCfg {
            scale: Scale::Small,
            ..c.cfg
        };
        let t0 = Instant::now();
        reg.run_cfg(&c.name, cfg)
            .map_err(|e| format!("warm-up {}: {e}", cfg.cell_key(&c.name)))?;
        secs += t0.elapsed().as_secs_f64();
    }
    let slowdown = yardstick::slowdown(share, readings, cells.len() + 1);
    Ok(SetUp {
        reg,
        cells,
        secs,
        slowdown,
    })
}

fn run(a: &Args) -> Result<(), String> {
    let share = yardstick::core_share(a.workload);
    let mut stick = Yardstick::new();
    // The first reading pays for the tables' page faults.
    stick.read();
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut setup_scaled: Vec<f64> = Vec::new();
    let (reg, cells) = loop {
        let round = set_up(a.workload, &mut stick)?;
        setup_secs.push(round.secs);
        setup_scaled.push(round.secs / round.slowdown);
        if setup_secs.len() >= SETUP_ROUNDS && setup_secs.iter().sum::<f64>() >= SETUP_SECS {
            break (round.reg, round.cells);
        }
    };

    let mut rng = order_rng(a.seed);
    let stop = Instant::now() + Duration::from_secs(a.seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Vec<layers::CellSpans>)> = Vec::new();
    let mut last_recorder = None;
    while plain.len() < MIN_PASSES || Instant::now() < stop {
        let order = shuffled(cells.len(), &mut rng);
        plain.push(run_pass(&reg, &cells, &order, &mut stick));
        if a.trace {
            let rec = Arc::new(Recorder::new(Clock::wall()));
            obs::install(Arc::clone(&rec));
            let p = run_pass(&reg, &cells, &order, &mut stick);
            obs::uninstall();
            traced.push((p, layers::cell_spans(&rec.events())));
            last_recorder = Some(rec);
        }
    }

    let all = plain.iter().chain(traced.iter().map(|(p, _)| p));
    let (attempted, failed) = all.fold((0, 0), |(n, f), p| (n + p.results.len(), f + p.failed()));
    // Every time metric is host time divided by the slowdown of the pass
    // or round it was measured in.
    let slowdowns: Vec<f64> = plain.iter().map(|p| p.slowdown(share)).collect();
    let plain_secs: Vec<f64> = plain
        .iter()
        .zip(&slowdowns)
        .map(|(p, s)| p.secs() / s)
        .collect();
    println!(
        "workload {} seed {}: {} cells per pass, {} untraced and {} traced passes",
        a.workload,
        a.seed,
        cells.len(),
        plain.len(),
        traced.len()
    );
    let host_secs: Vec<f64> = plain.iter().map(Pass::secs).collect();
    println!("pass host seconds: {host_secs:?}");
    let readings: Vec<(f64, f64)> = plain
        .iter()
        .map(|p| (p.readings.core_s, p.readings.chain_s))
        .collect();
    println!("pass yardstick readings (core s, chain s): {readings:?}");
    println!("pass slowdowns: {slowdowns:?}");
    println!("pass_s samples: {plain_secs:?}");
    println!("set-up host seconds: {setup_secs:?}");
    println!("setup_s samples: {setup_scaled:?}");

    let metrics: Vec<Metric> = if let Some(rec) = last_recorder {
        let trace_path = write_trace(a, &rec.to_chrome_json())?;
        println!("trace written to {}", trace_path.display());
        let per_pass: Vec<Vec<Metric>> = traced
            .iter()
            .map(|(p, spans)| {
                let slowdown = p.slowdown(share);
                let scale = |(name, v, unit): Metric| match unit {
                    "s" | "ns" => (name, v / slowdown, unit),
                    _ => (name, v, unit),
                };
                let mut m: Vec<Metric> = layers::layer_metrics(&cells, p, spans)
                    .into_iter()
                    .map(scale)
                    .collect();
                m.push(("yardstick.slowdown", slowdown, "x"));
                m
            })
            .collect();
        let traced_secs: Vec<f64> = traced
            .iter()
            .map(|(p, _)| p.secs() / p.slowdown(share))
            .collect();
        let mut metrics: Vec<Metric> = per_pass[0]
            .iter()
            .enumerate()
            .map(|(i, &(name, _, unit))| {
                let vals: Vec<f64> = per_pass.iter().map(|m| m[i].1).collect();
                (name, median(&vals), unit)
            })
            .collect();
        let overhead = median(&traced_secs) - median(&plain_secs);
        metrics.push(("wa_core.obs.overhead_s", overhead, "s"));
        metrics
    } else {
        let slowest: Vec<f64> = plain
            .iter()
            .zip(&slowdowns)
            .map(|(p, s)| p.slowest_cell_secs() / s)
            .collect();
        let values = [
            median(&plain_secs),
            median(&slowest),
            peak_rss_mb()?,
            median(&setup_scaled),
            1.0 - failed as f64 / attempted as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };

    for (name, v, unit) in &metrics {
        println!("{name:<32} {v:>16} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

/// The generator the cell orders are drawn from. The seed only reorders
/// cells: their inputs are fixed by the registry.
fn order_rng(seed: u64) -> XorShift {
    XorShift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED)
}

fn write_trace(a: &Args, json: &str) -> Result<PathBuf, String> {
    let dir = package_dir().join("out");
    let path = dir.join(format!("trace-{}-seed{}.json", a.workload, a.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Median (mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wa_core::{BackendKind, FaultPlan};

    fn pinned(workload: &str) -> Vec<Cell> {
        cells::load_pins(PINS, workload).expect("pins load")
    }

    /// A fault rule firing on the call of `cells[target]` when the cells
    /// run in `order` (fault plans count invocations per workload name).
    fn rule_for(cells: &[Cell], order: &[usize], target: usize, kind: &str) -> String {
        let name = &cells[target].name;
        let nth = 1 + order
            .iter()
            .take_while(|&&i| i != target)
            .filter(|&&i| cells[i].name == *name)
            .count();
        format!("{name}:{kind}@{nth}")
    }

    #[test]
    fn pins_cover_every_registry_cell_once() {
        let reg = wa_bench::registry::registry();
        let mut want: Vec<String> = cells::registry_cells(&reg)
            .iter()
            .map(|(n, cfg)| cfg.cell_key(n))
            .collect();
        let mut have: Vec<String> = WORKLOADS
            .iter()
            .flat_map(|w| pinned(w))
            .map(|c| c.key())
            .collect();
        want.sort();
        have.sort();
        assert_eq!(have, want);
        let sizes: Vec<usize> = WORKLOADS.iter().map(|w| pinned(w).len()).collect();
        assert_eq!(sizes, [59, 47, 19]);
    }

    #[test]
    fn injected_faults_each_fail_exactly_one_cell() {
        let cells: Vec<Cell> = pinned("deep-paper")
            .into_iter()
            .chain(pinned("count-paper"))
            .collect();
        let order = shuffled(cells.len(), &mut order_rng(7));
        let first = |pred: &dyn Fn(&Cell) -> bool| {
            *order
                .iter()
                .find(|&&i| pred(&cells[i]))
                .expect("a matching cell")
        };
        // A corrupted `raw` report still passes its invariants (it has no
        // boundaries), so only the pin check can catch it.
        let raw = first(&|c| c.cfg.backend == BackendKind::Raw);
        let deep = first(&|c| c.cfg.depth >= 2 && c.name != cells[raw].name);
        let panics = first(&|c| {
            c.cfg.backend == BackendKind::Explicit
                && c.name != cells[raw].name
                && c.name != cells[deep].name
        });
        let spec = [
            rule_for(&cells, &order, raw, "corrupt"),
            rule_for(&cells, &order, deep, "corrupt"),
            rule_for(&cells, &order, panics, "panic"),
        ]
        .join(",");
        let mut reg = wa_bench::registry::registry();
        reg.set_fault_plan(Some(FaultPlan::parse(&spec).expect("valid fault spec")));

        let pass = run_pass(&reg, &cells, &order, &mut Yardstick::new());
        assert_eq!(pass.results.len(), cells.len(), "every cell still runs");
        assert_eq!(pass.failed(), 3, "{spec}");
        for res in &pass.results {
            let err = res.outcome.as_ref().err();
            match res.cell {
                i if i == raw => assert!(err.expect("raw fails").contains("differ from the pin")),
                i if i == deep => assert!(err.expect("deep fails").contains("invariant")),
                i if i == panics => assert!(err.expect("panic fails").contains("panic")),
                i => assert!(err.is_none(), "{}: {err:?}", cells[i].key()),
            }
        }
    }

    #[test]
    fn seeds_reorder_cells_but_not_counters() {
        let cells = pinned("deep-paper");
        let reg = wa_bench::registry::registry();
        let counters_by_cell = |seed: u64| {
            let order = shuffled(cells.len(), &mut order_rng(seed));
            let pass = run_pass(&reg, &cells, &order, &mut Yardstick::new());
            let by_key: BTreeMap<String, String> = pass
                .results
                .iter()
                .map(|r| {
                    let rep = r.outcome.as_ref().expect("cell passes");
                    (cells[r.cell].key(), cells::counters(rep))
                })
                .collect();
            (order, format!("{by_key:?}"))
        };
        let (order1, counters1) = counters_by_cell(1);
        let (order2, counters2) = counters_by_cell(2);
        assert_ne!(order1, order2);
        assert_eq!(counters1, counters2);
    }

    #[test]
    fn cell_spans_split_a_cell_by_span_name() {
        let rec = Arc::new(Recorder::new(Clock::logical()));
        for _ in 0..2 {
            let cell = rec.span("cell", "bench");
            let attempt = rec.span("attempt", "engine");
            let run = rec.span("run", "engine");
            rec.instant("fault:none", "engine");
            drop((run, attempt, cell));
            drop(rec.span("validate", "bench"));
            drop(rec.span("to_json", "bench"));
        }
        // Logical ticks: one per event, read as microseconds.
        let want = layers::CellSpans {
            cell_ns: 6000,
            run_ns: 2000,
            validate_ns: 1000,
            to_json_ns: 1000,
        };
        assert_eq!(layers::cell_spans(&rec.events()), [want, want]);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = "--workload deep-paper --seed 3 --seconds 5 --trace 1";
        assert!(matches!(parse_args(&args(ok)), Ok(Mode::Run(a)) if a.trace && a.seed == 3));
        for bad in [
            "--workload nope --seed 3 --seconds 5 --trace 1",
            "--workload deep-paper --seed x --seconds 5 --trace 1",
            "--workload deep-paper --seed 3 --seconds 5 --trace 2",
            "--workload deep-paper --seed 3 --seconds 5",
            "--workload deep-paper --seed 3 --seconds 5 --trace",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
