//! One pass over a workload's cells, one cell after another on the
//! calling thread, each call timed from outside the program.

use crate::cells::{counters, Cell};
use crate::yardstick::{self, Reading, Yardstick};
use std::hint::black_box;
use std::time::Instant;
use wa_core::{obs, Registry, RunReport, XorShift};

/// What one cell call produced: its host time and either the report or
/// why the cell failed (an engine error, a broken report invariant, or
/// counters that differ from the pin).
pub struct CellResult {
    pub cell: usize,
    pub secs: f64,
    pub outcome: Result<RunReport, String>,
}

/// The cell results of one pass, in the order the cells ran, and the
/// sum of the yardstick readings taken before each cell.
pub struct Pass {
    pub results: Vec<CellResult>,
    pub readings: Reading,
}

impl Pass {
    /// Host seconds of the pass: the sum of the timed cell calls.
    pub fn secs(&self) -> f64 {
        self.results.iter().map(|c| c.secs).sum()
    }

    /// The host's slowdown during the pass (see [`yardstick::slowdown`]).
    pub fn slowdown(&self, core_share: f64) -> f64 {
        yardstick::slowdown(core_share, self.readings, self.results.len())
    }

    pub fn slowest_cell_secs(&self) -> f64 {
        self.results.iter().map(|c| c.secs).fold(0.0, f64::max)
    }

    pub fn failed(&self) -> usize {
        self.results.iter().filter(|c| c.outcome.is_err()).count()
    }
}

/// A permutation of `0..n` drawn from `rng` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut XorShift) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i + 1));
    }
    order
}

/// Run `cells` in `order`, reading `stick` before each one. A failed
/// cell is recorded and the pass carries on with the rest.
pub fn run_pass(reg: &Registry, cells: &[Cell], order: &[usize], stick: &mut Yardstick) -> Pass {
    let mut readings = Reading::default();
    let results = order
        .iter()
        .map(|&i| {
            let cell = &cells[i];
            readings = readings.add(stick.read());
            let t0 = Instant::now();
            let res = timed_call(reg, cell);
            let secs = t0.elapsed().as_secs_f64();
            let outcome = res.and_then(|r| {
                let got = counters(&r);
                if got == cell.pin {
                    Ok(r)
                } else {
                    Err(format!("counters differ from the pin: got `{got}`"))
                }
            });
            if let Err(e) = &outcome {
                eprintln!("cell {} failed: {e}", cell.key());
            }
            CellResult {
                cell: i,
                secs,
                outcome,
            }
        })
        .collect();
    Pass { results, readings }
}

/// The timed section of one cell: `Registry::run_cfg`, then
/// `RunReport::validate` and `RunReport::to_json`, each under a span of
/// its own so a traced pass can split the cell's time.
fn timed_call(reg: &Registry, cell: &Cell) -> Result<RunReport, String> {
    let report = {
        let _span = obs::span("cell", "bench");
        reg.run_cfg(&cell.name, cell.cfg)
    }
    .map_err(|e| e.to_string())?;
    {
        let _span = obs::span("validate", "bench");
        report.validate()?;
    }
    let json = {
        let _span = obs::span("to_json", "bench");
        report.to_json()
    };
    black_box(json);
    Ok(report)
}
