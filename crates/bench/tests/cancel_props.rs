//! Property tests for cooperative cancellation inside the simulators:
//! firing the ambient token at an *arbitrary* access count always
//! surfaces as a typed `Cancelled` error — never a completed report,
//! never a leaked panic — and the cancellation point lands within one
//! check interval of the firing access, on the word-level cache
//! simulator (`MemSim`), the stack-distance simulator (`StackSim`) and
//! the trace tally (`TraceMem`), whose run path checks once per run.

use memsim::{Mem, MemSim, SimMem, StackMem, TraceMem};
use proptest::prelude::*;
use wa_core::cancel::{self, CHECK_INTERVAL};
use wa_core::engine::{BackendKind, EngineError, FnWorkload, RunCfg, Workload};
use wa_core::report::RunReport;
use wa_core::{CancelReason, Registry, Scale};

/// Words the driven simulators hold; large enough that every access in
/// the loop below is in range.
const WORDS: usize = 4 * CHECK_INTERVAL as usize;

/// A workload that performs simulator accesses forever-ish, firing the
/// ambient cancel token after `fire_at` accesses. Accesses are issued
/// `run` words at a time: one `ld` per word when `run == 1`, one
/// `ld_run` per run otherwise, so the token fires at the first run
/// boundary at or past `fire_at`. If cancellation were lost it would
/// finish all `total` accesses and return Ok — the property rejects that.
fn driven_workload(fire_at: u64, run: usize) -> Box<dyn Workload> {
    let total = fire_at + 3 * CHECK_INTERVAL;
    FnWorkload::boxed(
        "cancel-prop",
        "test",
        "fires the ambient token mid-simulation",
        &[BackendKind::Simmed, BackendKind::Stack, BackendKind::Traced],
        move |cfg: RunCfg| {
            let data = vec![0.0; WORDS];
            let mut mem: Box<dyn Mem> = match cfg.backend {
                BackendKind::Simmed => {
                    Box::new(SimMem::from_vec(data, MemSim::single_level_lru(256)))
                }
                BackendKind::Stack => Box::new(StackMem::from_vec(data)),
                BackendKind::Traced => Box::new(TraceMem::from_vec(data)),
                other => unreachable!("undeclared backend {other}"),
            };
            let mut out = vec![0.0; run];
            let mut done = 0;
            while done < total {
                if (fire_at..fire_at + run as u64).contains(&done) {
                    cancel::current()
                        .expect("engine must install a token")
                        .cancel(CancelReason::Deadline);
                }
                let addr = (done as usize) % (WORDS - run);
                if run == 1 {
                    mem.ld(addr);
                } else {
                    mem.ld_run(addr, &mut out);
                }
                done += run as u64;
            }
            Ok(RunReport::new("cancel-prop", cfg.backend, cfg.scale))
        },
    )
}

fn assert_cancels(
    backend: BackendKind,
    fire_at: u64,
    run: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut reg = Registry::new();
    reg.register(driven_workload(fire_at, run));
    let res = reg.run_cfg("cancel-prop", RunCfg::new(backend, Scale::Small));
    match res {
        Err(EngineError::Cancelled {
            reason,
            after_accesses,
            ..
        }) => {
            prop_assert_eq!(reason, CancelReason::Deadline);
            // The simulators check the token at least every
            // CHECK_INTERVAL accesses, so the reported cancellation
            // point is after the firing access but within one interval
            // of it (plus the simulator's own pre-fire accesses — the
            // access clocks start together here).
            prop_assert!(
                after_accesses >= fire_at,
                "cancelled before the token fired: {} < {}",
                after_accesses,
                fire_at
            );
            prop_assert!(
                after_accesses <= fire_at + 2 * CHECK_INTERVAL,
                "stale cancellation point: {} for fire_at {}",
                after_accesses,
                fire_at
            );
            Ok(())
        }
        Err(other) => {
            prop_assert!(false, "expected Cancelled, got {:?}", other);
            Ok(())
        }
        Ok(_) => {
            prop_assert!(false, "a fired token must never yield a completed report");
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn firing_at_any_access_count_cancels_the_simmed_backend(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Simmed, fire_at, 1)?;
    }

    #[test]
    fn firing_at_any_access_count_cancels_the_stack_backend(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Stack, fire_at, 1)?;
    }

    #[test]
    fn firing_at_any_access_count_cancels_the_traced_backend(fire_at in 0u64..20_000) {
        assert_cancels(BackendKind::Traced, fire_at, 1)?;
    }

    /// Runs of 1–64 words: each `ld_run` ticks its whole length at once.
    #[test]
    fn firing_at_any_access_count_cancels_traced_runs(
        fire_at in 0u64..20_000,
        run in 1usize..65,
    ) {
        assert_cancels(BackendKind::Traced, fire_at, run)?;
    }
}
