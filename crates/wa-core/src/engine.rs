//! The execution-engine layer: backends, scales, the [`Workload`] trait,
//! and the [`Registry`] the harness drives.
//!
//! Every algorithm variant in the workspace registers once (name, group,
//! supported backends, run function). The harness then offers a uniform
//! surface — `harness list`, `harness run <workload> --backend <b>` — and
//! cross-model checks can programmatically run the *same* workload on the
//! explicit-movement model and the cache simulator and compare
//! [`crate::report::RunReport`]s.

use crate::fault::{FaultKind, FaultPlan};
use crate::report::RunReport;
use crate::rng::XorShift;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How a workload executes and how its traffic is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackendKind {
    /// Plain execution on raw memory: numerics + wall clock, no traffic.
    Raw,
    /// Every access walks the multi-level cache simulator; boundary
    /// traffic is derived from fill/victim counters.
    Simmed,
    /// Accesses stream into a trace tally; the report carries its
    /// statistics (words accessed, words written, distinct lines).
    Traced,
    /// The algorithm issues explicit block `load`/`store` operations whose
    /// word counts are exact (the paper's Sections 2/4 accounting).
    Explicit,
    /// Single-pass Mattson stack simulation: the same access stream as
    /// `Simmed`, but projected into exact FA-LRU fills/write-backs for
    /// *every* capacity at once (a [`crate::curve::CapacityCurve`]).
    Stack,
}

impl BackendKind {
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Raw,
        BackendKind::Simmed,
        BackendKind::Traced,
        BackendKind::Explicit,
        BackendKind::Stack,
    ];

    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Raw => "raw",
            BackendKind::Simmed => "simmed",
            BackendKind::Traced => "traced",
            BackendKind::Explicit => "explicit",
            BackendKind::Stack => "stack",
        }
    }

    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "raw" => Some(BackendKind::Raw),
            "simmed" | "sim" => Some(BackendKind::Simmed),
            "traced" | "trace" => Some(BackendKind::Traced),
            "explicit" => Some(BackendKind::Explicit),
            "stack" => Some(BackendKind::Stack),
            _ => None,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Problem-size scale. The geometry mapping (cache capacities, matrix
/// dimensions) lives with the crates that own those notions; this enum is
/// just the shared selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Fast default: L3 capacity ÷256 vs. the paper's Xeon (L1/L2 stay at
    /// the ÷64 floor), dimensions ÷16.
    Small,
    /// Reference scale: capacities ÷64, dimensions ÷8.
    Paper,
}

impl Scale {
    pub fn as_str(&self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Hierarchy depths the engine will even consider dispatching. No
/// workload models more than 3 levels today; anything past this cap is a
/// typo'd config, rejected at the registry boundary before a kernel can
/// trip over it.
pub const MAX_DEPTH_CAP: usize = 8;

/// Upper bound on [`RunLimits::retries`]. Retries multiply sweep cost;
/// past this the config is degenerate, not cautious.
pub const MAX_RETRIES_CAP: u32 = 16;

/// Default [`Workload::footprint_bytes`]: 1 GiB, a deliberate
/// over-estimate so workloads without a declared size are treated as big
/// under any realistic [`RunLimits::mem_budget`].
pub const DEFAULT_FOOTPRINT_BYTES: u64 = 1 << 30;

/// Execution-policy limits for one dispatch: how long a cell may run and
/// how often a *retriable* failure (panic, timeout, transient error) is
/// re-attempted. Limits never change what a workload computes — they are
/// deliberately excluded from [`RunCfg::cell_key`] so a journal written
/// under one timeout resumes cleanly under another.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RunLimits {
    /// Wall-clock deadline per attempt; `None` (the default) waits forever.
    pub timeout: Option<Duration>,
    /// Extra attempts after a retriable failure (0 = single attempt).
    pub retries: u32,
    /// Footprint budget in bytes, checked against
    /// [`Workload::footprint_bytes`] *before* dispatch. `None` (the
    /// default) admits everything. An over-budget cell is rejected as
    /// `InvalidConfig`, or — with [`RunLimits::degrade`] — downgraded
    /// along the degradation ladder (depth → 1, scale → small,
    /// backend → traced) until it fits.
    pub mem_budget: Option<u64>,
    /// Degrade over-budget cells instead of rejecting them; the
    /// substitution is recorded in the report (`degraded_from` config
    /// entry plus a note).
    pub degrade: bool,
}

impl RunLimits {
    pub fn new(timeout: Option<Duration>, retries: u32) -> Self {
        RunLimits {
            timeout,
            retries,
            mem_budget: None,
            degrade: false,
        }
    }

    /// Builder form for attaching a footprint budget (and the degrade
    /// policy) to existing limits.
    pub fn with_mem_budget(mut self, budget: u64, degrade: bool) -> Self {
        self.mem_budget = Some(budget);
        self.degrade = degrade;
        self
    }
}

/// One execution scenario: backend, scale, and — for the traffic-counting
/// backends — the modeled hierarchy depth, plus execution-policy
/// [`RunLimits`] (deadline, retry budget).
///
/// `depth` is the number of explicit/simulated cache levels between the
/// processor and the backing store: 1 is the classical two-level model of
/// the paper's Section 2 (one boundary), 3 is the full Xeon-style
/// L1/L2/L3/DRAM hierarchy (three boundaries). Backends that do not model
/// a hierarchy (`raw`, `traced`) ignore it; workloads advertise what they
/// can model through [`Workload::max_depth`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunCfg {
    pub backend: BackendKind,
    pub scale: Scale,
    pub depth: usize,
    pub limits: RunLimits,
}

impl RunCfg {
    /// The default scenario: depth 1 (the two-level model), no limits.
    pub fn new(backend: BackendKind, scale: Scale) -> Self {
        RunCfg {
            backend,
            scale,
            depth: 1,
            limits: RunLimits::default(),
        }
    }

    pub fn with_depth(backend: BackendKind, scale: Scale, depth: usize) -> Self {
        RunCfg {
            backend,
            scale,
            depth,
            limits: RunLimits::default(),
        }
    }

    /// Builder form for attaching execution limits to a scenario.
    pub fn with_limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Canonical identity of the (workload, scenario) cell: the fields
    /// that determine the *result*, serialized in one fixed order.
    /// [`RunLimits`] are execution policy, not identity, and are excluded
    /// — the same cell under a different timeout is the same cell.
    pub fn cell_key(&self, workload: &str) -> String {
        format!(
            "{workload}|{}|{}|{}",
            self.backend.as_str(),
            self.scale.as_str(),
            self.depth
        )
    }

    /// Parse a [`RunCfg::cell_key`] back into `(workload, cfg)` — the
    /// round-trip the sweep journal's stability property test exercises.
    pub fn parse_cell_key(key: &str) -> Option<(String, RunCfg)> {
        let mut parts = key.split('|');
        let workload = parts.next()?.to_string();
        let backend = BackendKind::parse(parts.next()?)?;
        let scale = Scale::parse(parts.next()?)?;
        let depth: usize = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some((workload, RunCfg::with_depth(backend, scale, depth)))
    }

    /// Stable 64-bit hash of [`RunCfg::cell_key`] (FNV-1a). Deterministic
    /// across processes and field construction order — the journal key
    /// and the retry-backoff jitter seed.
    pub fn config_hash(&self, workload: &str) -> u64 {
        fnv1a64(self.cell_key(workload).as_bytes())
    }

    /// Reject degenerate scenarios with typed errors before dispatch:
    /// depth 0 or past [`MAX_DEPTH_CAP`], a zero timeout, or a retry
    /// budget past [`MAX_RETRIES_CAP`]. Workload-relative depth limits
    /// (`max_depth`) are still checked by the workload itself.
    pub fn validate(&self, workload: &str) -> Result<(), EngineError> {
        let invalid = |field: &'static str, value: String, reason: &str| {
            Err(EngineError::InvalidConfig {
                workload: workload.to_string(),
                field,
                value,
                reason: reason.to_string(),
            })
        };
        if self.depth == 0 {
            return invalid("depth", "0".into(), "hierarchy depth is 1-based");
        }
        if self.depth > MAX_DEPTH_CAP {
            return invalid(
                "depth",
                self.depth.to_string(),
                "exceeds the engine-wide depth cap",
            );
        }
        if self.limits.timeout == Some(Duration::ZERO) {
            return invalid("timeout", "0".into(), "a zero deadline can never be met");
        }
        if self.limits.retries > MAX_RETRIES_CAP {
            return invalid(
                "retries",
                self.limits.retries.to_string(),
                "exceeds the engine-wide retry cap",
            );
        }
        if self.limits.mem_budget == Some(0) {
            return invalid("mem_budget", "0".into(), "a zero budget admits nothing");
        }
        Ok(())
    }
}

/// FNV-1a over bytes: tiny, dependency-free, stable across platforms.
/// Public because the sweep journal reuses it as the per-record checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic backoff before retry `attempt` (1-based: the delay taken
/// after the first failure is `attempt == 1`). Exponential base of 10 ms
/// doubling per attempt, capped at 200 ms, with ±50% jitter drawn from a
/// [`XorShift`] stream seeded by the cell's config hash — so a rerun of
/// the same sweep retries on exactly the same schedule.
pub fn backoff_delay(config_hash: u64, attempt: u32) -> Duration {
    let base_ms = 10u64
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(10))
        .min(200);
    let mut rng = XorShift::new(config_hash ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let jitter = 0.5 + rng.next_unit(); // [0.5, 1.5)
    Duration::from_micros((base_ms as f64 * 1000.0 * jitter) as u64)
}

/// Why a run could not produce a report.
#[derive(Clone, Debug)]
pub enum EngineError {
    UnknownWorkload {
        name: String,
    },
    UnsupportedBackend {
        workload: String,
        backend: BackendKind,
        supported: Vec<BackendKind>,
    },
    UnsupportedDepth {
        workload: String,
        backend: BackendKind,
        depth: usize,
        max: usize,
    },
    /// A scenario field failed [`RunCfg::validate`] at the engine boundary.
    InvalidConfig {
        workload: String,
        field: &'static str,
        value: String,
        reason: String,
    },
    /// The dispatch panicked; the payload was contained by the engine.
    Panicked {
        workload: String,
        payload: String,
    },
    /// The dispatch outlived its [`RunLimits::timeout`] deadline *and*
    /// never observed the fired cancel token within the grace period —
    /// the worker thread could not be stopped and was detached. Only
    /// cells whose execution path has no cancellation checkpoints (raw
    /// busy loops, foreign blocking calls) end up here; instrumented
    /// kernels produce [`EngineError::Cancelled`] instead.
    TimedOut {
        workload: String,
        elapsed: Duration,
        deadline: Duration,
    },
    /// The attempt observed a fired [`crate::cancel::CancelToken`] and
    /// unwound cooperatively — the worker thread *joined*; no orphan
    /// work is left behind. `after_accesses` is the observing counter's
    /// access count at the checkpoint that saw the token.
    Cancelled {
        workload: String,
        reason: crate::cancel::CancelReason,
        after_accesses: u64,
        elapsed: Duration,
    },
    /// The attempt produced a report that failed
    /// [`RunReport::validate`]'s structural invariants.
    ReportInvariant {
        workload: String,
        violation: String,
    },
    /// A transient failure the caller (or the engine's retry loop) may
    /// re-attempt — the variant workloads return for recoverable faults.
    Retriable {
        workload: String,
        message: String,
    },
    Failed {
        workload: String,
        message: String,
    },
}

impl EngineError {
    /// Short machine-readable kind tag — the sweep journal/CSV `status`
    /// vocabulary (`ok` is the success tag alongside these).
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::UnknownWorkload { .. } => "unknown-workload",
            EngineError::UnsupportedBackend { .. } => "unsupported-backend",
            EngineError::UnsupportedDepth { .. } => "unsupported-depth",
            EngineError::InvalidConfig { .. } => "invalid-config",
            EngineError::Panicked { .. } => "panicked",
            EngineError::TimedOut { .. } => "timed-out",
            EngineError::Cancelled { .. } => "cancelled",
            EngineError::ReportInvariant { .. } => "report-invariant",
            EngineError::Retriable { .. } => "retriable",
            EngineError::Failed { .. } => "failed",
        }
    }

    /// Whether the engine's retry loop may re-attempt after this error.
    /// Config/registry errors are permanent: retrying a typo is futile.
    /// A deadline cancellation is retriable (the next attempt gets a
    /// fresh deadline); an interrupt cancellation is not (the process is
    /// shutting down). A report-invariant failure is retriable: the
    /// canonical cause is a one-shot corruption fault.
    pub fn is_retriable(&self) -> bool {
        match self {
            EngineError::Panicked { .. }
            | EngineError::TimedOut { .. }
            | EngineError::ReportInvariant { .. }
            | EngineError::Retriable { .. } => true,
            EngineError::Cancelled { reason, .. } => {
                *reason == crate::cancel::CancelReason::Deadline
            }
            _ => false,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownWorkload { name } => {
                write!(f, "unknown workload `{name}` (try `harness list`)")
            }
            EngineError::UnsupportedBackend {
                workload,
                backend,
                supported,
            } => {
                let names: Vec<&str> = supported.iter().map(|b| b.as_str()).collect();
                write!(
                    f,
                    "workload `{workload}` does not support backend `{backend}` (supported: {})",
                    names.join(", ")
                )
            }
            EngineError::UnsupportedDepth {
                workload,
                backend,
                depth,
                max,
            } => {
                write!(
                    f,
                    "workload `{workload}` on `{backend}` models hierarchy depths 1..={max}, \
                     not {depth}"
                )
            }
            EngineError::InvalidConfig {
                workload,
                field,
                value,
                reason,
            } => {
                write!(
                    f,
                    "invalid config for `{workload}`: {field} = {value} ({reason})"
                )
            }
            EngineError::Panicked { workload, payload } => {
                write!(f, "workload `{workload}` panicked: {payload}")
            }
            EngineError::TimedOut {
                workload,
                elapsed,
                deadline,
            } => {
                write!(
                    f,
                    "workload `{workload}` timed out after {:.1} ms (deadline {:.1} ms)",
                    elapsed.as_secs_f64() * 1e3,
                    deadline.as_secs_f64() * 1e3
                )
            }
            EngineError::Cancelled {
                workload,
                reason,
                after_accesses,
                elapsed,
            } => {
                write!(
                    f,
                    "workload `{workload}` cancelled ({}) after {after_accesses} accesses, \
                     {:.1} ms",
                    reason.as_str(),
                    elapsed.as_secs_f64() * 1e3
                )
            }
            EngineError::ReportInvariant {
                workload,
                violation,
            } => {
                write!(
                    f,
                    "workload `{workload}` report invariant violated: {violation}"
                )
            }
            EngineError::Retriable { workload, message } => {
                write!(f, "workload `{workload}` hit a retriable fault: {message}")
            }
            EngineError::Failed { workload, message } => {
                write!(f, "workload `{workload}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// One registered algorithm variant.
pub trait Workload: Send + Sync {
    /// Registry name, unique, kebab-case (e.g. `matmul-wa`).
    fn name(&self) -> &str;
    /// Owning group — by convention the crate name (`dense`, `nbody`, …).
    fn group(&self) -> &str;
    /// One-line description (paper artifact it reproduces).
    fn description(&self) -> &str;
    /// Backends this workload can execute on.
    fn backends(&self) -> &[BackendKind];
    /// Deepest hierarchy this workload can model on `backend` (number of
    /// cache levels between the processor and the backing store). Most
    /// workloads model the classical two-level setting only (depth 1).
    fn max_depth(&self, _backend: BackendKind) -> usize {
        1
    }
    /// Estimated peak footprint in bytes of one run at `(scale, depth)` —
    /// working arrays plus simulator state, the quantity
    /// [`RunLimits::mem_budget`] preflights against. The default is a
    /// deliberate over-estimate ([`DEFAULT_FOOTPRINT_BYTES`]): a workload
    /// that does not declare its size is assumed big, so budgets stay
    /// conservative rather than admitting unknown cells.
    fn footprint_bytes(&self, _scale: Scale, _depth: usize) -> u64 {
        DEFAULT_FOOTPRINT_BYTES
    }
    /// Execute the scenario described by `cfg`.
    fn run_cfg(&self, cfg: RunCfg) -> Result<RunReport, EngineError>;

    /// Execute on `backend` at `scale` in the two-level model (depth 1).
    fn run(&self, backend: BackendKind, scale: Scale) -> Result<RunReport, EngineError> {
        self.run_cfg(RunCfg::new(backend, scale))
    }

    fn supports(&self, backend: BackendKind) -> bool {
        self.backends().contains(&backend)
    }
}

/// A [`Workload`] assembled from plain data plus a run closure — the
/// one-liner registration form the algorithm crates use.
pub struct FnWorkload {
    pub name: &'static str,
    pub group: &'static str,
    pub description: &'static str,
    pub backends: Vec<BackendKind>,
    /// `(backend, max depth)` overrides; backends not listed model depth 1.
    pub depths: Vec<(BackendKind, usize)>,
    /// Footprint estimator ([`Workload::footprint_bytes`]).
    #[allow(clippy::type_complexity)]
    pub footprint: Box<dyn Fn(Scale, usize) -> u64 + Send + Sync>,
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(RunCfg) -> Result<RunReport, EngineError> + Send + Sync>,
}

impl FnWorkload {
    pub fn boxed(
        name: &'static str,
        group: &'static str,
        description: &'static str,
        backends: &[BackendKind],
        run: impl Fn(RunCfg) -> Result<RunReport, EngineError> + Send + Sync + 'static,
    ) -> Box<dyn Workload> {
        FnWorkload::boxed_sized(
            name,
            group,
            description,
            backends,
            &[],
            |_, _| DEFAULT_FOOTPRINT_BYTES,
            run,
        )
    }

    /// Like [`FnWorkload::boxed`] plus per-backend depth overrides (for
    /// workloads that model hierarchies deeper than the two-level default;
    /// backends not listed model depth 1) and a footprint estimator, so
    /// [`RunLimits::mem_budget`] preflights against real sizes instead of
    /// the conservative default.
    pub fn boxed_sized(
        name: &'static str,
        group: &'static str,
        description: &'static str,
        backends: &[BackendKind],
        depths: &[(BackendKind, usize)],
        footprint: impl Fn(Scale, usize) -> u64 + Send + Sync + 'static,
        run: impl Fn(RunCfg) -> Result<RunReport, EngineError> + Send + Sync + 'static,
    ) -> Box<dyn Workload> {
        Box::new(FnWorkload {
            name,
            group,
            description,
            backends: backends.to_vec(),
            depths: depths.to_vec(),
            footprint: Box::new(footprint),
            run: Box::new(run),
        })
    }
}

impl Workload for FnWorkload {
    fn name(&self) -> &str {
        self.name
    }

    fn group(&self) -> &str {
        self.group
    }

    fn description(&self) -> &str {
        self.description
    }

    fn backends(&self) -> &[BackendKind] {
        &self.backends
    }

    fn max_depth(&self, backend: BackendKind) -> usize {
        self.depths
            .iter()
            .find(|(b, _)| *b == backend)
            .map(|(_, d)| *d)
            .unwrap_or(1)
    }

    fn footprint_bytes(&self, scale: Scale, depth: usize) -> u64 {
        (self.footprint)(scale, depth)
    }

    fn run_cfg(&self, cfg: RunCfg) -> Result<RunReport, EngineError> {
        if !self.supports(cfg.backend) {
            return Err(EngineError::UnsupportedBackend {
                workload: self.name.to_string(),
                backend: cfg.backend,
                supported: self.backends.clone(),
            });
        }
        let max = self.max_depth(cfg.backend);
        if cfg.depth < 1 || cfg.depth > max {
            return Err(EngineError::UnsupportedDepth {
                workload: self.name.to_string(),
                backend: cfg.backend,
                depth: cfg.depth,
                max,
            });
        }
        (self.run)(cfg)
    }
}

/// Name-indexed collection of workloads. Registration order is preserved
/// for listing; lookup is by exact name.
///
/// Dispatch through [`Registry::run_cfg`] is *fault-isolated*: every run
/// executes under `catch_unwind` (a panicking workload becomes
/// [`EngineError::Panicked`], not a process abort), an optional watchdog
/// enforces the scenario's [`RunLimits::timeout`] on a helper thread, and
/// retriable failures are re-attempted up to [`RunLimits::retries`] times
/// with deterministic backoff ([`backoff_delay`]). An installed
/// [`FaultPlan`] injects faults inside this guarded path.
#[derive(Default)]
pub struct Registry {
    order: Vec<String>,
    // Arc (not Box) so the watchdog path can hand a clone to a detached
    // worker thread — a timed-out cell's thread may outlive the dispatch.
    by_name: BTreeMap<String, Arc<dyn Workload>>,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register one workload. Panics on a duplicate name: duplicates are
    /// always a programming error in the registering crate.
    pub fn register(&mut self, w: Box<dyn Workload>) {
        let name = w.name().to_string();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate workload registration: {name}"
        );
        self.order.push(name.clone());
        self.by_name.insert(name, Arc::from(w));
    }

    /// Install a deterministic fault-injection plan; every subsequent
    /// dispatch consults it. `None` clears it.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan.map(Arc::new);
    }

    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_deref()
    }

    /// Register a whole batch (the per-crate `workloads()` vectors).
    pub fn register_all(&mut self, ws: Vec<Box<dyn Workload>>) {
        for w in ws {
            self.register(w);
        }
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&dyn Workload> {
        self.by_name.get(name).map(|b| &**b)
    }

    /// Workloads in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Workload> {
        self.order.iter().map(|n| self.by_name[n].as_ref())
    }

    /// Run `name` on `backend` at `scale` in the two-level model.
    pub fn run(
        &self,
        name: &str,
        backend: BackendKind,
        scale: Scale,
    ) -> Result<RunReport, EngineError> {
        self.run_cfg(name, RunCfg::new(backend, scale))
    }

    /// Run `name` under the full scenario `cfg` (backend, scale, depth,
    /// limits) with fault isolation. See [`Registry::run_cfg_traced`].
    pub fn run_cfg(&self, name: &str, cfg: RunCfg) -> Result<RunReport, EngineError> {
        self.run_cfg_traced(name, cfg).0
    }

    /// Fault-isolated dispatch, also reporting how many attempts were
    /// made (≥ 1 once dispatch began; 0 for pre-dispatch config errors).
    ///
    /// Per attempt: an injected fault (if a plan is installed and a rule
    /// fires) is applied inside the guarded section, the run executes
    /// under `catch_unwind`, and — when `cfg.limits.timeout` is set — a
    /// watchdog bounds the attempt's wall clock. A timed-out worker
    /// thread cannot be killed; it is detached and its eventual result
    /// discarded. Retriable failures back off deterministically
    /// ([`backoff_delay`] seeded from the cell's config hash) and retry
    /// up to `cfg.limits.retries` times.
    pub fn run_cfg_traced(&self, name: &str, cfg: RunCfg) -> (Result<RunReport, EngineError>, u32) {
        let Some(w) = self.by_name.get(name) else {
            return (
                Err(EngineError::UnknownWorkload {
                    name: name.to_string(),
                }),
                0,
            );
        };
        if let Err(e) = cfg.validate(name) {
            return (Err(e), 0);
        }
        // Footprint preflight: refuse (or degrade) a cell that cannot
        // fit the budget *before* it burns a core.
        let requested = cfg;
        let mut cfg = cfg;
        let mut degraded: Option<String> = None;
        if let Some(budget) = cfg.limits.mem_budget {
            let need = w.footprint_bytes(cfg.scale, cfg.depth);
            if need > budget {
                if !cfg.limits.degrade {
                    return (
                        Err(EngineError::InvalidConfig {
                            workload: name.to_string(),
                            field: "mem_budget",
                            value: budget.to_string(),
                            reason: format!(
                                "estimated footprint {need} B exceeds the budget \
                                 (pass --degrade to downgrade the cell)"
                            ),
                        }),
                        0,
                    );
                }
                match degrade_cfg(w.as_ref(), cfg, budget) {
                    Some((fit, steps)) => {
                        cfg = fit;
                        degraded = Some(steps);
                    }
                    None => {
                        return (
                            Err(EngineError::InvalidConfig {
                                workload: name.to_string(),
                                field: "mem_budget",
                                value: budget.to_string(),
                                reason: format!(
                                    "estimated footprint {need} B exceeds the budget \
                                     and no degradation rung fits"
                                ),
                            }),
                            0,
                        );
                    }
                }
            }
        }
        // Journal identity and backoff jitter stay keyed to the cell the
        // caller asked for, degraded or not.
        let hash = requested.config_hash(name);
        let gen0 = crate::cancel::process_generation();
        let max_attempts = cfg.limits.retries + 1;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let attempt_span = crate::obs::span("attempt", "engine");
            let fault = self.fault_plan.as_ref().and_then(|p| p.on_invocation(name));
            let res = run_guarded(Arc::clone(w), name, cfg, fault);
            drop(attempt_span);
            match res {
                Ok(mut r) => {
                    if let Some(steps) = &degraded {
                        r = r
                            .config("degraded_from", requested.cell_key(name))
                            .note(format!("degraded to fit mem_budget: {steps}"));
                    }
                    return (Ok(r), attempt);
                }
                // Once the process is interrupted, retrying is pointless:
                // the sweep is shutting down.
                Err(e)
                    if e.is_retriable()
                        && attempt < max_attempts
                        && !crate::cancel::interrupted_since(gen0) =>
                {
                    let _backoff = crate::obs::span("backoff", "engine");
                    std::thread::sleep(backoff_delay(hash, attempt));
                }
                Err(e) => return (Err(e), attempt),
            }
        }
    }
}

/// Walk the degradation ladder until the footprint fits `budget`:
/// collapse the modeled hierarchy to the two-level model, drop to the
/// small capacity ladder, and finally fall back to the `traced` backend
/// (whose cost is the trace, not the simulated hierarchy). Returns the
/// fitting config and a human-readable description of the rungs taken.
fn degrade_cfg(w: &dyn Workload, cfg: RunCfg, budget: u64) -> Option<(RunCfg, String)> {
    let mut cur = cfg;
    let mut steps: Vec<&'static str> = Vec::new();
    if cur.depth > 1 {
        cur.depth = 1;
        steps.push("depth→1");
        if w.footprint_bytes(cur.scale, cur.depth) <= budget {
            return Some((cur, steps.join(", ")));
        }
    }
    if cur.scale == Scale::Paper {
        cur.scale = Scale::Small;
        steps.push("scale→small");
        if w.footprint_bytes(cur.scale, cur.depth) <= budget {
            return Some((cur, steps.join(", ")));
        }
    }
    if cur.backend != BackendKind::Traced && w.supports(BackendKind::Traced) {
        cur.backend = BackendKind::Traced;
        steps.push("backend→traced");
        return Some((cur, steps.join(", ")));
    }
    None
}

/// One guarded attempt: apply the injected fault, contain panics, and —
/// when a deadline is set — run on a helper thread bounded by a watchdog
/// wait. Without a deadline the attempt runs inline (no thread cost).
fn run_guarded(
    w: Arc<dyn Workload>,
    name: &str,
    cfg: RunCfg,
    fault: Option<FaultKind>,
) -> Result<RunReport, EngineError> {
    let token = crate::cancel::CancelToken::new();
    let Some(deadline) = cfg.limits.timeout else {
        let _guard = crate::cancel::install(token);
        return execute_contained(&*w, name, cfg, fault);
    };
    crate::obs::instant("watchdog:arm", "engine");
    let (tx, rx) = mpsc::channel();
    let owned = name.to_string();
    let worker_token = token.clone();
    let t0 = Instant::now();
    let handle = std::thread::Builder::new()
        .name(format!("wa-cell-{name}"))
        .spawn(move || {
            let _guard = crate::cancel::install(worker_token);
            let r = execute_contained(&*w, &owned, cfg, fault);
            let _ = tx.send(r); // receiver may have given up: fine
        })
        .expect("spawn cell worker thread");
    match rx.recv_timeout(deadline) {
        Ok(r) => {
            let _ = handle.join();
            r
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            crate::obs::instant("watchdog:fire", "engine");
            token.cancel(crate::cancel::CancelReason::Deadline);
            // Cooperative workers observe the token within one check
            // interval; give them a grace window to unwind and join.
            // A worker stuck in truly uncancellable code (e.g. a raw
            // syscall) is detached as before — the legacy `TimedOut`
            // path — so the watchdog never hangs.
            let grace = deadline.max(Duration::from_millis(250));
            match rx.recv_timeout(grace) {
                Ok(Err(e)) => {
                    let _ = handle.join();
                    Err(e)
                }
                // The worker finished cleanly inside the grace window:
                // the deadline still governs, so the result is discarded.
                Ok(Ok(_)) => {
                    let _ = handle.join();
                    Err(EngineError::TimedOut {
                        workload: name.to_string(),
                        elapsed: t0.elapsed(),
                        deadline,
                    })
                }
                Err(mpsc::RecvTimeoutError::Timeout) => Err(EngineError::TimedOut {
                    workload: name.to_string(),
                    elapsed: t0.elapsed(),
                    deadline,
                }),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let _ = handle.join();
                    Err(EngineError::Panicked {
                        workload: name.to_string(),
                        payload: "cell worker thread vanished".to_string(),
                    })
                }
            }
        }
        // Unreachable in practice: execute_contained never unwinds, so
        // the sender is dropped only after a send.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = handle.join();
            Err(EngineError::Panicked {
                workload: name.to_string(),
                payload: "cell worker thread vanished".to_string(),
            })
        }
    }
}

/// Trace-instant name for an injected fault.
fn fault_tag(f: FaultKind) -> &'static str {
    match f {
        FaultKind::Panic => "fault:panic",
        FaultKind::Stall(_) => "fault:stall",
        FaultKind::Corrupt => "fault:corrupt",
    }
}

/// The innermost attempt body: inject the fault, run the workload, and
/// convert any unwind into [`EngineError::Panicked`].
fn execute_contained(
    w: &dyn Workload,
    name: &str,
    cfg: RunCfg,
    fault: Option<FaultKind>,
) -> Result<RunReport, EngineError> {
    crate::cancel::silence_cancellation_unwinds();
    let t0 = Instant::now();
    let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
        // The guard closes the span on every exit from this closure,
        // including the unwind of an (injected or genuine) panic.
        let _run_span = crate::obs::span("run", "engine");
        if let Some(f) = fault {
            crate::obs::instant(fault_tag(f), "engine");
        }
        match fault {
            Some(FaultKind::Panic) => panic!("fault-injected panic in `{name}`"),
            // A cooperative stall: observes the cancel token in 10 ms
            // slices, so a stalled cell yields `Cancelled` under a
            // deadline rather than leaking a detached sleeper.
            Some(FaultKind::Stall(d)) => crate::cancel::sleep_cooperatively(d),
            Some(FaultKind::Corrupt) | None => {}
        }
        let mut r = w.run_cfg(cfg)?;
        if fault == Some(FaultKind::Corrupt) {
            crate::fault::corrupt_report(&mut r);
        }
        r.validate()
            .map_err(|violation| EngineError::ReportInvariant {
                workload: name.to_string(),
                violation,
            })?;
        Ok(r)
    }));
    match unwound {
        Ok(inner) => inner,
        Err(payload) => {
            if let Some(c) = payload.downcast_ref::<crate::cancel::CancellationUnwind>() {
                return Err(EngineError::Cancelled {
                    workload: name.to_string(),
                    reason: c.reason,
                    after_accesses: c.after_accesses,
                    elapsed: t0.elapsed(),
                });
            }
            Err(EngineError::Panicked {
                workload: name.to_string(),
                payload: crate::par::panic_payload_message(payload),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(name: &'static str) -> Box<dyn Workload> {
        FnWorkload::boxed(
            name,
            "test",
            "a test workload",
            &[BackendKind::Raw],
            move |cfg| Ok(RunReport::new(name, cfg.backend, cfg.scale)),
        )
    }

    #[test]
    fn register_lookup_run() {
        let mut r = Registry::new();
        r.register(dummy("w1"));
        r.register(dummy("w2"));
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.iter().map(|w| w.name().to_string()).collect::<Vec<_>>(),
            ["w1", "w2"]
        );
        let rep = r.run("w1", BackendKind::Raw, Scale::Small).unwrap();
        assert_eq!(rep.workload, "w1");
    }

    #[test]
    fn unsupported_backend_lists_supported() {
        let mut r = Registry::new();
        r.register(dummy("w"));
        let err = r.run("w", BackendKind::Simmed, Scale::Small).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("does not support"), "{msg}");
        assert!(msg.contains("raw"), "{msg}");
    }

    #[test]
    fn unknown_workload_is_reported() {
        let r = Registry::new();
        assert!(matches!(
            r.run("nope", BackendKind::Raw, Scale::Small),
            Err(EngineError::UnknownWorkload { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate workload registration")]
    fn duplicate_names_panic() {
        let mut r = Registry::new();
        r.register(dummy("w"));
        r.register(dummy("w"));
    }

    #[test]
    fn depth_defaults_to_one_and_overrides_apply() {
        let w = FnWorkload::boxed_sized(
            "deep",
            "test",
            "a depth-aware workload",
            &[BackendKind::Raw, BackendKind::Simmed],
            &[(BackendKind::Simmed, 3)],
            |_, _| DEFAULT_FOOTPRINT_BYTES,
            |cfg| Ok(RunReport::new("deep", cfg.backend, cfg.scale).config("depth", cfg.depth)),
        );
        assert_eq!(w.max_depth(BackendKind::Raw), 1);
        assert_eq!(w.max_depth(BackendKind::Simmed), 3);
        // In-range depth runs; the report sees the requested depth.
        let r = w
            .run_cfg(RunCfg::with_depth(BackendKind::Simmed, Scale::Small, 3))
            .unwrap();
        assert!(r.config.iter().any(|(k, v)| k == "depth" && v == "3"));
        // Out-of-range depth is a structured error naming the maximum.
        let err = w
            .run_cfg(RunCfg::with_depth(BackendKind::Raw, Scale::Small, 2))
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::UnsupportedDepth {
                depth: 2,
                max: 1,
                ..
            }
        ));
        assert!(err.to_string().contains("depths 1..=1"), "{err}");
        // run() is the depth-1 scenario.
        assert!(w.run(BackendKind::Simmed, Scale::Small).is_ok());
    }

    #[test]
    fn registry_contains_workload_panics() {
        let mut r = Registry::new();
        r.register(FnWorkload::boxed(
            "bomb",
            "test",
            "panics on dispatch",
            &[BackendKind::Raw],
            |_| panic!("kernel exploded at depth 7"),
        ));
        let err = r.run("bomb", BackendKind::Raw, Scale::Small).unwrap_err();
        match &err {
            EngineError::Panicked { workload, payload } => {
                assert_eq!(workload, "bomb");
                assert!(payload.contains("kernel exploded"), "{payload}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert_eq!(err.kind(), "panicked");
        assert!(err.is_retriable());
    }

    #[test]
    fn watchdog_enforces_deadline() {
        let mut r = Registry::new();
        r.register(FnWorkload::boxed(
            "sleeper",
            "test",
            "stalls forever (well, 10s)",
            &[BackendKind::Raw],
            |cfg| {
                std::thread::sleep(std::time::Duration::from_secs(10));
                Ok(RunReport::new("sleeper", cfg.backend, cfg.scale))
            },
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small)
            .with_limits(RunLimits::new(Some(Duration::from_millis(50)), 0));
        let t0 = Instant::now();
        let err = r.run_cfg("sleeper", cfg).unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "watchdog did not fire"
        );
        match err {
            EngineError::TimedOut {
                elapsed, deadline, ..
            } => {
                assert_eq!(deadline, Duration::from_millis(50));
                assert!(elapsed >= deadline);
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn retriable_failures_retry_then_succeed() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = std::sync::Arc::new(AtomicU32::new(0));
        let mut r = Registry::new();
        let c = std::sync::Arc::clone(&calls);
        r.register(FnWorkload::boxed(
            "flaky",
            "test",
            "fails twice, then succeeds",
            &[BackendKind::Raw],
            move |cfg| {
                if c.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err(EngineError::Retriable {
                        workload: "flaky".to_string(),
                        message: "transient".to_string(),
                    })
                } else {
                    Ok(RunReport::new("flaky", cfg.backend, cfg.scale))
                }
            },
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small).with_limits(RunLimits::new(None, 3));
        let (res, attempts) = r.run_cfg_traced("flaky", cfg);
        assert!(res.is_ok());
        assert_eq!(attempts, 3);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        // With no retry budget the first transient failure is final.
        let cfg0 = RunCfg::new(BackendKind::Raw, Scale::Small);
        let (res, attempts) = r.run_cfg_traced("flaky", cfg0);
        assert!(res.is_ok(), "counter is past the flaky window");
        assert_eq!(attempts, 1);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let mut r = Registry::new();
        r.register(dummy("w"));
        let cfg =
            RunCfg::new(BackendKind::Simmed, Scale::Small).with_limits(RunLimits::new(None, 5));
        let (res, attempts) = r.run_cfg_traced("w", cfg);
        assert!(matches!(res, Err(EngineError::UnsupportedBackend { .. })));
        assert_eq!(attempts, 1, "config errors must not burn the retry budget");
    }

    #[test]
    fn degenerate_configs_are_rejected_at_the_boundary() {
        let mut r = Registry::new();
        r.register(dummy("w"));
        let base = RunCfg::new(BackendKind::Raw, Scale::Small);
        for (cfg, field) in [
            (RunCfg { depth: 0, ..base }, "depth"),
            (
                RunCfg {
                    depth: MAX_DEPTH_CAP + 1,
                    ..base
                },
                "depth",
            ),
            (
                base.with_limits(RunLimits::new(Some(Duration::ZERO), 0)),
                "timeout",
            ),
            (
                base.with_limits(RunLimits::new(None, MAX_RETRIES_CAP + 1)),
                "retries",
            ),
        ] {
            let (res, attempts) = r.run_cfg_traced("w", cfg);
            match res {
                Err(EngineError::InvalidConfig { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
            assert_eq!(attempts, 0, "invalid configs must never dispatch");
        }
        // Unknown workloads still win over field validation context-wise.
        assert!(matches!(
            r.run_cfg("nope", RunCfg { depth: 0, ..base }),
            Err(EngineError::UnknownWorkload { .. })
        ));
    }

    #[test]
    fn cell_key_round_trips_and_hash_ignores_limits() {
        let cfg = RunCfg::with_depth(BackendKind::Simmed, Scale::Paper, 3);
        let key = cfg.cell_key("matmul-wa");
        assert_eq!(key, "matmul-wa|simmed|paper|3");
        let (w, parsed) = RunCfg::parse_cell_key(&key).unwrap();
        assert_eq!(w, "matmul-wa");
        assert_eq!(
            parsed.config_hash("matmul-wa"),
            cfg.config_hash("matmul-wa")
        );
        // Limits are execution policy, not cell identity.
        let limited = cfg.with_limits(RunLimits::new(Some(Duration::from_secs(1)), 4));
        assert_eq!(
            limited.config_hash("matmul-wa"),
            cfg.config_hash("matmul-wa")
        );
        // Different cells hash differently (FNV over distinct keys).
        assert_ne!(
            cfg.config_hash("matmul-wa"),
            cfg.config_hash("matmul-nonwa")
        );
        assert!(RunCfg::parse_cell_key("garbage").is_none());
        assert!(RunCfg::parse_cell_key("w|raw|small|1|extra").is_none());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let h = RunCfg::new(BackendKind::Raw, Scale::Small).config_hash("w");
        for attempt in 1..=5 {
            let a = backoff_delay(h, attempt);
            let b = backoff_delay(h, attempt);
            assert_eq!(a, b, "same (hash, attempt) must give the same delay");
            // base ∈ [10, 200] ms, jitter ∈ [0.5, 1.5).
            assert!(a >= Duration::from_millis(5), "{a:?}");
            assert!(a < Duration::from_millis(300), "{a:?}");
        }
        assert_ne!(
            backoff_delay(h, 1),
            backoff_delay(h ^ 1, 1),
            "different cells should jitter differently"
        );
    }

    #[test]
    fn fault_plan_injects_panic_stall_and_corruption() {
        use crate::fault::{FaultPlan, CORRUPTION_OFFSET};
        let mut r = Registry::new();
        r.register(FnWorkload::boxed(
            "victim",
            "test",
            "healthy unless a fault fires",
            &[BackendKind::Raw],
            |cfg| {
                let mut rep = RunReport::new("victim", cfg.backend, cfg.scale);
                rep.flops = 100;
                Ok(rep)
            },
        ));
        r.set_fault_plan(Some(
            FaultPlan::parse("victim:panic@1,victim:corrupt@2").unwrap(),
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small);
        // Invocation 1: injected panic, contained.
        assert!(matches!(
            r.run_cfg("victim", cfg),
            Err(EngineError::Panicked { .. })
        ));
        // Invocation 2: corrupted counters, marked by a note.
        let rep = r.run_cfg("victim", cfg).unwrap();
        assert_eq!(rep.flops, 100 + CORRUPTION_OFFSET);
        assert!(rep.notes.iter().any(|n| n.contains("fault-injected")));
        // Invocation 3: clean again.
        let rep = r.run_cfg("victim", cfg).unwrap();
        assert_eq!(rep.flops, 100);
        // Retry converts a first-invocation panic into eventual success.
        let mut r2 = Registry::new();
        r2.register(dummy("w"));
        r2.set_fault_plan(Some(FaultPlan::parse("w:panic@1").unwrap()));
        let (res, attempts) = r2.run_cfg_traced(
            "w",
            RunCfg::new(BackendKind::Raw, Scale::Small).with_limits(RunLimits::new(None, 2)),
        );
        assert!(res.is_ok());
        assert_eq!(attempts, 2);
    }

    #[test]
    fn cooperative_cancellation_joins_and_reports_accesses() {
        // The workload spins on `cancel::tick`, never finishing on its
        // own. The watchdog fires the token at the deadline; the worker
        // observes it within one check interval, unwinds, and *joins* —
        // so the whole dispatch returns quickly with `Cancelled`, not
        // after the (absent) natural end of the run.
        let mut r = Registry::new();
        r.register(FnWorkload::boxed(
            "spinner",
            "test",
            "ticks forever until cancelled",
            &[BackendKind::Raw],
            |_cfg| loop {
                crate::cancel::tick(1);
            },
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small)
            .with_limits(RunLimits::new(Some(Duration::from_millis(50)), 0));
        let t0 = Instant::now();
        let err = r.run_cfg("spinner", cfg).unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "cancelled worker did not join promptly"
        );
        match err {
            EngineError::Cancelled {
                reason,
                after_accesses,
                elapsed,
                ..
            } => {
                assert_eq!(reason, crate::cancel::CancelReason::Deadline);
                assert!(after_accesses > 0, "accesses-at-cancel must be recorded");
                assert!(elapsed >= Duration::from_millis(50));
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(err.kind(), "cancelled");
        assert!(err.is_retriable(), "deadline cancellation is retriable");
    }

    #[test]
    fn interrupt_cancellation_is_not_retriable() {
        let err = EngineError::Cancelled {
            workload: "w".to_string(),
            reason: crate::cancel::CancelReason::Interrupt,
            after_accesses: 7,
            elapsed: Duration::from_millis(1),
        };
        assert!(!err.is_retriable(), "an interrupt must not burn retries");
        assert_eq!(err.kind(), "cancelled");
    }

    #[test]
    fn budget_preflight_rejects_oversized_cells() {
        let mut r = Registry::new();
        r.register(FnWorkload::boxed_sized(
            "big",
            "test",
            "claims a 1 MiB footprint",
            &[BackendKind::Raw],
            &[],
            |_, _| 1 << 20,
            |cfg| Ok(RunReport::new("big", cfg.backend, cfg.scale)),
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small)
            .with_limits(RunLimits::new(None, 3).with_mem_budget(1024, false));
        let (res, attempts) = r.run_cfg_traced("big", cfg);
        match res {
            Err(EngineError::InvalidConfig { field, reason, .. }) => {
                assert_eq!(field, "mem_budget");
                assert!(reason.contains("--degrade"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert_eq!(attempts, 0, "preflight must reject before any attempt");
        // A budget the footprint fits under runs normally.
        let roomy = RunCfg::new(BackendKind::Raw, Scale::Small)
            .with_limits(RunLimits::new(None, 0).with_mem_budget(1 << 21, false));
        assert!(r.run_cfg("big", roomy).is_ok());
    }

    #[test]
    fn degrade_ladder_walks_to_a_fitting_config() {
        // footprint = depth × 1000 bytes: depth 3 busts a 2000-byte
        // budget, depth 1 fits, so the first rung (depth→1) suffices.
        let mut r = Registry::new();
        r.register(FnWorkload::boxed_sized(
            "laddered",
            "test",
            "footprint scales with depth",
            &[BackendKind::Raw, BackendKind::Traced],
            &[(BackendKind::Raw, 3)],
            |_, depth| depth as u64 * 1000,
            |cfg| Ok(RunReport::new("laddered", cfg.backend, cfg.scale).config("depth", cfg.depth)),
        ));
        let cfg = RunCfg::with_depth(BackendKind::Raw, Scale::Small, 3)
            .with_limits(RunLimits::new(None, 0).with_mem_budget(2000, true));
        let rep = r.run_cfg("laddered", cfg).unwrap();
        assert!(
            rep.config.iter().any(|(k, v)| k == "depth" && v == "1"),
            "the cell must actually run at the degraded depth"
        );
        let degraded_from = rep
            .config
            .iter()
            .find(|(k, _)| k == "degraded_from")
            .map(|(_, v)| v.clone())
            .expect("degraded run must record the requested cell");
        assert!(degraded_from.contains("laddered"), "{degraded_from}");
        assert!(rep
            .notes
            .iter()
            .any(|n| n.contains("degraded to fit mem_budget") && n.contains("depth→1")));
        // No rung fits a 1-byte budget even via traced: every rung's
        // footprint is still ≥ 1000, so the ladder ends at traced and
        // accepts it (the trace itself is the cost, not the hierarchy).
        let tiny = RunCfg::with_depth(BackendKind::Raw, Scale::Small, 3)
            .with_limits(RunLimits::new(None, 0).with_mem_budget(1, true));
        let rep = r.run_cfg("laddered", tiny).unwrap();
        assert_eq!(rep.backend, BackendKind::Traced);
        // Without traced support the same budget is a hard reject.
        let mut r2 = Registry::new();
        r2.register(FnWorkload::boxed_sized(
            "untraceable",
            "test",
            "raw only",
            &[BackendKind::Raw],
            &[],
            |_, _| 1000,
            |cfg| Ok(RunReport::new("untraceable", cfg.backend, cfg.scale)),
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small)
            .with_limits(RunLimits::new(None, 0).with_mem_budget(1, true));
        match r2.run_cfg("untraceable", cfg) {
            Err(EngineError::InvalidConfig { reason, .. }) => {
                assert!(reason.contains("no degradation rung fits"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn invalid_reports_surface_as_typed_invariant_errors() {
        use crate::traffic::Traffic;
        // Conservation-violating report: the backing level claims fewer
        // writes than the last boundary stores into it.
        let mut r = Registry::new();
        r.register(FnWorkload::boxed(
            "liar",
            "test",
            "reports inconsistent counters",
            &[BackendKind::Raw],
            |cfg| {
                let mut rep = RunReport::new("liar", cfg.backend, cfg.scale);
                let mut t = Traffic::ZERO;
                t.load(100);
                t.store(40);
                rep.boundaries = vec![t];
                rep.writes_per_level = vec![100, 39]; // 39 ≠ 40 stored
                Ok(rep)
            },
        ));
        let cfg = RunCfg::new(BackendKind::Raw, Scale::Small);
        match r.run_cfg("liar", cfg) {
            Err(EngineError::ReportInvariant { violation, .. }) => {
                assert!(violation.contains("conservation"), "{violation}");
            }
            other => panic!("expected ReportInvariant, got {other:?}"),
        }
    }

    #[test]
    fn backend_and_scale_round_trip() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::parse(b.as_str()), Some(b));
        }
        for s in [Scale::Small, Scale::Paper] {
            assert_eq!(Scale::parse(s.as_str()), Some(s));
        }
        assert_eq!(BackendKind::parse("bogus"), None);
    }
}
