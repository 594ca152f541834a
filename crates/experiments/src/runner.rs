//! Shared experiment plumbing: the [`Executor`] every run goes through,
//! workload selection, a memoising run cache, and the parallel job pool.
//!
//! # One executor per process
//!
//! An [`Executor`] bundles everything a run depends on besides its own
//! arguments: the base [`SimConfig`], the typed [`RunnerOptions`], the
//! checkpoint/result store, the execution statistics and the run and
//! failure journals. Binaries build one at entry from
//! [`RunnerOptions::from_env`] — the only place the environment is read —
//! and pass `&Executor` everywhere; tests build theirs from options set
//! directly. Nothing here is process-global, so two executors in one
//! process never see each other's settings, store, stats or failures.
//!
//! # Parallel execution
//!
//! Every `(workload, variant)` simulation is independent — each owns its
//! [`System`], and every stochastic choice flows from the run's own seeded
//! RNG — so experiments fan them out across cores with [`RunCache::run_batch`]
//! (a work-queue over `std::thread::scope`, no external dependencies).
//! Results are **bit-identical** to the serial order regardless of thread
//! count or scheduling; the `parallel_matches_serial` test asserts it.
//! The worker count is [`RunnerOptions::threads`] (default: all available
//! cores); `threads = 1` forces the serial path.
//!
//! # Observability
//!
//! The executor counts simulations executed, memo hits, per-run
//! wall-clock, simulated cycles (and the derived cycles/second
//! throughput), peak queue depth and per-thread run counts, and embeds
//! them in every emitted `BENCH_*.json` under `"executor"` (see
//! [`Executor::stats`]).
//!
//! # Warm-up checkpointing
//!
//! Every memoised simulation warms up through the executor's
//! [`crate::ckpt`] store: the first run of a `(config, workload,
//! variant)` key executes the warm-up and snapshots the machine; later
//! runs under the same exact key restore the snapshot and skip straight
//! to measurement. Results are bit-identical to a cold warm-up (the
//! `psa-sim` snapshot tests prove it); [`RunnerOptions::ckpt_dir`]
//! extends the store across processes. See `docs/CHECKPOINT.md`.
//!
//! # Fault isolation
//!
//! Every job — memoised `(workload, variant)` pairs in [`RunCache`] and
//! custom-configured jobs in [`parallel_map_isolated`] — runs under
//! [`std::panic::catch_unwind`] and through the simulator's `Result`
//! paths, so one panicking or watchdog-stalled job becomes a recorded gap
//! ([`RunOutcome::Failed`] / a `None` slot) instead of poisoning the
//! batch: the remaining jobs complete bit-identically to a clean run, the
//! failure lands in the journal of the work that produced it (the
//! `"failures"` array of the document, see [`doc`] and [`RunCache::doc`]),
//! and figures render partial results with explicit gaps.
//! [`RunnerOptions::inject_panic`] and [`RunnerOptions::inject_stall`]
//! (`<workload>` or `<workload>/<label>`) inject faults for testing this
//! machinery (see `docs/ROBUSTNESS.md`).

use crate::ckpt::Backend;
use psa_common::obs::store::StoreSnapshot;
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::report::{self, Json};
use psa_sim::{L1dPrefKind, ObsConfig, ObsReport, RunReport, SimConfig, SimError, System};
use psa_store::fault::FaultPlan;
use psa_traces::{catalog, WorkloadRef, WorkloadSpec};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Every documented `PSA_*` knob as one typed options value — the single
/// supported way the environment reaches the machinery. Binaries read it
/// once at entry with [`RunnerOptions::from_env`] (strict: a
/// set-but-malformed variable is a [`SimError::EnvVar`] naming the
/// variable and the value, never a silently ignored knob); tests and
/// drivers set fields directly or through the `with_*` builders. The
/// options then live in an [`Executor`], which is the only thing the
/// machinery consults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunnerOptions {
    /// `PSA_THREADS` — parallel-executor worker count (`None`: all
    /// available cores; see [`RunnerOptions::effective_threads`]).
    pub threads: Option<usize>,
    /// `PSA_WORKLOAD_LIMIT` — stride-subsample the 80-workload set.
    pub workload_limit: Option<usize>,
    /// `PSA_MIXES` — multi-core mix count (`None`: default 8).
    pub mixes: Option<usize>,
    /// `PSA_WARMUP` — warm-up instructions per core.
    pub warmup: Option<u64>,
    /// `PSA_INSTRUCTIONS` — measured instructions per core.
    pub instructions: Option<u64>,
    /// `PSA_WATCHDOG` — forward-progress watchdog threshold in cycles
    /// (0 disables).
    pub watchdog: Option<u64>,
    /// `PSA_CHECK` — run the hierarchy invariant audits at drain points.
    pub check: Option<bool>,
    /// `PSA_JSON_RUNS=1` — embed raw per-run reports in emitted JSON.
    pub json_runs: bool,
    /// `PSA_CKPT_MEM_MB` — in-memory warm-up checkpoint store cap
    /// (`None`: 256MB).
    pub ckpt_mem_mb: Option<usize>,
    /// `PSA_CKPT_DIR` — directory of the tiered on-disk checkpoint/result
    /// store (`None`: memory only).
    pub ckpt_dir: Option<PathBuf>,
    /// `PSA_CKPT_DISK_MB` — disk-tier budget of the tiered checkpoint
    /// store (`None`: 2048MB).
    pub ckpt_disk_mb: Option<usize>,
    /// `PSA_FAULT_PLAN` — deterministic IO fault plan injected under
    /// the checkpoint store (testing and CI machinery, see
    /// `docs/ROBUSTNESS.md`).
    pub fault_plan: Option<FaultPlan>,
    /// `PSA_INJECT_PANIC` — fault-inject a panic into the named job
    /// (`<workload>` or `<workload>/<label>`; testing machinery).
    pub inject_panic: Option<String>,
    /// `PSA_INJECT_STALL` — fault-inject a watchdog stall likewise.
    pub inject_stall: Option<String>,
    /// `PSA_UPDATE_GOLDEN=1` — rewrite the golden digests (test-only).
    pub update_golden: bool,
    /// `PSA_BENCH_JSON_DIR` — where `BENCH_*.json` documents go
    /// (`None`: the working directory).
    pub bench_json_dir: Option<PathBuf>,
    /// `PSA_TRACE_FILE` — the `.psatrace` recording the trace-replay
    /// figure streams (`None`: the committed sample fixture).
    pub trace_file: Option<PathBuf>,
    /// `PSA_OBS=1` plus `PSA_OBS_RING` / `PSA_OBS_SAMPLE` — the
    /// observability layer shape ([`ObsConfig`]); `None` leaves the
    /// config's own (default: disabled) setting untouched.
    pub obs: Option<ObsConfig>,
    /// `PSA_OBS_TRACE` — write the first observed run's Chrome
    /// `trace_event` JSON to this path.
    pub obs_trace: Option<PathBuf>,
}

/// The `PSA_*` subset of an environment, with the strict parsers every
/// knob kind shares.
struct Vars(HashMap<String, String>);

impl Vars {
    /// Parse `key` with `f`; unset is `None`, a value `f` rejects is an
    /// error naming the variable and the value.
    fn parse<T>(
        &self,
        key: &str,
        reason: &str,
        f: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, SimError> {
        let Some(raw) = self.0.get(key) else {
            return Ok(None);
        };
        f(raw).map(Some).ok_or_else(|| SimError::EnvVar {
            var: key.into(),
            value: raw.clone(),
            reason: reason.into(),
        })
    }

    fn positive(&self, key: &str) -> Result<Option<usize>, SimError> {
        self.parse(key, "expected a positive integer", |s| {
            s.parse().ok().filter(|&n| n > 0)
        })
    }

    fn u64(&self, key: &str) -> Result<Option<u64>, SimError> {
        self.parse(key, "expected an unsigned integer", |s| s.parse().ok())
    }

    fn positive_u32(&self, key: &str) -> Result<Option<u32>, SimError> {
        self.parse(key, "expected a positive 32-bit integer", |s| {
            s.parse().ok().filter(|&n| n > 0)
        })
    }

    fn flag(&self, key: &str) -> Result<Option<bool>, SimError> {
        self.parse(key, "expected 0 or 1", |s| match s {
            "1" => Some(true),
            "0" => Some(false),
            _ => None,
        })
    }

    /// A value taken verbatim; unset or empty is `None`.
    fn string(&self, key: &str) -> Option<String> {
        self.0.get(key).filter(|s| !s.is_empty()).cloned()
    }

    fn path(&self, key: &str) -> Option<PathBuf> {
        self.string(key).map(PathBuf::from)
    }
}

impl RunnerOptions {
    /// Read every documented `PSA_*` variable of the process environment,
    /// strictly — see [`RunnerOptions::from_vars`]. Call it once, at
    /// binary entry; nothing else in the workspace reads the environment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EnvVar`] naming the variable and the value
    /// when any set variable does not parse.
    pub fn from_env() -> Result<Self, SimError> {
        Self::from_vars(
            std::env::vars_os()
                .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?))),
        )
    }

    /// Parse the `PSA_*` knobs out of `(name, value)` pairs; other names
    /// are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EnvVar`] naming the variable and the value
    /// when any present variable does not parse.
    pub fn from_vars<K: Into<String>, V: Into<String>>(
        vars: impl IntoIterator<Item = (K, V)>,
    ) -> Result<Self, SimError> {
        let vars = Vars(
            vars.into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .filter(|(k, _)| k.starts_with("PSA_"))
                .collect(),
        );
        let obs_on = vars.flag("PSA_OBS")?;
        let obs_ring = vars.positive_u32("PSA_OBS_RING")?;
        let obs_sample = vars.positive_u32("PSA_OBS_SAMPLE")?;
        let obs = if obs_on.is_some() || obs_ring.is_some() || obs_sample.is_some() {
            let base = ObsConfig::default();
            Some(ObsConfig {
                enabled: obs_on.unwrap_or(false),
                ring_capacity: obs_ring.unwrap_or(base.ring_capacity),
                sample_every: obs_sample.unwrap_or(base.sample_every),
            })
        } else {
            None
        };
        let fault_plan = match vars.string("PSA_FAULT_PLAN") {
            None => None,
            Some(raw) => Some(FaultPlan::parse(&raw).map_err(|reason| SimError::EnvVar {
                var: "PSA_FAULT_PLAN".into(),
                value: raw,
                reason,
            })?),
        };
        Ok(Self {
            threads: vars.positive("PSA_THREADS")?,
            workload_limit: vars.positive("PSA_WORKLOAD_LIMIT")?,
            mixes: vars.positive("PSA_MIXES")?,
            warmup: vars.u64("PSA_WARMUP")?,
            instructions: vars.u64("PSA_INSTRUCTIONS")?,
            watchdog: vars.u64("PSA_WATCHDOG")?,
            check: vars.flag("PSA_CHECK")?,
            json_runs: vars.flag("PSA_JSON_RUNS")?.unwrap_or(false),
            ckpt_mem_mb: vars.positive("PSA_CKPT_MEM_MB")?,
            ckpt_dir: vars.path("PSA_CKPT_DIR"),
            ckpt_disk_mb: vars.positive("PSA_CKPT_DISK_MB")?,
            fault_plan,
            inject_panic: vars.string("PSA_INJECT_PANIC"),
            inject_stall: vars.string("PSA_INJECT_STALL"),
            update_golden: vars.flag("PSA_UPDATE_GOLDEN")?.unwrap_or(false),
            bench_json_dir: vars.path("PSA_BENCH_JSON_DIR"),
            trace_file: vars.path("PSA_TRACE_FILE"),
            obs,
            obs_trace: vars.path("PSA_OBS_TRACE"),
        })
    }

    /// [`RunnerOptions::from_env`] for binary entry points: a malformed
    /// variable prints the error (naming the variable and the value) and
    /// exits with status 2.
    pub fn from_env_or_exit() -> Self {
        Self::from_env().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Override the worker-thread count.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Override the workload subsample limit.
    pub fn with_workload_limit(mut self, n: usize) -> Self {
        self.workload_limit = Some(n);
        self
    }

    /// Override the multi-core mix count.
    pub fn with_mixes(mut self, n: usize) -> Self {
        self.mixes = Some(n);
        self
    }

    /// Override the warm-up instruction budget.
    pub fn with_warmup(mut self, n: u64) -> Self {
        self.warmup = Some(n);
        self
    }

    /// Override the measured instruction budget.
    pub fn with_instructions(mut self, n: u64) -> Self {
        self.instructions = Some(n);
        self
    }

    /// Override the watchdog threshold (0 disables).
    pub fn with_watchdog(mut self, cycles: u64) -> Self {
        self.watchdog = Some(cycles);
        self
    }

    /// Enable or disable the hierarchy invariant audits.
    pub fn with_check(mut self, check: bool) -> Self {
        self.check = Some(check);
        self
    }

    /// Override the observability shape (`ObsConfig::on()` enables it).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Override the Chrome-trace output path.
    pub fn with_obs_trace(mut self, path: PathBuf) -> Self {
        self.obs_trace = Some(path);
        self
    }

    /// Thread the run-shape subset (budgets, watchdog, audits,
    /// observability) into a [`SimConfig`]; unset fields leave the
    /// config's own values untouched.
    pub fn apply(&self, mut config: SimConfig) -> SimConfig {
        if let Some(v) = self.warmup {
            config.warmup = v;
        }
        if let Some(v) = self.instructions {
            config.instructions = v;
        }
        if let Some(v) = self.watchdog {
            config.watchdog_cycles = v;
        }
        if let Some(v) = self.check {
            config.check = v;
        }
        if let Some(obs) = self.obs {
            config.obs = obs;
        }
        config
    }

    /// The worker-thread count these options resolve to: `threads` when
    /// set, else every available core.
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// Look up a workload in the trace catalog, reporting a miss as a typed
/// error instead of an `expect` at every call site.
///
/// # Errors
///
/// Returns [`SimError::UnknownWorkload`] when `name` matches nothing.
pub fn workload(name: &str) -> Result<&'static WorkloadSpec, SimError> {
    catalog::workload(name).ok_or_else(|| SimError::UnknownWorkload { name: name.into() })
}

/// What ran on the L2C prefetcher slot (or, for [`Variant::L1d`], which
/// L1D prefetcher ran with the L2C slot empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// No prefetching anywhere (the speedup baseline of Figures 4/5/13).
    NoPrefetch,
    /// A prefetcher at one of the paper's page-size policies.
    Pref(PrefetcherKind, PageSizePolicy),
    /// Like [`Variant::Pref`] but with the §III "Magic" page-size oracle
    /// instead of PPM's MSHR bit.
    PrefMagic(PrefetcherKind, PageSizePolicy),
    /// An L1D prefetcher with no L2C prefetching (Figure 13's comparison
    /// points).
    L1d(L1dPrefKind),
}

impl Variant {
    /// Stable label used in JSON exports and summaries.
    pub fn label(&self) -> String {
        match self {
            Variant::NoPrefetch => "no-prefetch".into(),
            Variant::Pref(kind, policy) => format!("{}{}", kind.name(), policy.suffix()),
            Variant::PrefMagic(kind, policy) => {
                format!("{}-Magic{}", kind.name(), policy.suffix())
            }
            Variant::L1d(kind) => format!("L1D-{kind}"),
        }
    }

    /// Every expressible variant, in a stable order — the inverse domain
    /// of [`Variant::label`]. The kind list is [`PrefetcherKind::ALL`],
    /// the one canonical (append-only) family order, so a new family is
    /// automatically enumerable and parseable here the moment it exists.
    pub fn all() -> Vec<Variant> {
        const POLICIES: [PageSizePolicy; 4] = [
            PageSizePolicy::Original,
            PageSizePolicy::Psa,
            PageSizePolicy::Psa2m,
            PageSizePolicy::PsaSd,
        ];
        const L1D: [L1dPrefKind; 4] = [
            L1dPrefKind::None,
            L1dPrefKind::NextLine,
            L1dPrefKind::Ipcp,
            L1dPrefKind::IpcpPlusPlus,
        ];
        let mut all = vec![Variant::NoPrefetch];
        for &k in &PrefetcherKind::ALL {
            for &p in &POLICIES {
                all.push(Variant::Pref(k, p));
            }
        }
        for &k in &PrefetcherKind::ALL {
            for &p in &POLICIES {
                all.push(Variant::PrefMagic(k, p));
            }
        }
        for &k in &L1D {
            all.push(Variant::L1d(k));
        }
        all
    }

    /// Parse a [`Variant::label`] back into the variant. Guaranteed
    /// total over the label space by construction: the finite candidate
    /// set is enumerated and compared by label, so `parse(v.label())
    /// == Some(v)` for every variant (the round-trip test proves it).
    pub fn parse(label: &str) -> Option<Variant> {
        Variant::all().into_iter().find(|v| v.label() == label)
    }

    /// The [`SimConfig`] this variant actually simulates: the module
    /// spec, the Magic page-size oracle, and the L1D prefetcher are the
    /// only fields a variant touches. This is the one place the mapping
    /// lives — the executor and external drivers (golden fixtures, the
    /// bench harness) share it, so a run reproduced outside the run
    /// cache is bit-identical to the memoised one.
    pub fn build_config(&self, config: SimConfig) -> SimConfig {
        use psa_prefetchers::ModuleSpec;
        match *self {
            Variant::NoPrefetch => config.with_module_spec(ModuleSpec::none()),
            Variant::Pref(kind, policy) => config.with_module_spec(ModuleSpec::pref(kind, policy)),
            Variant::PrefMagic(kind, policy) => {
                let mut c = config.with_module_spec(ModuleSpec::pref(kind, policy));
                c.page_size_source = psa_core::ppm::PageSizeSource::Magic;
                c
            }
            Variant::L1d(kind) => {
                let mut c = config.with_module_spec(ModuleSpec::none());
                c.l1d_prefetcher = kind;
                c
            }
        }
    }
}

/// How one memoised `(workload, variant)` job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The simulation completed and produced a report (boxed: a report is
    /// an order of magnitude larger than a failure record).
    Ok(Box<RunReport>),
    /// The job panicked, stalled into the watchdog, or failed validation.
    /// The batch it ran in still completed; this row is a recorded gap.
    Failed {
        /// The workload that was running.
        workload: &'static str,
        /// The variant that was running.
        variant: Variant,
        /// Human-readable failure description (panic message, watchdog
        /// snapshot, or config error).
        reason: String,
        /// The failure was a forward-progress watchdog abort.
        watchdog: bool,
    },
}

impl RunOutcome {
    /// The report, when the job completed.
    pub fn report(&self) -> Option<&RunReport> {
        match self {
            RunOutcome::Ok(r) => Some(r),
            RunOutcome::Failed { .. } => None,
        }
    }
}

/// Lock a mutex, recovering the data from a poisoned one: every guarded
/// value here stays consistent across a panicking holder.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Add `elapsed` (in nanoseconds) to a time counter.
pub(crate) fn add_time(counter: &AtomicU64, elapsed: Duration) {
    counter.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
}

fn nanos(counter: &AtomicU64) -> Duration {
    Duration::from_nanos(counter.load(Ordering::Relaxed))
}

/// The executor's live counters (see [`ExecStats`] for their meaning).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    simulated: AtomicU64,
    memo_hits: AtomicU64,
    busy: AtomicU64,
    wall: AtomicU64,
    sim_cycles: AtomicU64,
    queue_peak: AtomicU64,
    failed: AtomicU64,
    watchdog_aborted: AtomicU64,
    batch_wall: AtomicU64,
    pub(crate) warmups_shared: AtomicU64,
    pub(crate) ckpt_hits: AtomicU64,
    pub(crate) phase_warm: AtomicU64,
    pub(crate) phase_measure: AtomicU64,
    pub(crate) phase_snapshot: AtomicU64,
    per_thread: Mutex<Vec<u64>>,
}

/// One journalled failure: workload, label (the variant label for
/// memoised jobs, the caller's [`JobSpec::label`] otherwise), reason, and
/// whether the watchdog aborted it.
type FailureRecord = (&'static str, String, String, bool);

/// The simulation context of one process (or one test): base
/// configuration, options, checkpoint/result store, statistics and
/// journals. Build it once with [`Executor::new`] and pass `&Executor`
/// to every figure and [`RunCache`]; it is `Sync`, so worker threads and
/// server jobs share it.
pub struct Executor {
    /// The base machine/run configuration: Table I plus the instruction
    /// budget, with the options' run-shape subset applied.
    pub config: SimConfig,
    /// The options this executor was built from.
    pub opts: RunnerOptions,
    /// The checkpoint/result store, opened on first use.
    store: Mutex<Option<Backend>>,
    pub(crate) stats: Counters,
    failures: Mutex<Vec<FailureRecord>>,
    runs: Mutex<Vec<(&'static str, Variant, RunReport)>>,
    trace_written: AtomicBool,
}

impl Executor {
    /// An executor over `opts`, on the laptop-scale default budget
    /// (40K warm-up + 120K measured instructions per core; the options'
    /// budgets scale it towards the paper's 250M+250M).
    pub fn new(opts: RunnerOptions) -> Executor {
        let base = SimConfig::default()
            .with_warmup(40_000)
            .with_instructions(120_000);
        Executor {
            config: opts.apply(base),
            opts,
            store: Mutex::new(None),
            stats: Counters::default(),
            failures: Mutex::new(Vec::new()),
            runs: Mutex::new(Vec::new()),
            trace_written: AtomicBool::new(false),
        }
    }

    /// The evaluated workload set, honouring the workload limit by
    /// stride-sampling so each suite stays represented.
    pub fn workloads(&self) -> Vec<&'static WorkloadSpec> {
        let all: Vec<&WorkloadSpec> = catalog::all().iter().collect();
        match self.opts.workload_limit {
            Some(limit) if limit < all.len() => {
                let stride = all.len().div_ceil(limit);
                all.into_iter().step_by(stride).collect()
            }
            _ => all,
        }
    }

    /// Number of multi-core mixes (default 8; the paper uses 100).
    pub fn mixes(&self) -> usize {
        self.opts.mixes.unwrap_or(8)
    }

    /// Run `f` on the checkpoint/result store, opening it on first use
    /// (opening the tiered store runs its recovery-on-open scan).
    pub(crate) fn with_store<R>(&self, f: impl FnOnce(&mut Backend) -> R) -> R {
        let mut store = self.store.lock().expect("unpoisoned checkpoint store");
        f(store.get_or_insert_with(|| Backend::open(&self.opts)))
    }

    /// Record a failed job in the failure journal and the counters.
    pub(crate) fn journal_failure(
        &self,
        workload: &'static str,
        label: String,
        reason: &str,
        watchdog: bool,
    ) {
        self.stats.failed.fetch_add(1, Ordering::Relaxed);
        if watchdog {
            self.stats.watchdog_aborted.fetch_add(1, Ordering::Relaxed);
        }
        lock(&self.failures).push((workload, label, reason.into(), watchdog));
    }

    /// Every failure this executor has journalled, as the documented
    /// `failures` array: `{workload, variant, reason, watchdog}` objects,
    /// deduplicated and sorted by (workload, variant label). Serialises
    /// to exactly `"failures": []` when every job completed.
    pub fn failures_json(&self) -> Json {
        render_failures(lock(&self.failures).iter().cloned())
    }

    /// Every simulation this executor ran, as a JSON array of
    /// `{workload, variant, report}` sorted by (workload, variant label).
    /// Empty unless [`RunnerOptions::json_runs`] is set.
    pub fn journal_json(&self) -> Json {
        let journal = lock(&self.runs);
        let entries: BTreeMap<(&'static str, String), &RunReport> = journal
            .iter()
            .map(|(w, v, r)| ((*w, v.label()), r))
            .collect();
        runs_array(entries.into_iter().map(|((w, label), r)| (w, label, r)))
    }

    /// A snapshot of the execution statistics.
    pub fn stats(&self) -> ExecStats {
        let c = &self.stats;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ExecStats {
            threads: self.opts.effective_threads(),
            simulated: load(&c.simulated),
            memo_hits: load(&c.memo_hits),
            busy: nanos(&c.busy),
            wall: nanos(&c.wall),
            sim_cycles: load(&c.sim_cycles),
            queue_peak: load(&c.queue_peak),
            per_thread: lock(&c.per_thread).clone(),
            failed: load(&c.failed),
            watchdog_aborted: load(&c.watchdog_aborted),
            batch_wall: nanos(&c.batch_wall),
            warmups_shared: load(&c.warmups_shared),
            ckpt_hits: load(&c.ckpt_hits),
            phase_warm: nanos(&c.phase_warm),
            phase_measure: nanos(&c.phase_measure),
            phase_snapshot: nanos(&c.phase_snapshot),
            store: psa_common::obs::store::global().snapshot(),
        }
    }

    /// Write the first observed run's Chrome `trace_event` JSON to
    /// [`RunnerOptions::obs_trace`]. One trace per executor: the first
    /// measured run to finish wins, which is deterministic with one
    /// thread and representative otherwise. An unwritable path is a
    /// warning, not a failed run.
    fn write_trace(&self, obs: &ObsReport) {
        let Some(path) = &self.opts.obs_trace else {
            return;
        };
        if !self.trace_written.swap(true, Ordering::Relaxed) {
            if let Err(e) = std::fs::write(path, obs.to_chrome_trace()) {
                eprintln!("PSA_OBS_TRACE: cannot write {}: {e}", path.display());
            }
        }
    }
}

/// Deduplicate (last record wins) and sort failure records into the
/// documented `failures` array shape.
fn render_failures(records: impl Iterator<Item = FailureRecord>) -> Json {
    let entries: BTreeMap<(&'static str, String), (String, bool)> = records
        .map(|(w, label, reason, watchdog)| ((w, label), (reason, watchdog)))
        .collect();
    Json::Arr(
        entries
            .into_iter()
            .map(|((w, label), (reason, watchdog))| {
                Json::obj([
                    ("workload", Json::str(w)),
                    ("variant", Json::str(&label)),
                    ("reason", Json::str(&reason)),
                    ("watchdog", Json::Bool(watchdog)),
                ])
            })
            .collect(),
    )
}

/// Sorted `(workload, variant label, report)` entries as the JSON array
/// of `{workload, variant, report}` objects.
fn runs_array<'r>(entries: impl Iterator<Item = (&'static str, String, &'r RunReport)>) -> Json {
    Json::Arr(
        entries
            .map(|(w, label, r)| {
                Json::obj([
                    ("workload", Json::str(w)),
                    ("variant", Json::str(label)),
                    ("report", report::run_report(r)),
                ])
            })
            .collect(),
    )
}

/// Simulate one `(workload, variant)` pair. Pure: the run owns its
/// [`System`] and seeded RNG, so the result depends only on the
/// arguments — this is what makes parallel execution bit-identical to
/// serial. The warm-up goes through the checkpoint store
/// ([`crate::ckpt::warm_via_checkpoint`]), which is transparent: a
/// restored warm state is bit-identical to a freshly simulated one.
fn try_simulate(
    exec: &Executor,
    config: SimConfig,
    workload: WorkloadRef,
    variant: Variant,
) -> Result<RunReport, SimError> {
    let build_config = variant.build_config(config);
    let build = move || System::try_from_refs(build_config, &[workload]);
    let label = variant.label();
    // Finished-report memoisation: with the tiered disk store available
    // (and observability off), a report computed by an earlier process
    // at the same (config, workload, variant) key is served bit-identical
    // from the store instead of re-simulated. The key hashes the
    // pre-variant config plus the label, which encodes every config
    // mutation a variant applies.
    let memo_key = crate::ckpt::memo_enabled(exec, &config)
        .then(|| crate::ckpt::report_key(&config, workload.name(), &label));
    if let Some(key) = memo_key {
        if let Some(report) = crate::ckpt::report_from_store(exec, key, workload.name()) {
            return Ok(report);
        }
    }
    let sys = crate::ckpt::warm_via_checkpoint(exec, &build, &label)?;
    let t0 = Instant::now();
    let result = sys.try_run_observed();
    add_time(&exec.stats.phase_measure, t0.elapsed());
    let (report, obs) = result?;
    if let Some(obs) = obs {
        exec.write_trace(&obs);
    }
    if let Some(key) = memo_key {
        crate::ckpt::report_to_store(exec, key, &report);
    }
    Ok(report)
}

/// Whether the fault-injection target `target` names this job: either
/// the workload name or `<workload>/<label>`.
fn injected(target: &Option<String>, workload: &str, label: &str) -> bool {
    target
        .as_deref()
        .is_some_and(|t| t == workload || t == format!("{workload}/{label}"))
}

/// Extract a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Run one job body in isolation: the executor's fault injection applies
/// (a stall through [`JobEnv::config`], a panic inside the guard), panics
/// are caught, and any failure becomes `Err((reason, watchdog))`. The
/// fault never escapes to the batch.
fn isolated<R>(
    exec: &Executor,
    workload: &str,
    label: &str,
    f: impl FnOnce(&JobEnv) -> Result<R, SimError>,
) -> Result<R, (String, bool)> {
    let env = JobEnv {
        stall: injected(&exec.opts.inject_stall, workload, label),
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        if injected(&exec.opts.inject_panic, workload, label) {
            panic!("injected panic (PSA_INJECT_PANIC)");
        }
        f(&env)
    }));
    match result {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => {
            let watchdog = matches!(e, SimError::WatchdogStall(_));
            Err((e.to_string(), watchdog))
        }
        Err(payload) => Err((format!("panic: {}", panic_message(payload)), false)),
    }
}

/// Run one memoised job in isolation; a fault becomes a
/// [`RunOutcome::Failed`] row.
fn run_job(
    exec: &Executor,
    config: SimConfig,
    workload: WorkloadRef,
    variant: Variant,
) -> RunOutcome {
    match isolated(exec, workload.name(), &variant.label(), |env| {
        try_simulate(exec, env.config(config), workload, variant)
    }) {
        Ok(report) => RunOutcome::Ok(Box::new(report)),
        Err((reason, watchdog)) => RunOutcome::Failed {
            workload: workload.name(),
            variant,
            reason,
            watchdog,
        },
    }
}

/// A snapshot of an [`Executor`]'s statistics ([`Executor::stats`]).
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Worker-thread count of the executor's parallel pool.
    pub threads: usize,
    /// Simulations actually executed.
    pub simulated: u64,
    /// `run()`/`speedup()` calls served from a run-cache memo instead.
    pub memo_hits: u64,
    /// Summed per-run wall-clock (CPU-side work across all threads).
    pub busy: Duration,
    /// Wall-clock spent inside the parallel pool (elapsed time).
    pub wall: Duration,
    /// Simulated cycles across executed memoised runs.
    pub sim_cycles: u64,
    /// Deepest work queue handed to the pool at once.
    pub queue_peak: u64,
    /// Jobs executed by each worker thread, summed over every pool run.
    pub per_thread: Vec<u64>,
    /// Jobs that ended in a failure (panic, watchdog stall or validation
    /// error) instead of a result.
    pub failed: u64,
    /// The subset of `failed` aborted by the forward-progress watchdog.
    pub watchdog_aborted: u64,
    /// Wall-clock spent inside [`RunCache::run_batch`] specifically (a
    /// subset of `wall`): the number the checkpoint-determinism CI gate
    /// compares between cold and warm passes.
    pub batch_wall: Duration,
    /// Warm-ups skipped by restoring a checkpoint from the store's memory
    /// tier.
    pub warmups_shared: u64,
    /// Jobs served from the on-disk checkpoint/result store: warm-ups
    /// restored from disk plus finished reports and documents memoised by
    /// an earlier process.
    pub ckpt_hits: u64,
    /// Worker time spent simulating warm-ups. Summed across threads, so
    /// the three phases can exceed `batch_wall`.
    pub phase_warm: Duration,
    /// Worker time spent in measured runs.
    pub phase_measure: Duration,
    /// Worker time spent on checkpoint/snapshot I/O (encode, decode,
    /// restore, store traffic).
    pub phase_snapshot: Duration,
    /// Storage-tier counters of the tiered checkpoint/result store
    /// (hits, misses, retries, quarantined entries, recovered bytes,
    /// write failures, injected faults), from the `psa-store` counters
    /// in `psa_common::obs::store`.
    pub store: StoreSnapshot,
}

impl ExecStats {
    /// Simulated cycles per wall-clock second; 0 when nothing ran.
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.sim_cycles as f64 / secs
        }
    }

    /// One-line human summary for experiment banners.
    pub fn summary(&self) -> String {
        let per_thread = if self.per_thread.is_empty() {
            String::new()
        } else {
            format!(", per-thread runs {:?}", self.per_thread)
        };
        let failures = if self.failed == 0 {
            String::new()
        } else {
            format!(
                ", {} FAILED ({} watchdog)",
                self.failed, self.watchdog_aborted
            )
        };
        let warm = if self.warmups_shared == 0 && self.ckpt_hits == 0 {
            String::new()
        } else {
            format!(
                ", {} warm-ups shared ({} from disk)",
                self.warmups_shared + self.ckpt_hits,
                self.ckpt_hits
            )
        };
        format!(
            "{} simulated, {} memo hits, {:.2}s wall / {:.2}s busy, {:.1} Mcycles/s, queue peak {}{}{}{}",
            self.simulated,
            self.memo_hits,
            self.wall.as_secs_f64(),
            self.busy.as_secs_f64(),
            self.cycles_per_sec() / 1e6,
            self.queue_peak,
            per_thread,
            warm,
            failures,
        )
    }

    /// The stats as a JSON object (the `"executor"` section of emitted
    /// documents).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("threads", Json::uint(self.threads as u64)),
            ("simulated_runs", Json::uint(self.simulated)),
            ("memo_hits", Json::uint(self.memo_hits)),
            ("wall_seconds", Json::Num(self.wall.as_secs_f64())),
            ("busy_seconds", Json::Num(self.busy.as_secs_f64())),
            ("sim_cycles", Json::uint(self.sim_cycles)),
            ("sim_cycles_per_sec", Json::Num(self.cycles_per_sec())),
            ("queue_peak", Json::uint(self.queue_peak)),
            (
                "per_thread_runs",
                Json::Arr(self.per_thread.iter().map(|&n| Json::uint(n)).collect()),
            ),
            ("failed_runs", Json::uint(self.failed)),
            ("watchdog_aborted", Json::uint(self.watchdog_aborted)),
            (
                "batch_wall_seconds",
                Json::Num(self.batch_wall.as_secs_f64()),
            ),
            ("warmups_shared", Json::uint(self.warmups_shared)),
            ("ckpt_hits", Json::uint(self.ckpt_hits)),
            (
                "phases",
                Json::obj([
                    ("warmup_seconds", Json::Num(self.phase_warm.as_secs_f64())),
                    (
                        "measure_seconds",
                        Json::Num(self.phase_measure.as_secs_f64()),
                    ),
                    (
                        "snapshot_io_seconds",
                        Json::Num(self.phase_snapshot.as_secs_f64()),
                    ),
                ]),
            ),
            (
                "store",
                Json::obj([
                    ("hits", Json::uint(self.store.hits)),
                    ("misses", Json::uint(self.store.misses)),
                    ("retries", Json::uint(self.store.retries)),
                    ("quarantined", Json::uint(self.store.quarantined)),
                    ("recovered_bytes", Json::uint(self.store.recovered_bytes)),
                    ("write_failures", Json::uint(self.store.write_failures)),
                    ("injected_faults", Json::uint(self.store.injected_faults)),
                ]),
            ),
        ])
    }
}

/// Map `f` over `items` on the executor's worker pool (a work queue over
/// `std::thread::scope`; inline when one worker suffices), preserving
/// input order — so the output is identical to a serial
/// `items.iter().map(f)` whenever `f` is pure. Records the pool's wall,
/// busy, queue-peak and per-thread counters; every item counts as one
/// executed simulation.
fn pool_map<T: Sync, R: Send>(exec: &Executor, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = exec.opts.effective_threads().min(items.len()).max(1);
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let busy = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || {
        let mut ran = 0u64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break ran };
            let t0 = Instant::now();
            let r = f(item);
            add_time(&busy, t0.elapsed());
            *lock(&slots[i]) = Some(r);
            ran += 1;
        }
    };
    let per_thread: Vec<u64> = if workers == 1 {
        vec![work()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        })
    };
    let c = &exec.stats;
    c.simulated.fetch_add(items.len() as u64, Ordering::Relaxed);
    c.queue_peak
        .fetch_max(items.len() as u64, Ordering::Relaxed);
    c.busy.fetch_add(busy.into_inner(), Ordering::Relaxed);
    add_time(&c.wall, started.elapsed());
    let mut counts = lock(&c.per_thread);
    if counts.len() < per_thread.len() {
        counts.resize(per_thread.len(), 0);
    }
    for (total, ran) in counts.iter_mut().zip(per_thread) {
        *total += ran;
    }
    drop(counts);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every slot is filled")
        })
        .collect()
}

/// Identity of one custom-configured simulation job — the jobs that do
/// not fit the `(workload, variant)` memo key space (custom Set-Dueling
/// shapes, doubled-storage modules, multi-core mixes). The label joins
/// the workload name in fault-injection matching (`<workload>/<label>`)
/// and in the `failures` journal.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The workload driving the run (the first core's, for mixes).
    pub workload: &'static str,
    /// What machine ran, uniquely within the figure (e.g.
    /// `fig11/SPP/ISO Storage`).
    pub label: String,
}

/// The fault injection resolved for one isolated job. The job body must
/// pass its run configuration through [`JobEnv::config`] so an injected
/// stall can take effect.
#[derive(Debug, Clone, Copy)]
pub struct JobEnv {
    stall: bool,
}

impl JobEnv {
    /// `config` with the injected environment applied: a stall injection
    /// drops the watchdog threshold to 1 cycle, so the run aborts via
    /// the watchdog almost immediately (nothing retires before the ROB
    /// fills; nothing drains before the first fill matures).
    pub fn config(&self, config: SimConfig) -> SimConfig {
        let mut config = config;
        if self.stall {
            config.watchdog_cycles = 1;
        }
        config
    }
}

/// Map `f` over `items` on the executor's worker pool with per-job fault
/// isolation, for simulation jobs outside the memoised `(workload,
/// variant)` space. Results keep input order, so the output matches a
/// serial map whenever `f` is pure.
///
/// Each job is described by `spec` (workload + unique label) and executed
/// by `f` under [`std::panic::catch_unwind`]; `f` reports simulator
/// faults as [`SimError`] values and must thread its `SimConfig` through
/// [`JobEnv::config`]. A failed job yields `None` in its slot — the
/// figure renders the survivors with an explicit gap — and lands in the
/// executor's failure journal ([`Executor::failures_json`]), exactly
/// like a failed memoised job. [`RunnerOptions::inject_panic`] /
/// [`RunnerOptions::inject_stall`] match `<workload>` or
/// `<workload>/<label>`.
pub fn parallel_map_isolated<T, R, S, F>(
    exec: &Executor,
    items: &[T],
    spec: S,
    f: F,
) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    S: Fn(&T) -> JobSpec + Sync,
    F: Fn(&T, &JobEnv) -> Result<R, SimError> + Sync,
{
    pool_map(exec, items, |item| {
        let s = spec(item);
        isolated(exec, s.workload, &s.label, |env| f(item, env))
            .map_err(|(reason, watchdog)| {
                exec.journal_failure(s.workload, s.label, &reason, watchdog)
            })
            .ok()
    })
}

/// A memoising single-core run cache over one [`Executor`] and one run
/// configuration: each `(workload, variant)` simulates once per cache, no
/// matter how many reductions consume it. Failed jobs are memoised too —
/// a fault is as deterministic as a report, and retrying it would just
/// fail again. Every method takes its workload as anything convertible
/// into a [`WorkloadRef`], so synthetic specs and trace replays mix
/// freely.
pub struct RunCache<'e> {
    exec: &'e Executor,
    config: SimConfig,
    runs: HashMap<(&'static str, Variant), RunOutcome>,
}

impl<'e> RunCache<'e> {
    /// A fresh cache running every job on `exec` under `config` (the
    /// memo keys on `(workload, variant)` alone, so the configuration is
    /// bound here, once).
    pub fn new(exec: &'e Executor, config: SimConfig) -> Self {
        RunCache {
            exec,
            config,
            runs: HashMap::new(),
        }
    }

    /// Memoise `outcome`, journalling it in the executor (run journal or
    /// failure journal). Returns the simulated-cycle contribution (0 for
    /// failures).
    fn admit(&mut self, name: &'static str, v: Variant, outcome: RunOutcome) -> u64 {
        let cycles = match &outcome {
            RunOutcome::Ok(report) => {
                if self.exec.opts.json_runs {
                    lock(&self.exec.runs).push((name, v, (**report).clone()));
                }
                report.cycles
            }
            RunOutcome::Failed {
                reason, watchdog, ..
            } => {
                self.exec
                    .journal_failure(name, v.label(), reason, *watchdog);
                0
            }
        };
        self.runs.insert((name, v), outcome);
        cycles
    }

    /// Simulate every not-yet-cached `(workload, variant)` pair of `jobs`
    /// on the executor's worker pool, then serve all of them from the
    /// memo. Results are bit-identical to running the same jobs serially,
    /// in any order: each run is independent and owns its seeded RNG. A
    /// panicking or watchdog-stalled job becomes a [`RunOutcome::Failed`]
    /// entry; the rest of the batch completes unperturbed. Returns the
    /// number of jobs executed.
    pub fn run_batch<W: Into<WorkloadRef> + Copy>(&mut self, jobs: &[(W, Variant)]) -> usize {
        self.run_batch_with(jobs, &|_, _| {})
    }

    /// [`RunCache::run_batch`] with a progress hook: `progress(done,
    /// total)` fires after each job of this batch finishes (from worker
    /// threads, concurrently, on the parallel path — `done` values may
    /// arrive out of order, but each value 1..=total fires exactly once
    /// and `total` is the batch's not-yet-cached job count). The hook
    /// must not panic; it runs inside the worker loop.
    pub fn run_batch_with<W: Into<WorkloadRef> + Copy>(
        &mut self,
        jobs: &[(W, Variant)],
        progress: &(dyn Fn(u64, u64) + Sync),
    ) -> usize {
        let mut queued = HashSet::new();
        let todo: Vec<(WorkloadRef, Variant)> = jobs
            .iter()
            .map(|&(w, v)| (w.into(), v))
            .filter(|&(w, v)| {
                !self.runs.contains_key(&(w.name(), v)) && queued.insert((w.name(), v))
            })
            .collect();
        if todo.is_empty() {
            return 0;
        }
        let (exec, config) = (self.exec, self.config);
        let total = todo.len() as u64;
        let finished = AtomicU64::new(0);
        let started = Instant::now();
        let outcomes = pool_map(exec, &todo, |&(w, v)| {
            let outcome = run_job(exec, config, w, v);
            progress(finished.fetch_add(1, Ordering::Relaxed) + 1, total);
            outcome
        });
        let mut cycles = 0;
        for (&(w, v), outcome) in todo.iter().zip(outcomes) {
            cycles += self.admit(w.name(), v, outcome);
        }
        exec.stats.sim_cycles.fetch_add(cycles, Ordering::Relaxed);
        add_time(&exec.stats.batch_wall, started.elapsed());
        todo.len()
    }

    /// Simulate (or recall) `workload` under `variant`, keeping the fault
    /// as a value.
    pub fn outcome(&mut self, workload: impl Into<WorkloadRef>, variant: Variant) -> &RunOutcome {
        let workload = workload.into();
        let key = (workload.name(), variant);
        if self.runs.contains_key(&key) {
            self.exec.stats.memo_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.run_batch(&[(workload, variant)]);
        }
        &self.runs[&key]
    }

    /// Whether `(workload, variant)` is cached with a completed report —
    /// figures use this to render explicit gaps for failed jobs.
    pub fn completed(&self, workload: impl Into<WorkloadRef>, variant: Variant) -> bool {
        let key = (workload.into().name(), variant);
        matches!(self.runs.get(&key), Some(RunOutcome::Ok(_)))
    }

    /// The subset of `workloads` for which every listed variant completed
    /// (after a `run_batch` of the cross product): the rows a figure can
    /// still render. A shrunken result is the "partial results with
    /// explicit gaps" contract — the failures themselves are in
    /// [`RunCache::failures_json`].
    pub fn surviving<W: Into<WorkloadRef> + Copy>(
        &self,
        workloads: &[W],
        variants: &[Variant],
    ) -> Vec<W> {
        workloads
            .iter()
            .filter(|&&w| variants.iter().all(|&v| self.completed(w, v)))
            .copied()
            .collect()
    }

    /// Simulate (or recall) `workload` under `variant`.
    ///
    /// # Panics
    ///
    /// Panics (with the recorded reason) when the job failed — callers
    /// that tolerate gaps use [`RunCache::outcome`] / [`RunCache::completed`].
    pub fn run(&mut self, workload: impl Into<WorkloadRef>, variant: Variant) -> &RunReport {
        match self.outcome(workload, variant) {
            RunOutcome::Ok(report) => report,
            RunOutcome::Failed {
                workload,
                variant,
                reason,
                ..
            } => panic!("run {}/{} failed: {reason}", workload, variant.label()),
        }
    }

    /// IPC ratio of `num` over `den` for one workload.
    pub fn speedup(&mut self, workload: impl Into<WorkloadRef>, num: Variant, den: Variant) -> f64 {
        let workload = workload.into();
        let n = self.run(workload, num).ipc();
        let d = self.run(workload, den).ipc();
        if d <= 0.0 {
            1.0
        } else {
            n / d
        }
    }

    /// Every cached completed run as a JSON array of
    /// `{workload, variant, report}`, sorted by (workload, variant label)
    /// for stable output. Failed jobs are in [`RunCache::failures_json`].
    pub fn runs_json(&self) -> Json {
        let mut entries: Vec<(&'static str, String, &RunReport)> = self
            .runs
            .iter()
            .filter_map(|(&(w, v), outcome)| outcome.report().map(|r| (w, v.label(), r)))
            .collect();
        entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        runs_array(entries.into_iter())
    }

    /// This cache's own failed jobs, in the documented `failures` shape.
    pub fn failures_json(&self) -> Json {
        render_failures(self.runs.values().filter_map(|outcome| match outcome {
            RunOutcome::Failed {
                workload,
                variant,
                reason,
                watchdog,
            } => Some((*workload, variant.label(), reason.clone(), *watchdog)),
            RunOutcome::Ok(_) => None,
        }))
    }

    /// The standard document (see [`doc`]) for work done by this cache
    /// alone: its configuration, and its own failures — what a server
    /// job serves.
    pub fn doc(&self, figure: &str, title: &str, rows: Json) -> Json {
        render_doc(
            self.exec,
            figure,
            title,
            &self.config,
            rows,
            self.failures_json(),
        )
    }
}

/// The current `BENCH_*.json` document schema version (see
/// docs/METRICS.md for the version history).
pub const BENCH_SCHEMA_VERSION: u64 = 4;

/// Assemble the standard `BENCH_<figure>.json` document: schema version,
/// figure id and title, the executor's base configuration, the
/// figure-specific `rows`, every failure the executor journalled (empty
/// on a clean run), and the executor statistics. With
/// [`RunnerOptions::json_runs`] the raw per-run reports executed so far
/// ride along under `"runs"` (see [`Executor::journal_json`]).
pub fn doc(figure: &str, title: &str, exec: &Executor, rows: Json) -> Json {
    render_doc(
        exec,
        figure,
        title,
        &exec.config,
        rows,
        exec.failures_json(),
    )
}

fn render_doc(
    exec: &Executor,
    figure: &str,
    title: &str,
    config: &SimConfig,
    rows: Json,
    failures: Json,
) -> Json {
    let mut doc = Json::obj([
        ("schema_version", Json::uint(BENCH_SCHEMA_VERSION)),
        ("figure", Json::str(figure)),
        ("title", Json::str(title)),
        ("config", report::sim_config(config)),
        ("rows", rows),
        ("failures", failures),
        ("executor", exec.stats().to_json()),
    ]);
    if exec.opts.json_runs {
        doc.push("runs", exec.journal_json());
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An executor on the tests' quick budget over `opts`.
    fn quick(opts: RunnerOptions) -> Executor {
        Executor::new(opts.with_warmup(1_000).with_instructions(4_000))
    }

    fn lbm() -> &'static WorkloadSpec {
        catalog::workload("lbm").unwrap()
    }

    #[test]
    fn cache_memoises_and_counts() {
        let exec = quick(RunnerOptions::default());
        let mut cache = RunCache::new(&exec, exec.config);
        let a = cache.run(lbm(), Variant::NoPrefetch).ipc();
        let b = cache.run(lbm(), Variant::NoPrefetch).ipc();
        assert_eq!(a, b);
        assert_eq!(cache.runs.len(), 1);
        // The second run() must be a memo hit, not a re-simulation.
        assert_eq!(exec.stats().simulated, 1);
        assert_eq!(exec.stats().memo_hits, 1);
    }

    #[test]
    fn batch_skips_cached_and_duplicate_jobs() {
        let exec = quick(RunnerOptions::default());
        let mut cache = RunCache::new(&exec, exec.config);
        let w = lbm();
        cache.run(w, Variant::NoPrefetch);
        let jobs = vec![
            (w, Variant::NoPrefetch), // already cached
            (w, Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa)),
            (w, Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa)), // duplicate
        ];
        assert_eq!(cache.run_batch(&jobs), 1);
        assert_eq!(exec.stats().simulated, 2);
    }

    #[test]
    fn parallel_matches_serial() {
        let workloads: Vec<&'static WorkloadSpec> = ["lbm", "milc", "soplex"]
            .iter()
            .map(|n| catalog::workload(n).unwrap())
            .collect();
        let variants = [
            Variant::NoPrefetch,
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa),
            Variant::L1d(L1dPrefKind::NextLine),
        ];
        let jobs: Vec<(&'static WorkloadSpec, Variant)> = workloads
            .iter()
            .flat_map(|&w| variants.iter().map(move |&v| (w, v)))
            .collect();

        // Serial reference, then a work queue over 3 workers.
        let serial_exec = quick(RunnerOptions::default().with_threads(1));
        let mut serial = RunCache::new(&serial_exec, serial_exec.config);
        serial.run_batch(&jobs);
        let parallel_exec = quick(RunnerOptions::default().with_threads(3));
        let mut parallel = RunCache::new(&parallel_exec, parallel_exec.config);
        parallel.run_batch(&jobs);
        assert_eq!(parallel_exec.stats().per_thread.len(), 3);

        for &(w, v) in &jobs {
            let a = serial.run(w, v).clone();
            let b = parallel.run(w, v).clone();
            assert_eq!(
                a,
                b,
                "{}/{} diverged between serial and parallel",
                w.name,
                v.label()
            );
        }
    }

    #[test]
    fn parallel_map_isolated_preserves_order() {
        let exec = quick(RunnerOptions::default().with_threads(4));
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map_isolated(
            &exec,
            &items,
            |_| JobSpec {
                workload: "lbm",
                label: "square".into(),
            },
            |&x, _| Ok(x * x),
        );
        let want: Vec<Option<u64>> = items.iter().map(|&x| Some(x * x)).collect();
        assert_eq!(out, want);
        assert_eq!(exec.stats().simulated, 37);
    }

    #[test]
    fn speedup_is_ratio() {
        let exec = quick(RunnerOptions::default());
        let mut cache = RunCache::new(&exec, exec.config);
        let s = cache.speedup(
            lbm(),
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa),
            Variant::NoPrefetch,
        );
        assert!(s > 0.1 && s < 10.0, "speedup {s}");
    }

    #[test]
    fn workload_selection_honours_limit() {
        assert_eq!(
            Executor::new(RunnerOptions::default()).workloads().len(),
            80
        );
        let some = Executor::new(RunnerOptions::default().with_workload_limit(10)).workloads();
        assert!(some.len() <= 10 && some.len() >= 8, "got {}", some.len());
    }

    #[test]
    fn runs_json_and_doc_are_well_formed() {
        let exec = quick(RunnerOptions::default());
        let mut cache = RunCache::new(&exec, exec.config);
        cache.run(
            lbm(),
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::PsaSd),
        );
        let runs = cache.runs_json();
        let entry = &runs.as_arr().unwrap()[0];
        assert_eq!(entry.get("workload").unwrap().as_str(), Some("lbm"));
        assert_eq!(entry.get("variant").unwrap().as_str(), Some("SPP-PSA-SD"));
        assert!(entry.get("report").unwrap().get("ipc").is_some());

        let doc = doc("figXX", "smoke", &exec, Json::Arr(vec![]));
        for field in [
            "schema_version",
            "figure",
            "title",
            "config",
            "rows",
            "failures",
            "executor",
        ] {
            assert!(doc.get(field).is_some(), "missing {field}");
        }
        assert_eq!(doc.get("schema_version").unwrap(), &Json::uint(4));
        assert_eq!(doc.get("failures").unwrap(), &Json::Arr(vec![]));
        // Schema v3: the executor section carries the phase profile.
        let phases = doc.get("executor").unwrap().get("phases").unwrap();
        for field in ["warmup_seconds", "measure_seconds", "snapshot_io_seconds"] {
            assert!(phases.get(field).is_some(), "missing phases.{field}");
        }
        // Schema v4: the executor section carries the store counters.
        let store = doc.get("executor").unwrap().get("store").unwrap();
        for field in [
            "hits",
            "misses",
            "retries",
            "quarantined",
            "recovered_bytes",
            "write_failures",
            "injected_faults",
        ] {
            assert!(store.get(field).is_some(), "missing store.{field}");
        }
        // Round-trips through the hand-rolled parser.
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    #[test]
    fn json_runs_embeds_the_executor_run_journal() {
        let opts = RunnerOptions {
            json_runs: true,
            ..RunnerOptions::default()
        };
        let exec = quick(opts);
        RunCache::new(&exec, exec.config).run(lbm(), Variant::NoPrefetch);
        let doc = doc("figXX", "smoke", &exec, Json::Arr(vec![]));
        let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].get("variant").unwrap().as_str(),
            Some("no-prefetch")
        );
    }

    #[test]
    fn phase_profile_accounts_for_run_time() {
        let exec = quick(RunnerOptions::default());
        RunCache::new(&exec, exec.config)
            .run(catalog::workload("astar").unwrap(), Variant::NoPrefetch);
        let stats = exec.stats();
        // This executor just simulated a warm-up and a measured run, so
        // both phases must have accumulated wall time.
        assert!(stats.phase_warm > Duration::ZERO, "warm phase untimed");
        assert!(
            stats.phase_measure > Duration::ZERO,
            "measure phase untimed"
        );
    }

    #[test]
    fn strict_env_parsing_reports_the_offender() {
        // Every knob kind is strict: positive counts, flags, u64 budgets,
        // the u32 observability shape, store budgets and the fault plan.
        for (var, value) in [
            ("PSA_THREADS", "banana"),
            ("PSA_WORKLOAD_LIMIT", "0"),
            ("PSA_MIXES", "-3"),
            ("PSA_OBS", "yes"),
            ("PSA_CHECK", "true"),
            ("PSA_WARMUP", "10k"),
            ("PSA_OBS_RING", "0"),
            ("PSA_OBS_SAMPLE", "-1"),
            ("PSA_CKPT_DISK_MB", "0"),
            ("PSA_FAULT_PLAN", "torn=2.0"),
        ] {
            match RunnerOptions::from_vars([(var, value)]).unwrap_err() {
                SimError::EnvVar {
                    var: v, value: raw, ..
                } => assert_eq!((v.as_str(), raw.as_str()), (var, value)),
                other => panic!("expected EnvVar, got {other}"),
            }
        }
    }

    #[test]
    fn runner_options_read_the_whole_environment() {
        let opts = RunnerOptions::from_vars([
            ("PSA_THREADS", "3"),
            ("PSA_WARMUP", "500"),
            ("PSA_INSTRUCTIONS", "2000"),
            ("PSA_WATCHDOG", "0"),
            ("PSA_CHECK", "1"),
            ("PSA_JSON_RUNS", "1"),
            ("PSA_CKPT_MEM_MB", "64"),
            ("PSA_CKPT_DIR", "/tmp/ckpt"),
            ("PSA_CKPT_DISK_MB", "512"),
            ("PSA_FAULT_PLAN", "seed=3,eio=0.1"),
            ("PSA_INJECT_PANIC", "lbm"),
            ("PSA_TRACE_FILE", "/tmp/x.psatrace"),
            ("PSA_OBS", "1"),
            ("PSA_OBS_RING", "128"),
            ("PSA_OBS_SAMPLE", "4"),
            ("PSA_OBS_TRACE", "/tmp/trace.json"),
            ("HOME", "/ignored"),
        ])
        .expect("every variable parses");
        assert_eq!(opts.threads, Some(3));
        assert_eq!(opts.effective_threads(), 3);
        assert_eq!((opts.warmup, opts.instructions), (Some(500), Some(2000)));
        assert_eq!(opts.watchdog, Some(0));
        assert_eq!(opts.check, Some(true));
        assert!(opts.json_runs);
        assert_eq!(opts.ckpt_mem_mb, Some(64));
        assert_eq!(opts.ckpt_dir, Some(PathBuf::from("/tmp/ckpt")));
        assert_eq!(opts.ckpt_disk_mb, Some(512));
        assert_eq!(
            opts.fault_plan,
            Some(FaultPlan::parse("seed=3,eio=0.1").unwrap())
        );
        assert_eq!(opts.inject_panic.as_deref(), Some("lbm"));
        assert_eq!(opts.trace_file, Some(PathBuf::from("/tmp/x.psatrace")));
        let obs = opts.obs.expect("PSA_OBS* sets the obs shape");
        assert!(obs.enabled);
        assert_eq!((obs.ring_capacity, obs.sample_every), (128, 4));
        assert_eq!(opts.obs_trace, Some(PathBuf::from("/tmp/trace.json")));

        // apply() threads the run-shape subset into a SimConfig…
        let cfg = opts.apply(SimConfig::default());
        assert_eq!((cfg.warmup, cfg.instructions), (500, 2000));
        assert_eq!(cfg.watchdog_cycles, 0);
        assert!(cfg.check);
        assert_eq!(cfg.obs, obs);
        // …while an empty options value leaves the config untouched.
        let untouched = RunnerOptions::default().apply(cfg);
        assert_eq!(untouched.warmup, cfg.warmup);
        assert_eq!(untouched.obs, cfg.obs);
        assert!(untouched.check);
        // An empty environment is the default options value.
        let none: [(&str, &str); 0] = [];
        assert_eq!(
            RunnerOptions::from_vars(none).unwrap(),
            RunnerOptions::default()
        );
    }

    #[test]
    fn programmatic_options_override_the_environment() {
        let opts = RunnerOptions::from_vars([("PSA_WARMUP", "111"), ("PSA_OBS", "1")])
            .expect("clean parse")
            .with_warmup(222)
            .with_obs(ObsConfig::default());
        let cfg = opts.apply(SimConfig::default());
        assert_eq!(cfg.warmup, 222);
        assert!(!cfg.obs.enabled, "builder beat the PSA_OBS=1 in the env");
    }

    #[test]
    fn unknown_workload_is_a_value_not_a_panic() {
        assert!(matches!(
            workload("nope"),
            Err(SimError::UnknownWorkload { .. })
        ));
        assert_eq!(workload("lbm").unwrap().name, "lbm");
    }

    #[test]
    fn injected_panic_is_isolated_and_memoised() {
        let milc = catalog::workload("milc").unwrap();
        // Clean reference for the job that survives the faulty batch.
        let clean_exec = quick(RunnerOptions::default());
        let reference = RunCache::new(&clean_exec, clean_exec.config)
            .run(milc, Variant::NoPrefetch)
            .clone();

        let opts = RunnerOptions {
            inject_panic: Some("lbm/no-prefetch".into()),
            ..RunnerOptions::default()
        };
        let exec = quick(opts);
        let mut cache = RunCache::new(&exec, exec.config);
        cache.run_batch(&[(lbm(), Variant::NoPrefetch), (milc, Variant::NoPrefetch)]);
        // The panicking job became a Failed value; the batch completed and
        // the surviving run is bit-identical to the clean reference.
        match cache.outcome(lbm(), Variant::NoPrefetch) {
            RunOutcome::Failed {
                reason, watchdog, ..
            } => {
                assert!(reason.contains("injected panic"), "{reason}");
                assert!(!watchdog);
            }
            RunOutcome::Ok(_) => panic!("injected panic was not recorded"),
        }
        assert_eq!(cache.run(milc, Variant::NoPrefetch), &reference);
        assert_eq!(exec.stats().failed, 1);
        assert_eq!(
            cache.surviving(&[lbm(), milc], &[Variant::NoPrefetch]),
            vec![milc]
        );
        // Faults are deterministic, so the failure is memoised: asking
        // again must not re-simulate.
        let hits = exec.stats().memo_hits;
        assert!(!cache.completed(lbm(), Variant::NoPrefetch));
        assert!(matches!(
            cache.outcome(lbm(), Variant::NoPrefetch),
            RunOutcome::Failed { .. }
        ));
        assert_eq!(exec.stats().memo_hits, hits + 1);
        assert_eq!(exec.stats().simulated, 2);
        // The cache's and the executor's failure journals both hold it.
        for failures in [cache.failures_json(), exec.failures_json()] {
            let arr = failures.as_arr().unwrap();
            assert_eq!(arr.len(), 1);
            assert_eq!(arr[0].get("workload").unwrap().as_str(), Some("lbm"));
            assert_eq!(arr[0].get("variant").unwrap().as_str(), Some("no-prefetch"));
        }
    }

    #[test]
    fn injected_stall_trips_the_watchdog() {
        let opts = RunnerOptions {
            inject_stall: Some("lbm/no-prefetch".into()),
            ..RunnerOptions::default()
        };
        let exec = quick(opts);
        match run_job(&exec, exec.config, lbm().into(), Variant::NoPrefetch) {
            RunOutcome::Failed {
                reason, watchdog, ..
            } => {
                assert!(watchdog);
                assert!(reason.contains("no retire/drain progress"), "{reason}");
            }
            RunOutcome::Ok(_) => panic!("stall injection did not trip the watchdog"),
        }
    }

    /// Two executors running at once in one process share nothing: a
    /// fault injected into one never reaches the other's runs, stats or
    /// documents.
    #[test]
    fn concurrent_executors_are_isolated() {
        let jobs = [(lbm(), Variant::NoPrefetch)];
        let reference_exec = quick(RunnerOptions::default());
        let reference = RunCache::new(&reference_exec, reference_exec.config)
            .run(lbm(), Variant::NoPrefetch)
            .clone();

        let faulty_opts = RunnerOptions {
            inject_panic: Some("lbm".into()),
            ..RunnerOptions::default()
        };
        let a = quick(faulty_opts);
        let b = quick(RunnerOptions::default());
        let barrier = std::sync::Barrier::new(2);
        let run = |exec: &Executor| {
            barrier.wait();
            let mut cache = RunCache::new(exec, exec.config);
            cache.run_batch(&jobs);
            cache.outcome(lbm(), Variant::NoPrefetch).clone()
        };
        let (a_outcome, b_outcome) = std::thread::scope(|s| {
            let ha = s.spawn(|| run(&a));
            let hb = s.spawn(|| run(&b));
            (ha.join().unwrap(), hb.join().unwrap())
        });

        assert_eq!(b_outcome.report(), Some(&reference));
        assert_eq!(b.stats().failed, 0);
        let b_doc = doc("fig08", "isolation", &b, Json::Arr(vec![])).pretty();
        assert!(b_doc.contains("\"failures\": []"), "{b_doc}");

        assert!(matches!(a_outcome, RunOutcome::Failed { .. }));
        assert_eq!(a.stats().failed, 1);
        let a_failures = a.failures_json();
        assert_eq!(a_failures.as_arr().map(<[Json]>::len), Some(1));
    }

    #[test]
    fn variant_labels_are_stable() {
        assert_eq!(Variant::NoPrefetch.label(), "no-prefetch");
        assert_eq!(
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::PsaSd).label(),
            "SPP-PSA-SD"
        );
        assert_eq!(
            Variant::PrefMagic(PrefetcherKind::Spp, PageSizePolicy::Psa).label(),
            "SPP-Magic-PSA"
        );
        assert_eq!(
            Variant::L1d(L1dPrefKind::IpcpPlusPlus).label(),
            "L1D-IPCP++"
        );
    }
}
