//! Checkpoint/result sharing through the crash-safe tiered store
//! (`psa-store`): share the warm-up phase of identical machines — and
//! memoise whole finished reports — instead of re-simulating them.
//!
//! # Sharing model
//!
//! A warm-up is only reusable under an **exact key**: the effective
//! [`SimConfig`], the workload list, and the caller's variant label all
//! hash into the snapshot key, because the prefetcher trains during
//! warm-up and every variant therefore reaches a different warm state.
//! The wins are still real:
//!
//! * the same `(workload, variant)` warms once per **executor** even
//!   when several figures build their own [`crate::runner::RunCache`]
//!   (memory tier; counted as `warmups_shared`);
//! * with a checkpoint directory ([`RunnerOptions::ckpt_dir`],
//!   `PSA_CKPT_DIR`), warm states persist **across processes**
//!   (disk tier; counted as `ckpt_hits`), so a repeated bench run skips
//!   every warm-up it has seen before;
//! * with the disk tier available (and observability off), finished
//!   [`RunReport`]s are memoised too — a repeated bench run at the same
//!   budget skips the *measured* phase as well, serving bit-identical
//!   report bytes (also counted as `ckpt_hits`).
//!
//! # Storage
//!
//! The backing store is [`psa_store::Store`]: a byte-budgeted true-LRU
//! memory tier over append-only checksummed disk segments under an
//! atomically-swapped manifest. Without a checkpoint directory the
//! executor keeps a memory-only LRU of warm-up snapshots instead. A
//! [`RunnerOptions::fault_plan`] threads a deterministic IO fault plan
//! into the store (CI and tests; see `docs/ROBUSTNESS.md`).
//!
//! # Robustness
//!
//! A checkpoint is advisory. Every rejection — truncated file, flipped
//! bit, foreign format version, key collision — surfaces as a typed
//! error inside the store, which responds by quarantining the entry and
//! rebuilding the machine for a cold warm-up. Store write failures are
//! counted (`psa_common::obs::store`), never fatal. A damaged store can
//! cost time, never correctness, and never a panic. Files the store does
//! not own (such as `psa-*.ckpt` snapshots of older layouts) are ignored:
//! they cost a cold warm-up, nothing else.

use crate::runner::{add_time, Executor, RunnerOptions};
use psa_common::rng::fnv1a;
use psa_sim::{
    RunReport, SimConfig, SimError, Snapshot, System, REPORT_CODEC_VERSION, SNAPSHOT_VERSION,
};
use psa_store::lru::Lru;
use psa_store::{EntryKind, Store, StoreConfig, Tier};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// An executor's checkpoint/result storage.
pub(crate) enum Backend {
    /// Memory only (no checkpoint directory): an LRU of warm-up
    /// snapshots.
    Memory(Lru),
    /// The tiered crash-safe store rooted at the checkpoint directory.
    Tiered(Box<Store>),
}

impl Backend {
    /// Open the backend `opts` describe. Opening the tiered store runs
    /// its recovery-on-open scan; see [`psa_store::Store::open`].
    pub(crate) fn open(opts: &RunnerOptions) -> Backend {
        let mem_cap = opts.ckpt_mem_mb.unwrap_or(256).saturating_mul(1 << 20);
        match &opts.ckpt_dir {
            Some(dir) => {
                let mut cfg = StoreConfig::new(dir.clone());
                cfg.mem_cap_bytes = mem_cap;
                cfg.disk_cap_bytes =
                    (opts.ckpt_disk_mb.unwrap_or(2048) as u64).saturating_mul(1 << 20);
                cfg.fault_plan = opts.fault_plan.clone();
                Backend::Tiered(Box::new(Store::open(cfg)))
            }
            None => Backend::Memory(Lru::new(mem_cap)),
        }
    }
}

/// The identity hash of a machine's warm state: snapshot format version,
/// the *effective* configuration (after every variant mutation), the
/// workload on each core, and the caller's label for state the config
/// cannot see (e.g. a hand-built ISO-storage module).
pub fn warm_key(config: &SimConfig, workloads: &[&'static str], label: &str) -> u64 {
    let mut id = Vec::new();
    id.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    id.extend_from_slice(format!("{config:?}").as_bytes());
    for w in workloads {
        id.push(0);
        id.extend_from_slice(w.as_bytes());
    }
    id.push(0);
    id.extend_from_slice(label.as_bytes());
    fnv1a(&id)
}

/// Look up a warm-up snapshot in the executor's store, with the tier
/// that served it.
fn warmup_lookup(exec: &Executor, key: u64) -> Option<(Snapshot, Tier)> {
    let (bytes, tier) = exec.with_store(|b| match b {
        Backend::Memory(lru) => lru
            .get((EntryKind::Warmup.tag(), key))
            .map(|bytes| (bytes, Tier::Memory)),
        Backend::Tiered(store) => store.get(EntryKind::Warmup, key),
    })?;
    // A checksummed frame that fails snapshot decoding can only be a
    // format drift the version key missed; treat it as a miss.
    Some((Snapshot::from_bytes(&bytes).ok()?, tier))
}

/// Persist a freshly-simulated warm-up snapshot. Store write failures
/// (ENOSPC, exhausted retries, degraded store) are counted by the store
/// itself — a read-only or full disk degrades to cold runs next process,
/// it does not fail this one.
fn persist_warmup(exec: &Executor, key: u64, snap: &Snapshot) {
    let bytes = Arc::new(snap.to_bytes());
    exec.with_store(|b| match b {
        Backend::Memory(lru) => lru.put((EntryKind::Warmup.tag(), key), bytes),
        Backend::Tiered(store) => {
            let _ = store.put(EntryKind::Warmup, key, bytes);
        }
    });
}

/// Build a machine and bring it to its warm-up boundary, sharing the
/// warm-up work through the executor's checkpoint store when an
/// exact-key match exists. The returned [`System`] is always positioned
/// exactly where a cold `run_to_warm` would leave it — results downstream
/// are bit-identical either way (`crates/sim/src/snapshot.rs` proves it).
///
/// `build` must construct the machine deterministically from scratch; it
/// is called once on the hot paths and once more if a restore is
/// rejected. `label` names machine state the config cannot describe
/// (variant label, custom module) and becomes part of the key.
///
/// # Errors
///
/// Only construction and simulation errors propagate ([`SimError::Config`],
/// watchdog stalls during a cold warm-up…). Checkpoint rejections never
/// do — they downgrade to a cold warm-up.
pub fn warm_via_checkpoint(
    exec: &Executor,
    build: &dyn Fn() -> Result<System, SimError>,
    label: &str,
) -> Result<System, SimError> {
    let mut sys = build()?;
    if sys.config().warmup == 0 {
        return Ok(sys);
    }
    let key = warm_key(sys.config(), sys.workload_names(), label);
    let stats = &exec.stats;

    // Memory tier, then disk tier; the snapshot found gets one restore
    // attempt. Everything here is checkpoint traffic, charged to the
    // snapshot-I/O phase of the wall-time profile.
    let t_snap = Instant::now();
    if let Some((snap, tier)) = warmup_lookup(exec, key) {
        match sys.restore(&snap, key) {
            Ok(()) => {
                // A disk hit was already promoted into the store's
                // memory tier by its own get.
                let counter = match tier {
                    Tier::Memory => &stats.warmups_shared,
                    Tier::Disk => &stats.ckpt_hits,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                add_time(&stats.phase_snapshot, t_snap.elapsed());
                return Ok(sys);
            }
            // A restore can fail partway and leave the machine torn;
            // discard it and rebuild for the cold path.
            Err(_) => sys = build()?,
        }
    }
    add_time(&stats.phase_snapshot, t_snap.elapsed());

    let t_warm = Instant::now();
    sys.run_to_warm()?;
    add_time(&stats.phase_warm, t_warm.elapsed());

    let t_snap = Instant::now();
    persist_warmup(exec, key, &sys.snapshot(key));
    add_time(&stats.phase_snapshot, t_snap.elapsed());
    Ok(sys)
}

/// Whether finished-report and finished-document memoisation is on: it
/// needs the tiered disk store (memos only pay off across processes; the
/// in-process [`crate::runner::RunCache`] already memoises within one)
/// and observability off (an observed run must actually execute to
/// produce its event stream).
pub(crate) fn memo_enabled(exec: &Executor, config: &SimConfig) -> bool {
    !config.obs.enabled && exec.opts.ckpt_dir.is_some()
}

/// The identity hash of a finished report: report codec version, the
/// pre-variant configuration, the workload, and the variant label
/// (which encodes every config mutation a variant applies).
pub(crate) fn report_key(config: &SimConfig, workload: &str, label: &str) -> u64 {
    let mut id = Vec::new();
    id.extend_from_slice(b"report\0");
    id.extend_from_slice(&REPORT_CODEC_VERSION.to_le_bytes());
    id.extend_from_slice(format!("{config:?}").as_bytes());
    id.push(0);
    id.extend_from_slice(workload.as_bytes());
    id.push(0);
    id.extend_from_slice(label.as_bytes());
    fnv1a(&id)
}

/// Fetch memoised bytes of `kind` from the tiered store, timed as
/// snapshot I/O; a hit counts as a `ckpt_hits` store hit once `decode`
/// accepts it.
fn memo_get<T>(
    exec: &Executor,
    kind: EntryKind,
    key: u64,
    decode: impl FnOnce(Arc<Vec<u8>>) -> Option<T>,
) -> Option<T> {
    let t0 = Instant::now();
    let hit = exec.with_store(|b| match b {
        Backend::Tiered(store) => store.get(kind, key).map(|(bytes, _)| bytes),
        Backend::Memory(_) => None,
    });
    let value = hit.and_then(decode);
    add_time(&exec.stats.phase_snapshot, t0.elapsed());
    if value.is_some() {
        exec.stats.ckpt_hits.fetch_add(1, Ordering::Relaxed);
    }
    value
}

/// Memoise bytes of `kind` in the tiered store, timed as snapshot I/O
/// (write failures are counted, never fatal).
fn memo_put(exec: &Executor, kind: EntryKind, key: u64, bytes: Arc<Vec<u8>>) {
    let t0 = Instant::now();
    exec.with_store(|b| {
        if let Backend::Tiered(store) = b {
            let _ = store.put(kind, key, bytes);
        }
    });
    add_time(&exec.stats.phase_snapshot, t0.elapsed());
}

/// Fetch a memoised finished report. Any decode rejection (version,
/// workload-name mismatch from a key collision) is a miss.
pub(crate) fn report_from_store(
    exec: &Executor,
    key: u64,
    workload: &'static str,
) -> Option<RunReport> {
    memo_get(exec, EntryKind::Report, key, |bytes| {
        RunReport::from_store_bytes(&bytes, workload).ok()
    })
}

/// Memoise a finished report.
pub(crate) fn report_to_store(exec: &Executor, key: u64, report: &RunReport) {
    memo_put(
        exec,
        EntryKind::Report,
        key,
        Arc::new(report.to_store_bytes()),
    );
}

/// Fetch memoised finished-document bytes (a whole BENCH JSON served
/// without simulating).
pub(crate) fn document_from_store(exec: &Executor, key: u64) -> Option<Arc<Vec<u8>>> {
    memo_get(exec, EntryKind::Document, key, Some)
}

/// Memoise finished-document bytes.
pub(crate) fn document_to_store(exec: &Executor, key: u64, bytes: Arc<Vec<u8>>) {
    memo_put(exec, EntryKind::Document, key, bytes);
}
