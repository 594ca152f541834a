//! End-to-end determinism of the tiered checkpoint/result store through
//! the real `RunCache` batch executor: memory hits, tiered disk hits,
//! memoised finished reports, corrupt-store recovery and injected-fault
//! storms must all reproduce the cold path bit for bit.
//!
//! A "restart" is a new [`Executor`] over the same store directory,
//! exactly as a fresh process would see it.

use psa_core::PageSizePolicy;
use psa_experiments::runner::{self, RunCache, Variant};
use psa_experiments::{Executor, RunnerOptions};
use psa_prefetchers::PrefetcherKind;
use psa_store::fault::FaultPlan;
use psa_traces::WorkloadSpec;
use std::fs;
use std::path::{Path, PathBuf};

fn jobs() -> Vec<(&'static WorkloadSpec, Variant)> {
    let variants = [
        Variant::NoPrefetch,
        Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Original),
        Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa),
        Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::PsaSd),
    ];
    ["lbm", "soplex"]
        .iter()
        .map(|n| runner::workload(n).unwrap())
        .flat_map(|w| variants.iter().map(move |&v| (w, v)))
        .collect()
}

/// An executor on the test budget over the checkpoint store at `dir`
/// (memory only when `None`) with an optional IO fault plan.
fn executor(dir: Option<&Path>, plan: Option<&str>) -> Executor {
    let mut opts = RunnerOptions::default()
        .with_warmup(2_000)
        .with_instructions(6_000);
    opts.ckpt_dir = dir.map(Path::to_path_buf);
    opts.fault_plan = plan.map(|p| FaultPlan::parse(p).expect("valid plan"));
    Executor::new(opts)
}

/// Run the whole batch through a fresh cache and Debug-format every
/// report — bit-identical state produces byte-identical strings.
fn run_all(exec: &Executor, jobs: &[(&'static WorkloadSpec, Variant)]) -> Vec<String> {
    let mut cache = RunCache::new(exec, exec.config);
    cache.run_batch(jobs);
    jobs.iter()
        .map(|&(w, v)| format!("{:?}", cache.run(w, v)))
        .collect()
}

/// Files in `dir` whose name satisfies `pred`, sorted.
fn files_matching(dir: &Path, pred: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(&pred))
        .collect();
    files.sort();
    files
}

fn ckpt_files(dir: &Path) -> Vec<PathBuf> {
    files_matching(dir, |n| n.ends_with(".ckpt"))
}

fn seg_files(dir: &Path) -> Vec<PathBuf> {
    files_matching(dir, |n| n.starts_with("seg-") && n.ends_with(".psg"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psa-ckpt-det-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn warm_checkpoints_reproduce_the_cold_path_bit_for_bit() {
    let jobs = jobs();

    // Phase A: cold reference (no disk store, empty memory store).
    let memory = executor(None, None);
    let reference = run_all(&memory, &jobs);

    // Phase B: a second cache on the same executor shares every warm-up
    // from the memory tier — and reproduces the reports exactly.
    let before = memory.stats();
    let warm = run_all(&memory, &jobs);
    let after = memory.stats();
    assert_eq!(warm, reference, "memory-warm run diverged from cold run");
    assert_eq!(
        after.warmups_shared - before.warmups_shared,
        jobs.len() as u64,
        "every job should share its warm-up from memory"
    );
    assert_eq!(after.ckpt_hits, 0, "no disk store is set");

    // Phase C: with a checkpoint directory, warm-ups and finished
    // reports persist in the tiered store. A new executor over the same
    // directory is a fresh process — the reopened store must serve every
    // job bit-identically (memoised reports, counted as ckpt_hits).
    let dir = temp_dir("tiered");
    let seeded = run_all(&executor(Some(&dir), None), &jobs);
    assert_eq!(seeded, reference, "disk-seeding run diverged");
    assert!(
        dir.join("MANIFEST").exists(),
        "tiered store manifest missing"
    );
    assert!(!seg_files(&dir).is_empty(), "no store segments written");
    assert!(
        ckpt_files(&dir).is_empty(),
        "the tiered store writes no flat snapshot files"
    );

    let restarted = executor(Some(&dir), None);
    let from_disk = run_all(&restarted, &jobs);
    let stats = restarted.stats();
    assert_eq!(from_disk, reference, "disk-warm run diverged from cold run");
    assert_eq!(
        stats.ckpt_hits,
        jobs.len() as u64,
        "every job should be served from the store (memoised reports)"
    );
    assert_eq!(stats.failed, 0, "store traffic must not fail jobs");

    // Phase D: damage the store — truncate every segment and flip a
    // byte of the manifest. Recovery must quarantine the damage, fall
    // back to cold runs, and still reproduce the reference — no panic,
    // no silently wrong numbers.
    for path in seg_files(&dir) {
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len().min(10)]).unwrap();
    }
    let manifest = dir.join("MANIFEST");
    let mut bytes = fs::read(&manifest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    fs::write(&manifest, bytes).unwrap();

    let damaged = executor(Some(&dir), None);
    let before = damaged.stats();
    let degraded = run_all(&damaged, &jobs);
    let after = damaged.stats();
    assert_eq!(degraded, reference, "corrupt-store fallback diverged");
    assert_eq!(after.ckpt_hits, 0, "corrupt entries must not count as hits");
    assert!(
        after.store.quarantined > before.store.quarantined,
        "recovery should have quarantined the damage"
    );
    assert_eq!(after.failed, 0, "fallback is not a failure");

    // Phase E: files the store does not own — such as a flat
    // `psa-*.ckpt` snapshot of an older layout — are ignored: a cold
    // warm-up, identical results.
    let foreign_dir = temp_dir("foreign");
    fs::write(foreign_dir.join("psa-0123456789abcdef.ckpt"), b"stale").unwrap();
    let foreign = executor(Some(&foreign_dir), None);
    assert_eq!(
        run_all(&foreign, &jobs),
        reference,
        "foreign files leaked in"
    );
    assert_eq!(foreign.stats().ckpt_hits, 0);

    // Phase F: a seeded fault storm over a fresh store. Faulted writes
    // and reads degrade to cold work; results never change.
    let storm_dir = temp_dir("storm");
    let plan = Some("seed=5,torn=0.1,flip=0.1,enospc=0.05,eio=0.15");
    let cold = executor(Some(&storm_dir), plan);
    let before = cold.stats();
    assert_eq!(
        run_all(&cold, &jobs),
        reference,
        "faulted cold run diverged"
    );
    let warm = executor(Some(&storm_dir), plan);
    assert_eq!(
        run_all(&warm, &jobs),
        reference,
        "faulted warm run diverged"
    );
    let after = warm.stats();
    assert!(
        after.store.injected_faults > before.store.injected_faults,
        "the fault plan should actually inject"
    );
    assert_eq!(
        cold.stats().failed + after.failed,
        0,
        "injected IO faults must not fail jobs"
    );

    for d in [dir, foreign_dir, storm_dir] {
        let _ = fs::remove_dir_all(&d);
    }
}
