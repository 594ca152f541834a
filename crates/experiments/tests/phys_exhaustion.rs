//! A physical memory too small for the workload set must surface as a
//! typed [`psa_sim::SimError::PhysMemExhausted`] value — reported through
//! `try_run`, contained by the executor as a job failure, and journalled
//! in the `BENCH_*.json` `failures` array — never as a panic.
//!
use psa_experiments::runner::{self, RunCache, RunOutcome, Variant};
use psa_experiments::{Executor, RunnerOptions};
use psa_sim::{SimConfig, SimError, System};

/// lbm's 32MB footprint cannot fit in 4MB of physical memory.
fn tiny_phys() -> SimConfig {
    let mut cfg = SimConfig::default()
        .with_warmup(1_000)
        .with_instructions(4_000);
    cfg.phys.bytes = 4 << 20;
    cfg
}

#[test]
fn phys_exhaustion_is_a_typed_failure_not_a_panic() {
    let lbm = runner::workload("lbm").unwrap();

    // Direct run: the walk surfaces the exhausted frame allocator as a
    // typed error value.
    let err = System::try_baseline(tiny_phys(), lbm)
        .expect("the machine itself builds")
        .try_run()
        .expect_err("4MB cannot back lbm");
    assert!(
        matches!(err, SimError::PhysMemExhausted { .. }),
        "expected PhysMemExhausted, got {err:?}"
    );
    assert!(err.to_string().contains("enlarge PhysMemConfig"), "{err}");

    // Through the executor: the job fails in isolation and lands in the
    // executor's failure journal.
    let mut exec = Executor::new(RunnerOptions::default().with_threads(1));
    exec.config = tiny_phys();
    let jobs = vec![(lbm, Variant::NoPrefetch)];
    let mut cache = RunCache::new(&exec, exec.config);
    let executed = cache.run_batch(&jobs);
    assert_eq!(executed, jobs.len(), "the batch must complete");
    match cache.outcome(lbm, Variant::NoPrefetch) {
        RunOutcome::Failed {
            reason, watchdog, ..
        } => {
            assert!(reason.contains("physical memory exhausted"), "{reason}");
            assert!(!watchdog, "exhaustion is not a stall");
        }
        RunOutcome::Ok(_) => panic!("exhaustion must fail the job"),
    }

    let doc = runner::doc(
        "phys_smoke",
        "phys exhaustion smoke",
        &exec,
        psa_sim::Json::Arr(vec![]),
    );
    let failures = doc.get("failures").unwrap().as_arr().unwrap();
    let rec = failures
        .iter()
        .find(|f| f.get("workload").unwrap().as_str() == Some("lbm"))
        .expect("lbm failure journalled");
    let reason = rec.get("reason").unwrap().as_str().unwrap();
    assert!(reason.contains("physical memory exhausted"), "{reason}");
}
