//! Acceptance test for the fault-isolated executor: a batch containing one
//! deliberately panicking job and one watchdog-stalled job must complete,
//! keep every surviving run bit-identical to a clean serial run, and
//! record both faults in the `BENCH_*.json` document's `failures` array.
//!
//! The faults are injected through the faulty executor's own options,
//! so nothing leaks into the clean reference executor.

use psa_core::PageSizePolicy;
use psa_experiments::runner::{self, RunCache, RunOutcome, Variant};
use psa_experiments::{Executor, RunnerOptions};
use psa_prefetchers::PrefetcherKind;

fn quick(opts: RunnerOptions) -> Executor {
    Executor::new(opts.with_warmup(1_000).with_instructions(4_000))
}

#[test]
fn faulty_batch_completes_with_gaps_and_records_failures() {
    let lbm = runner::workload("lbm").unwrap();
    let milc = runner::workload("milc").unwrap();
    let soplex = runner::workload("soplex").unwrap();
    let psa = Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa);
    let jobs = vec![
        (lbm, Variant::NoPrefetch),  // will panic
        (milc, Variant::NoPrefetch), // will stall
        (soplex, Variant::NoPrefetch),
        (lbm, psa),
        (milc, psa),
    ];

    // Clean serial reference.
    let clean_exec = quick(RunnerOptions::default().with_threads(1));
    let mut clean = RunCache::new(&clean_exec, clean_exec.config);
    clean.run_batch(&jobs);

    // Faulty parallel batch: one injected panic, one injected stall.
    let mut opts = RunnerOptions::default().with_threads(2);
    opts.inject_panic = Some("lbm/no-prefetch".into());
    opts.inject_stall = Some("milc/no-prefetch".into());
    let exec = quick(opts);
    let mut faulty = RunCache::new(&exec, exec.config);
    let executed = faulty.run_batch(&jobs);
    assert_eq!(executed, jobs.len(), "the batch must complete");

    // Both faults were contained as values, with the right diagnosis.
    match faulty.outcome(lbm, Variant::NoPrefetch) {
        RunOutcome::Failed {
            reason, watchdog, ..
        } => {
            assert!(reason.contains("injected panic"), "{reason}");
            assert!(!watchdog);
        }
        RunOutcome::Ok(_) => panic!("injected panic not recorded"),
    }
    match faulty.outcome(milc, Variant::NoPrefetch) {
        RunOutcome::Failed {
            reason, watchdog, ..
        } => {
            assert!(*watchdog, "stall must be diagnosed as a watchdog abort");
            assert!(reason.contains("no retire/drain progress"), "{reason}");
        }
        RunOutcome::Ok(_) => panic!("injected stall not recorded"),
    }

    // Every surviving job is bit-identical to the clean serial run.
    for &(w, v) in &[(soplex, Variant::NoPrefetch), (lbm, psa), (milc, psa)] {
        assert!(
            faulty.completed(w, v),
            "{}/{} should survive",
            w.name,
            v.label()
        );
        assert_eq!(
            faulty.run(w, v),
            clean.run(w, v),
            "{}/{} diverged from the clean serial run",
            w.name,
            v.label()
        );
    }
    assert_eq!(
        faulty.surviving(&[lbm, milc, soplex], &[Variant::NoPrefetch]),
        vec![soplex]
    );
    assert_eq!(exec.stats().failed, 2);
    assert_eq!(exec.stats().watchdog_aborted, 1);
    assert_eq!(clean_exec.stats().failed, 0);

    // The emitted document carries both failure records, and would trip
    // the shell gate (which greps for the empty `"failures": []`).
    let doc = runner::doc(
        "fault_smoke",
        "fault isolation smoke",
        &exec,
        psa_sim::Json::Arr(vec![]),
    );
    let failures = doc.get("failures").unwrap().as_arr().unwrap();
    let recorded: Vec<(&str, &str)> = failures
        .iter()
        .map(|f| {
            (
                f.get("workload").unwrap().as_str().unwrap(),
                f.get("variant").unwrap().as_str().unwrap(),
            )
        })
        .collect();
    assert!(recorded.contains(&("lbm", "no-prefetch")), "{recorded:?}");
    assert!(recorded.contains(&("milc", "no-prefetch")), "{recorded:?}");
    assert!(!doc.pretty().contains("\"failures\": []"));
    let executor = doc.get("executor").unwrap();
    assert_eq!(
        executor.get("failed_runs").unwrap(),
        &psa_sim::Json::uint(2)
    );
    assert_eq!(
        executor.get("watchdog_aborted").unwrap(),
        &psa_sim::Json::uint(1)
    );
}
