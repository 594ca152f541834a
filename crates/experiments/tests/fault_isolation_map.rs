//! Fault isolation for the `parallel_map_isolated` figure paths (the PR 2
//! caveat closed): injected panics and watchdog stalls inside fig11-style
//! and fig14-style jobs must become explicit gaps plus `failures` entries,
//! while untouched cells stay bit-identical to a clean run.
//!
//! Each scenario injects its faults through its own executor's options,
//! so the clean reference runs are untouched.

use psa_experiments::{fig11, fig1415, Executor, RunnerOptions};
use psa_traces::mixes::random_mixes;

/// Quick-budget options over a 3-workload slice on 2 threads.
fn quick() -> RunnerOptions {
    RunnerOptions::default()
        .with_workload_limit(3)
        .with_threads(2)
        .with_warmup(1_000)
        .with_instructions(4_000)
}

#[test]
fn injected_faults_in_map_jobs_become_gaps_and_failures() {
    // ---- fig11-style: custom-configured single-core cells ----
    let clean_exec = Executor::new(quick());
    let workloads = clean_exec.workloads();
    assert_eq!(workloads.len(), 3);
    let clean = fig11::collect(&clean_exec);

    // Panic one SPP/SD-Proposed cell and stall one VLDP/SD-Standard cell;
    // injection matches on `<workload>/<job label>`.
    let mut opts = quick();
    opts.inject_panic = Some(format!("{}/fig11/SPP/SD-Proposed", workloads[0].name));
    opts.inject_stall = Some(format!("{}/fig11/VLDP/SD-Standard", workloads[1].name));
    let exec = Executor::new(opts);
    let faulty = fig11::collect(&exec);
    let stats = exec.stats();

    // The figure still renders every row; untouched prefetchers are
    // bit-identical to the clean run.
    assert_eq!(faulty.len(), 3);
    assert_eq!(
        format!("{:?}", faulty[2]),
        format!("{:?}", clean[2]),
        "PPF row must not be affected by SPP/VLDP faults"
    );
    // The faulted cells shrink to a gap (their geomean drops the faulted
    // workload) but stay plausible — never a panic, never a zeroed row.
    for row in &faulty {
        for s in row.speedups {
            assert!(s > 0.2 && s < 5.0, "{}: implausible speedup {s}", row.kind);
        }
    }
    assert_eq!(stats.failed, 2, "both faults journalled");
    assert_eq!(
        stats.watchdog_aborted, 1,
        "the stall is aborted by the forward-progress watchdog"
    );
    assert_eq!(clean_exec.stats().failed, 0);
    let journal = exec.failures_json().pretty();
    assert!(journal.contains("fig11/SPP/SD-Proposed"), "{journal}");
    assert!(journal.contains("injected panic"), "{journal}");
    assert!(journal.contains("fig11/VLDP/SD-Standard"), "{journal}");
    assert!(journal.contains("\"watchdog\": true"), "{journal}");

    // ---- fig14-style: multi-core mix evaluations ----
    // The injected label must name the job exactly: the SPP-PSA-SD
    // evaluation of mix 0, keyed by the mix's first workload.
    let mut opts = quick().with_mixes(2);
    let mix_w = random_mixes(2, 2, clean_exec.config.seed)[0][0].name;
    opts.inject_stall = Some(format!("{mix_w}/spp-s/mix0"));
    let exec = Executor::new(opts);
    let bars = fig1415::collect(&exec, 2);
    let stats = exec.stats();

    assert_eq!(bars.len(), 7, "every bar renders despite the fault");
    for b in &bars {
        let expect = if b.label == "SPP-PSA-SD" { 1 } else { 2 };
        assert_eq!(
            b.per_mix.len(),
            expect,
            "{}: the faulted mix must be an explicit gap",
            b.label
        );
    }
    assert!(stats.failed > 0);
    assert!(stats.watchdog_aborted > 0);
    let journal = exec.failures_json().pretty();
    assert!(journal.contains("spp-s/mix0"), "{journal}");
}
