//! Cross-crate integration tests: the paper's structural claims, checked
//! end-to-end through the public facade.

use page_size_aware_prefetching::core::Ppm;
use page_size_aware_prefetching::prelude::*;
use page_size_aware_prefetching::traces::mixes::random_mixes;

/// `PSA_CHECK=1 cargo test` must still switch the invariant audits on now
/// that the simulator itself never reads the environment: the flag
/// arrives through the typed facade.
fn env_check() -> bool {
    RunnerOptions::from_env()
        .expect("PSA_* variables parse")
        .check
        .unwrap_or(false)
}

fn quick() -> SimConfig {
    SimConfig::default()
        .with_warmup(3_000)
        .with_instructions(12_000)
        .with_check(env_check())
}

#[test]
fn simulation_is_deterministic() {
    let w = catalog::workload("milc").unwrap();
    let run = || System::single_core(quick(), w, PrefetcherKind::Ppf, PageSizePolicy::PsaSd).run();
    let (a, b) = (run(), run());
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.l2c.demand_misses, b.l2c.demand_misses);
    assert_eq!(a.dram.reads, b.dram.reads);
    assert_eq!(a.module.unwrap().issued, b.module.unwrap().issued);
}

#[test]
fn different_seeds_change_the_run() {
    let w = catalog::workload("milc").unwrap();
    let a = System::baseline(quick().with_seed(1), w).run();
    let b = System::baseline(quick().with_seed(2), w).run();
    assert_ne!(
        a.cycles, b.cycles,
        "seed must flow through traces and placement"
    );
}

#[test]
fn bop_psa_variants_degenerate_exactly() {
    // §VI-B1: BOP has no page-indexed structure, so its PSA, PSA-2MB and
    // PSA-SD versions are one and the same — cycle-for-cycle.
    let w = catalog::workload("lbm").unwrap();
    let run = |policy| System::single_core(quick(), w, PrefetcherKind::Bop, policy).run();
    let psa = run(PageSizePolicy::Psa);
    let psa_2mb = run(PageSizePolicy::Psa2m);
    let psa_sd = run(PageSizePolicy::PsaSd);
    assert_eq!(psa.cycles, psa_2mb.cycles);
    assert_eq!(psa.cycles, psa_sd.cycles);
    assert_eq!(psa.dram.reads, psa_sd.dram.reads);
}

#[test]
fn ppm_equals_the_magic_oracle() {
    // §IV-A: PPM's MSHR bit carries exactly the information the motivation
    // sections' "magic" oracle assumed — the runs must be identical.
    let w = catalog::workload("bwaves").unwrap();
    let ppm = System::single_core(quick(), w, PrefetcherKind::Spp, PageSizePolicy::Psa).run();
    let mut magic_cfg = quick();
    magic_cfg.page_size_source = page_size_aware_prefetching::core::ppm::PageSizeSource::Magic;
    let magic = System::single_core(magic_cfg, w, PrefetcherKind::Spp, PageSizePolicy::Psa).run();
    assert_eq!(ppm.cycles, magic.cycles);
    assert_eq!(ppm.module.unwrap().issued, magic.module.unwrap().issued);
}

#[test]
fn psa_never_discards_for_crossing_inside_huge_pages() {
    let w = catalog::workload("lbm").unwrap();
    let orig = System::single_core(quick(), w, PrefetcherKind::Spp, PageSizePolicy::Original).run();
    let psa = System::single_core(quick(), w, PrefetcherKind::Spp, PageSizePolicy::Psa).run();
    assert!(
        orig.boundary.unwrap().discarded_cross_4k_in_huge > 0,
        "the original prefetcher must hit the 4KB wall on a huge-page stream"
    );
    assert_eq!(psa.boundary.unwrap().discarded_cross_4k_in_huge, 0);
}

#[test]
fn prefetching_never_issues_outside_the_page() {
    // Safety: every allowed candidate stayed inside its trigger's physical
    // page — the boundary stats account for every candidate.
    for policy in PageSizePolicy::ALL {
        let w = catalog::workload("roms_s").unwrap();
        let r = System::single_core(quick(), w, PrefetcherKind::Vldp, policy).run();
        let b = r.boundary.unwrap();
        assert_eq!(
            b.candidates,
            b.allowed + b.discarded_cross_4k_in_huge + b.discarded_out_of_page,
            "{policy}: candidate accounting must balance"
        );
    }
}

#[test]
fn ppm_storage_is_one_bit_for_two_page_sizes() {
    assert_eq!(Ppm::bits_required(2), 1);
}

#[test]
fn multicore_mixes_run_and_report() {
    let mixes = random_mixes(1, 4, 7);
    let config = SimConfig::for_cores(4)
        .with_warmup(1_000)
        .with_instructions(5_000)
        .with_check(env_check());
    let report = System::multi_core(
        config,
        &mixes[0],
        PrefetcherKind::Spp,
        PageSizePolicy::PsaSd,
    )
    .run_multi();
    assert_eq!(report.ipc.len(), 4);
    assert!(report.ipc.iter().all(|&i| i > 0.0 && i <= 4.0));
}

#[test]
fn l1d_prefetcher_configurations_run() {
    let w = catalog::workload("GemsFDTD").unwrap();
    let mut best = 0.0f64;
    for l1d in [
        L1dPrefKind::None,
        L1dPrefKind::NextLine,
        L1dPrefKind::Ipcp,
        L1dPrefKind::IpcpPlusPlus,
    ] {
        let mut cfg = quick();
        cfg.l1d_prefetcher = l1d;
        let ipc = System::baseline(cfg, w).run().ipc();
        assert!(ipc > 0.0);
        best = best.max(ipc);
    }
    assert!(best > 0.0);
}

#[test]
fn thp_usage_tracks_the_workload_parameter() {
    for (name, lo, hi) in [("lbm", 0.8, 1.0), ("soplex", 0.0, 0.35)] {
        let w = catalog::workload(name).unwrap();
        let r = System::baseline(quick(), w).run();
        assert!(
            (lo..=hi).contains(&r.huge_usage),
            "{name}: huge usage {:.2} outside [{lo}, {hi}]",
            r.huge_usage
        );
    }
}

#[test]
fn sd_module_reports_dueling_state() {
    let w = catalog::workload("milc").unwrap();
    let r = System::single_core(quick(), w, PrefetcherKind::Spp, PageSizePolicy::PsaSd).run();
    let m = r.module.unwrap();
    assert!(
        m.selected_by[0] + m.selected_by[1] > 0,
        "SD must classify accesses"
    );
}

/// The daemon reads the environment once, before it binds: a malformed
/// `PSA_*` variable is a startup error naming the variable and the
/// value (exit 2), never a server that drops every job later.
#[test]
fn psa_serve_rejects_a_malformed_environment_at_startup() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_psa_serve"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .env("PSA_THREADS", "banana")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("psa_serve starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("psa_serve waits").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("psa_serve kept running with PSA_THREADS=banana");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("psa_serve output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("PSA_THREADS") && stderr.contains("banana"),
        "{stderr}"
    );
}
