//! Developer diagnostics: per-workload speedups of the SPP variants over
//! the no-prefetch baseline, with issue-path detail for named workloads.
//!
//! ```text
//! cargo run --release --example debug_stats            # summary table
//! cargo run --release --example debug_stats lbm mcf    # detail for lbm, mcf
//! ```

use page_size_aware_prefetching::prelude::*;

const SET: [&str; 8] = [
    "lbm",
    "milc",
    "soplex",
    "tc.road",
    "mcf",
    "pr.road",
    "qmm_fp_67",
    "hmmer",
];

fn main() {
    let cfg = RunnerOptions::from_env_or_exit().apply(
        SimConfig::default()
            .with_warmup(20_000)
            .with_instructions(60_000),
    );
    let detail: Vec<String> = std::env::args().skip(1).collect();
    for name in SET {
        let w = catalog::workload(name).expect("in catalog");
        let base = System::baseline(cfg, w).run();
        let detailed = detail.iter().any(|d| d == name);
        if detailed {
            println!(
                "{name} base: ipc={:.3} l2m={} llm={} dram={} rowhit={:.2} lat2={:.0} lat3={:.0}",
                base.ipc(),
                base.l2c.demand_misses,
                base.llc.demand_misses,
                base.dram.reads,
                base.dram.row_hit_rate(),
                base.l2c_avg_latency,
                base.llc_avg_latency
            );
        } else if detail.is_empty() {
            print!("{name:10} base={:.3}", base.ipc());
        }
        for pol in PageSizePolicy::ALL {
            let r = System::single_core(cfg, w, PrefetcherKind::Spp, pol).run();
            if detailed {
                let m = r.module.expect("prefetching run");
                println!(
                    "  {pol:8}: ipc={:.3} ({:+.1}%) l2m={} llm={} iss={} ded={} l2(f={},u={},ul={}) ll(f={},u={},ul={}) lat2={:.0} lat3={:.0} dram={}",
                    r.ipc(),
                    (r.ipc() / base.ipc() - 1.0) * 100.0,
                    r.l2c.demand_misses,
                    r.llc.demand_misses,
                    m.issued,
                    m.deduped,
                    r.l2c.prefetch_fills,
                    r.l2c.useful_prefetches,
                    r.l2c.useless_prefetches,
                    r.llc.prefetch_fills,
                    r.llc.useful_prefetches,
                    r.llc.useless_prefetches,
                    r.l2c_avg_latency,
                    r.llc_avg_latency,
                    r.dram.reads,
                );
                let d = &r.debug;
                println!(
                    "            l1stall={} clean={}@{:.0} merged={}@{:.0} rowhit={:.2} bus={}",
                    d.mshr_bump_stall,
                    d.clean_misses,
                    if d.clean_misses > 0 {
                        d.clean_latency_sum as f64 / d.clean_misses as f64
                    } else {
                        0.0
                    },
                    d.merged_misses,
                    if d.merged_misses > 0 {
                        d.merged_latency_sum as f64 / d.merged_misses as f64
                    } else {
                        0.0
                    },
                    r.dram.row_hit_rate(),
                    r.dram.bus_busy_cycles,
                );
                println!(
                    "            loads={} avg_load_latency={:.1}",
                    d.loads,
                    if d.loads > 0 {
                        d.load_latency_sum as f64 / d.loads as f64
                    } else {
                        0.0
                    }
                );
                println!("            max_load_latency={}", d.load_latency_max);
            } else if detail.is_empty() {
                print!(" {}={:+.1}%", pol, (r.ipc() / base.ipc() - 1.0) * 100.0);
            }
        }
        if detail.is_empty() {
            println!();
        }
    }
}
