//! Multi-core demo: run a 4-core mix with SPP-PSA-SD and report the
//! weighted speedup over original SPP, as in Figure 14.
//!
//! ```text
//! cargo run --release --example multicore_mix [w1 w2 w3 w4]
//! ```

use page_size_aware_prefetching::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.len() == 4 {
        args.iter().map(String::as_str).collect()
    } else {
        vec!["lbm", "milc", "mcf", "soplex"]
    };
    let mix: Vec<_> = names
        .iter()
        .map(|n| catalog::workload(n).unwrap_or_else(|| panic!("unknown workload '{n}'")))
        .collect();

    let config = RunnerOptions::from_env_or_exit().apply(
        SimConfig::for_cores(4)
            .with_warmup(20_000)
            .with_instructions(60_000),
    );

    println!("mix: {names:?}\n");
    let base =
        System::multi_core(config, &mix, PrefetcherKind::Spp, PageSizePolicy::Original).run_multi();
    let eval =
        System::multi_core(config, &mix, PrefetcherKind::Spp, PageSizePolicy::PsaSd).run_multi();

    // Isolation IPCs on the same (multi-core-spec) machine, per §V-B.
    let isolation: Vec<f64> = mix
        .iter()
        .map(|w| {
            System::multi_core(config, &[w], PrefetcherKind::Spp, PageSizePolicy::Original)
                .run_multi()
                .ipc[0]
        })
        .collect();

    for (i, name) in names.iter().enumerate() {
        println!(
            "core {i} {name:>16}: SPP {:.3} IPC → SPP-PSA-SD {:.3} IPC (isolation {:.3})",
            base.ipc[i], eval.ipc[i], isolation[i]
        );
    }
    let ws = weighted_speedup(&eval.ipc, &base.ipc, &isolation);
    println!(
        "\nweighted speedup of SPP-PSA-SD over SPP original: {:+.1}%",
        (ws - 1.0) * 100.0
    );
    println!(
        "shared LLC: {} demand misses; DRAM row-hit rate {:.0}%",
        eval.llc.demand_misses,
        eval.dram.row_hit_rate() * 100.0
    );
}
