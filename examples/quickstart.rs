//! Quickstart: simulate one workload under SPP with and without page-size
//! awareness and print the headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart [workload]
//! ```

use page_size_aware_prefetching::prelude::*;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "lbm".into());
    let Some(workload) = catalog::workload(&name) else {
        eprintln!("unknown workload '{name}'; try one of:");
        for w in catalog::all() {
            eprint!("{} ", w.name);
        }
        eprintln!();
        std::process::exit(1);
    };

    let config = RunnerOptions::from_env_or_exit().apply(
        SimConfig::default()
            .with_warmup(50_000)
            .with_instructions(150_000),
    );
    println!("{}", config.table1());

    let baseline = System::baseline(config, workload).run();
    println!(
        "{name}: no-prefetch baseline  IPC {:.3}  (LLC MPKI {:.1}, {:.0}% of memory in 2MB pages)\n",
        baseline.ipc(),
        baseline.llc_mpki(),
        baseline.huge_usage * 100.0
    );

    for policy in PageSizePolicy::ALL {
        let report = System::single_core(config, workload, PrefetcherKind::Spp, policy).run();
        let module = report.module.expect("prefetching run");
        println!(
            "SPP{:<9} IPC {:.3} ({:+.1}% vs baseline)  L2C MPKI {:>5.1}  issued {:>6} prefetches",
            policy.suffix(),
            report.ipc(),
            (report.ipc() / baseline.ipc() - 1.0) * 100.0,
            report.l2c_mpki(),
            module.issued,
        );
        if let Some(b) = report.boundary {
            println!(
                "             boundary: {:.1}% of candidates discarded for crossing 4KB inside a 2MB page",
                b.discard_probability() * 100.0
            );
        }
    }
}
