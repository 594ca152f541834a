//! Developer probe: prefetch accuracy per pattern component, to attribute
//! wasted prefetches.
//!
//! ```text
//! cargo run --release --example component_probe [spp|bop|vldp|ppf]
//! ```

use page_size_aware_prefetching::prelude::*;

fn main() {
    let cfg = RunnerOptions::from_env_or_exit().apply(
        SimConfig::default()
            .with_warmup(40_000)
            .with_instructions(120_000),
    );
    let cases: Vec<(&str, PatternMix)> = vec![
        (
            "stream-only",
            PatternMix {
                stream: 1.0,
                ..Default::default()
            },
        ),
        (
            "stride-only",
            PatternMix {
                stride_small: 1.0,
                ..Default::default()
            },
        ),
        (
            "stream+stride",
            PatternMix {
                stream: 1.0,
                stride_small: 0.2,
                ..Default::default()
            },
        ),
        (
            "stream+hot",
            PatternMix {
                stream: 1.0,
                hot: 0.1,
                ..Default::default()
            },
        ),
        (
            "stream+random",
            PatternMix {
                stream: 1.0,
                random: 0.02,
                ..Default::default()
            },
        ),
        (
            "lbm-mix",
            PatternMix {
                stream: 1.0,
                stride_small: 0.2,
                random: 0.02,
                hot: 0.1,
                ..Default::default()
            },
        ),
    ];
    for (name, mix) in cases {
        let w = WorkloadSpec {
            name: "probe",
            suite: Suite::Spec06,
            huge_fraction: 0.95,
            footprint: 256 << 20,
            mem_ratio: 0.40,
            store_ratio: 0.18,
            dependent_fraction: 0.0,
            mix,
            intensive: true,
        };
        let kind = match std::env::args().nth(1).as_deref() {
            Some("bop") => PrefetcherKind::Bop,
            Some("vldp") => PrefetcherKind::Vldp,
            Some("ppf") => PrefetcherKind::Ppf,
            _ => PrefetcherKind::Spp,
        };
        let base = System::baseline(cfg, &w).run();
        print!("{name:14} base={:.3}", base.ipc());
        for pol in [PageSizePolicy::Original, PageSizePolicy::Psa] {
            let r = System::single_core(cfg, &w, kind, pol).run();
            let fills = r.llc.prefetch_fills + r.l2c.prefetch_fills;
            let useful = r.llc.useful_prefetches + r.l2c.useful_prefetches;
            print!(
                " | {pol}: {:+.1}% fills={} useful={} dram={}",
                (r.ipc() / base.ipc() - 1.0) * 100.0,
                fills,
                useful,
                r.dram.reads
            );
        }
        println!(" (base dram={})", base.dram.reads);
    }
}
