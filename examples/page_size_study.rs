//! The paper's motivation study in miniature: run the nine representative
//! benchmarks (Figures 3–5) and show how 2MB-page usage creates the
//! opportunity that PPM exploits — and when 2MB *indexing* helps or hurts.
//!
//! ```text
//! cargo run --release --example page_size_study
//! ```

use page_size_aware_prefetching::prelude::*;

fn main() {
    let config = RunnerOptions::from_env_or_exit().apply(
        SimConfig::default()
            .with_warmup(30_000)
            .with_instructions(90_000),
    );

    let mut t = Table::new(vec![
        "benchmark".into(),
        "2MB usage".into(),
        "SPP %".into(),
        "SPP-PSA %".into(),
        "SPP-PSA-2MB %".into(),
        "SPP-PSA-SD %".into(),
    ]);
    for name in catalog::MOTIVATION_SET {
        let w = catalog::workload(name).expect("catalog entry");
        let base = System::baseline(config, w).run();
        let speedup = |policy| {
            let r = System::single_core(config, w, PrefetcherKind::Spp, policy).run();
            format!("{:+.1}", (r.ipc() / base.ipc() - 1.0) * 100.0)
        };
        t.row(vec![
            w.name.into(),
            format!("{:.0}%", base.huge_usage * 100.0),
            speedup(PageSizePolicy::Original),
            speedup(PageSizePolicy::Psa),
            speedup(PageSizePolicy::Psa2m),
            speedup(PageSizePolicy::PsaSd),
        ]);
    }
    println!("Speedups over the no-prefetch baseline:\n\n{}", t.render());
    println!("Note how soplex (4KB-dominated) gains nothing from page-size awareness,");
    println!("milc's long strides need 2MB *indexing*, and the Set-Dueling composite");
    println!("tracks the better variant per workload.");
}
