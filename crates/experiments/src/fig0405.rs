//! Figures 4 and 5: the motivation study. Speedups over a no-prefetch
//! baseline for SPP, SPP-PSA-Magic (ideal page-size propagation) and
//! SPP-PSA-Magic-2MB (ideal propagation + 2MB indexing) on the nine
//! representative benchmarks.

use psa_common::{geomean, table::pct, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::Json;
use psa_traces::catalog;

use crate::runner::{self, Executor, RunCache, Variant};

/// One benchmark's speedups over the no-prefetch baseline.
#[derive(Debug, Clone)]
pub struct MotivationRow {
    /// Benchmark name.
    pub name: &'static str,
    /// SPP original.
    pub spp: f64,
    /// SPP-PSA-Magic.
    pub psa_magic: f64,
    /// SPP-PSA-Magic-2MB.
    pub psa_magic_2mb: f64,
}

/// Run both figures' data in one sweep.
pub fn collect(exec: &Executor) -> Vec<MotivationRow> {
    let mut cache = RunCache::new(exec, exec.config);
    let kind = PrefetcherKind::Spp;
    let variants = [
        Variant::NoPrefetch,
        Variant::Pref(kind, PageSizePolicy::Original),
        Variant::PrefMagic(kind, PageSizePolicy::Psa),
        Variant::PrefMagic(kind, PageSizePolicy::Psa2m),
    ];
    let workloads: Vec<_> = catalog::MOTIVATION_SET
        .iter()
        .map(|name| runner::workload(name).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    let jobs: Vec<_> = workloads
        .iter()
        .flat_map(|&w| variants.iter().map(move |&v| (w, v)))
        .collect();
    cache.run_batch(&jobs);
    // Failed jobs leave explicit gaps: their workload's row is dropped and
    // the fault is recorded in the document's `failures` array.
    cache
        .surviving(&workloads, &variants)
        .into_iter()
        .map(|w| {
            let base = Variant::NoPrefetch;
            MotivationRow {
                name: w.name,
                spp: cache.speedup(w, Variant::Pref(kind, PageSizePolicy::Original), base),
                psa_magic: cache.speedup(w, Variant::PrefMagic(kind, PageSizePolicy::Psa), base),
                psa_magic_2mb: cache.speedup(
                    w,
                    Variant::PrefMagic(kind, PageSizePolicy::Psa2m),
                    base,
                ),
            }
        })
        .collect()
}

/// Render both figures.
pub fn run(exec: &Executor) -> String {
    report(exec).0
}

/// Text rendering plus the `BENCH_fig0405.json` document.
pub fn report(exec: &Executor) -> (String, Json) {
    let rows = collect(exec);
    let json_rows = Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("benchmark", Json::str(r.name)),
                    ("spp_speedup", Json::Num(r.spp)),
                    ("spp_psa_magic_speedup", Json::Num(r.psa_magic)),
                    ("spp_psa_magic_2mb_speedup", Json::Num(r.psa_magic_2mb)),
                ])
            })
            .collect(),
    );
    let mut doc = runner::doc(
        "fig0405",
        "speedup over no-prefetch baseline (motivation set)",
        exec,
        json_rows,
    );
    let geo = |f: fn(&MotivationRow) -> f64| geomean(&rows.iter().map(f).collect::<Vec<_>>());
    doc.push(
        "geomean",
        Json::obj([
            ("spp", Json::Num(geo(|r| r.spp))),
            ("spp_psa_magic", Json::Num(geo(|r| r.psa_magic))),
            ("spp_psa_magic_2mb", Json::Num(geo(|r| r.psa_magic_2mb))),
        ]),
    );
    let mut t = Table::new(vec![
        "benchmark".into(),
        "SPP %".into(),
        "SPP-PSA-Magic %".into(),
        "SPP-PSA-Magic-2MB %".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.name.into(),
            pct((r.spp - 1.0) * 100.0),
            pct((r.psa_magic - 1.0) * 100.0),
            pct((r.psa_magic_2mb - 1.0) * 100.0),
        ]);
    }
    let g = |f: fn(&MotivationRow) -> f64| {
        let v: Vec<f64> = rows.iter().map(f).collect();
        pct((geomean(&v) - 1.0) * 100.0)
    };
    t.row(vec![
        "GeoMean".into(),
        g(|r| r.spp),
        g(|r| r.psa_magic),
        g(|r| r.psa_magic_2mb),
    ]);
    let text = format!(
        "Figures 4 & 5 — speedup over no-prefetch baseline (motivation set)\n{}",
        t.render()
    );
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_psa_does_not_trail_original_in_geomean() {
        let exec = Executor::new(
            crate::RunnerOptions::default()
                .with_warmup(4_000)
                .with_instructions(20_000),
        );
        let rows = collect(&exec);
        assert_eq!(rows.len(), 9);
        let spp = geomean(&rows.iter().map(|r| r.spp).collect::<Vec<_>>());
        let magic = geomean(&rows.iter().map(|r| r.psa_magic).collect::<Vec<_>>());
        // At this test's tiny instruction budget the two are statistically
        // close; the guard catches regressions where PSA collapses, not
        // sub-point noise.
        assert!(
            magic >= spp * 0.95,
            "PSA-Magic must not trail SPP in geomean: {magic:.3} vs {spp:.3}"
        );
        // milc's long strides need the 2MB grain (Figure 5's headline).
        let milc = rows.iter().find(|r| r.name == "milc").unwrap();
        assert!(
            milc.psa_magic_2mb > milc.psa_magic,
            "milc: 2MB {:.3} vs PSA {:.3}",
            milc.psa_magic_2mb,
            milc.psa_magic
        );
    }
}
