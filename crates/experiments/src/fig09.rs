//! Figure 9: geomean speedups of the PSA, PSA-2MB and PSA-SD versions of
//! SPP, VLDP, PPF and BOP over each prefetcher's original implementation,
//! per suite group (SPEC / GAP+ML+CLOUD / QMM) and over all workloads.

use psa_common::{geomean, table::pct, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::Json;
use psa_traces::{SuiteGroup, WorkloadSpec};

use crate::runner::{self, Executor, RunCache, Variant};

/// Geomean speedups for one (prefetcher, variant) cell.
#[derive(Debug, Clone)]
pub struct Fig09Cell {
    /// Prefetcher.
    pub kind: PrefetcherKind,
    /// Variant.
    pub policy: PageSizePolicy,
    /// Geomean per group, in [SPEC, GAP+ML+CLOUD, QMM] order.
    pub per_group: [f64; 3],
    /// Geomean across all workloads.
    pub all: f64,
}

const GROUPS: [SuiteGroup; 3] = [SuiteGroup::Spec, SuiteGroup::GapMlCloud, SuiteGroup::Qmm];

/// Run the full sweep over the given workloads (injectable so the
/// non-intensive experiment can reuse it).
pub fn collect_over(exec: &Executor, workloads: &[&'static WorkloadSpec]) -> Vec<Fig09Cell> {
    let mut out = Vec::new();
    for kind in PrefetcherKind::EVALUATED {
        let mut cache = RunCache::new(exec, exec.config);
        let base = Variant::Pref(kind, PageSizePolicy::Original);
        let variants: Vec<Variant> = PageSizePolicy::ALL
            .into_iter()
            .map(|policy| Variant::Pref(kind, policy))
            .collect();
        let jobs: Vec<_> = workloads
            .iter()
            .flat_map(|&w| variants.iter().map(move |&v| (w, v)))
            .collect();
        cache.run_batch(&jobs);
        // A failed workload drops out of every geomean for this kind; the
        // fault is recorded in the document's `failures` array.
        let survivors = cache.surviving(workloads, &variants);
        for policy in [
            PageSizePolicy::Psa,
            PageSizePolicy::Psa2m,
            PageSizePolicy::PsaSd,
        ] {
            let speedups: Vec<(SuiteGroup, f64)> = survivors
                .iter()
                .map(|&w| {
                    (
                        w.suite.group(),
                        cache.speedup(w, Variant::Pref(kind, policy), base),
                    )
                })
                .collect();
            let per_group = GROUPS.map(|g| {
                geomean(
                    &speedups
                        .iter()
                        .filter(|(sg, _)| *sg == g)
                        .map(|(_, s)| *s)
                        .collect::<Vec<_>>(),
                )
            });
            let all = geomean(&speedups.iter().map(|(_, s)| *s).collect::<Vec<_>>());
            out.push(Fig09Cell {
                kind,
                policy,
                per_group,
                all,
            });
        }
    }
    out
}

/// Run over the standard workload selection.
pub fn collect(exec: &Executor) -> Vec<Fig09Cell> {
    collect_over(exec, &exec.workloads())
}

/// Render the figure.
pub fn run(exec: &Executor) -> String {
    render(
        &collect(exec),
        "Figure 9 — geomean speedup over each prefetcher's original (%)",
    )
}

/// Text rendering plus the `BENCH_fig09.json` document.
pub fn report(exec: &Executor) -> (String, Json) {
    let cells = collect(exec);
    let text = render(
        &cells,
        "Figure 9 — geomean speedup over each prefetcher's original (%)",
    );
    let doc = runner::doc(
        "fig09",
        "geomean speedup over each prefetcher's original",
        exec,
        cells_json(&cells),
    );
    (text, doc)
}

/// Cells as JSON rows (shared with the non-intensive experiment).
pub fn cells_json(cells: &[Fig09Cell]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::obj([
                    ("prefetcher", Json::str(c.kind.name())),
                    ("variant", Json::str(c.policy.to_string())),
                    ("spec_geomean", Json::Num(c.per_group[0])),
                    ("gap_ml_cloud_geomean", Json::Num(c.per_group[1])),
                    ("qmm_geomean", Json::Num(c.per_group[2])),
                    ("all_geomean", Json::Num(c.all)),
                ])
            })
            .collect(),
    )
}

/// Render a cell list under a title.
pub fn render(cells: &[Fig09Cell], title: &str) -> String {
    let mut t = Table::new(vec![
        "prefetcher".into(),
        "variant".into(),
        "SPEC".into(),
        "GAP+ML+CLOUD".into(),
        "QMM".into(),
        "ALL".into(),
    ]);
    for c in cells {
        t.row(vec![
            c.kind.name().into(),
            c.policy.to_string(),
            pct((c.per_group[0] - 1.0) * 100.0),
            pct((c.per_group[1] - 1.0) * 100.0),
            pct((c.per_group[2] - 1.0) * 100.0),
            pct((c.all - 1.0) * 100.0),
        ]);
    }
    format!("{title}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bop_variants_are_identical() {
        let exec = Executor::new(
            crate::RunnerOptions::default()
                .with_workload_limit(6)
                .with_warmup(2_000)
                .with_instructions(8_000),
        );
        let cells = collect(&exec);
        assert_eq!(cells.len(), 12);
        // §VI-B1: BOP has no page-indexed structure, so PSA == PSA-2MB ==
        // PSA-SD exactly.
        let bop: Vec<&Fig09Cell> = cells
            .iter()
            .filter(|c| c.kind == PrefetcherKind::Bop)
            .collect();
        assert_eq!(bop.len(), 3);
        for c in &bop[1..] {
            assert!(
                (c.all - bop[0].all).abs() < 1e-9,
                "BOP variants must degenerate: {} vs {}",
                c.all,
                bop[0].all
            );
        }
    }
}
