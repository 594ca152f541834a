//! §VI-B1 "Non-Intensive Workloads": augment the 80-workload set with the
//! non-intensive SPEC workloads and verify the page-size techniques still
//! help overall and never harm the quiet workloads.

use psa_common::{geomean, table::pct, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::Json;
use psa_traces::{catalog, WorkloadSpec};

use crate::fig09::{cells_json, collect_over, Fig09Cell};
use crate::runner::{self, Executor, RunCache, Variant};

/// Run the augmented-set sweep.
pub fn collect(exec: &Executor) -> Vec<Fig09Cell> {
    let mut workloads: Vec<&'static WorkloadSpec> = exec.workloads();
    workloads.extend(catalog::NON_INTENSIVE.iter());
    collect_over(exec, &workloads)
}

/// Geomean speedups of the PSA-SD variants restricted to the non-intensive
/// workloads only — the "no harm" check.
pub fn non_intensive_only(exec: &Executor) -> Vec<(PrefetcherKind, f64)> {
    PrefetcherKind::EVALUATED
        .into_iter()
        .map(|kind| {
            let mut cache = RunCache::new(exec, exec.config);
            let base = Variant::Pref(kind, PageSizePolicy::Original);
            let jobs: Vec<_> = catalog::NON_INTENSIVE
                .iter()
                .flat_map(|w| {
                    [base, Variant::Pref(kind, PageSizePolicy::PsaSd)]
                        .into_iter()
                        .map(move |v| (w, v))
                })
                .collect();
            cache.run_batch(&jobs);
            let per: Vec<f64> = catalog::NON_INTENSIVE
                .iter()
                .map(|w| cache.speedup(w, Variant::Pref(kind, PageSizePolicy::PsaSd), base))
                .collect();
            (kind, geomean(&per))
        })
        .collect()
}

/// Render the section's numbers.
pub fn run(exec: &Executor) -> String {
    report(exec).0
}

/// Text rendering plus the `BENCH_nonintensive.json` document.
pub fn report(exec: &Executor) -> (String, Json) {
    let cells = collect(exec);
    let mut out = crate::fig09::render(
        &cells,
        "§VI-B1 — intensive + non-intensive set, geomean over each original (%)",
    );
    let no_harm = non_intensive_only(exec);
    let mut t = Table::new(vec![
        "prefetcher".into(),
        "PSA-SD on non-intensive only %".into(),
    ]);
    for (kind, g) in &no_harm {
        t.row(vec![kind.name().into(), pct((g - 1.0) * 100.0)]);
    }
    out.push_str(&format!(
        "\nNo-harm check (non-intensive workloads only)\n{}",
        t.render()
    ));
    let mut doc = runner::doc(
        "nonintensive",
        "intensive + non-intensive set, geomean over each original",
        exec,
        cells_json(&cells),
    );
    doc.push(
        "no_harm_geomeans",
        Json::Arr(
            no_harm
                .iter()
                .map(|(kind, g)| {
                    Json::obj([
                        ("prefetcher", Json::str(kind.name())),
                        ("psa_sd_geomean", Json::Num(*g)),
                    ])
                })
                .collect(),
        ),
    );
    (out, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_harm_on_quiet_workloads() {
        let exec = Executor::new(
            crate::RunnerOptions::default()
                .with_warmup(2_000)
                .with_instructions(8_000),
        );
        for (kind, g) in non_intensive_only(&exec) {
            assert!(
                g > 0.93,
                "{kind}: PSA-SD must not materially harm non-intensive workloads, got {g:.3}"
            );
        }
    }
}
