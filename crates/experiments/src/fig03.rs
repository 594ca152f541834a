//! Figure 3: percentage of memory mapped to 2MB pages across execution,
//! for the nine representative benchmarks measured on real hardware in the
//! paper. Here the measurement runs inside the simulator's THP-style
//! virtual-memory substrate.

use psa_common::Table;
use psa_sim::Json;
use psa_traces::catalog;

use crate::runner::{self, Executor, RunCache, Variant};

/// One benchmark's usage series.
#[derive(Debug, Clone)]
pub struct Fig03Row {
    /// Benchmark name.
    pub name: &'static str,
    /// (instruction count, fraction in 2MB pages) samples.
    pub series: Vec<(u64, f64)>,
}

/// Run the experiment.
pub fn collect(exec: &Executor) -> Vec<Fig03Row> {
    let mut cache = RunCache::new(exec, exec.config);
    let workloads: Vec<_> = catalog::MOTIVATION_SET
        .iter()
        .map(|name| runner::workload(name).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    let jobs: Vec<_> = workloads
        .iter()
        .map(|&w| (w, Variant::NoPrefetch))
        .collect();
    cache.run_batch(&jobs);
    // A failed workload leaves an explicit gap (its row is dropped); the
    // fault itself is recorded in the document's `failures` array.
    cache
        .surviving(&workloads, &[Variant::NoPrefetch])
        .into_iter()
        .map(|w| {
            let report = cache.run(w, Variant::NoPrefetch);
            Fig03Row {
                name: w.name,
                series: report.thp_series.clone(),
            }
        })
        .collect()
}

/// Render: 2MB usage at 25/50/75/100% of execution.
pub fn run(exec: &Executor) -> String {
    report(exec).0
}

/// Text rendering plus the `BENCH_fig03.json` document.
pub fn report(exec: &Executor) -> (String, Json) {
    let rows = collect(exec);
    let json_rows = Json::Arr(
        rows.iter()
            .map(|row| {
                Json::obj([
                    ("benchmark", Json::str(row.name)),
                    (
                        "thp_series",
                        Json::Arr(
                            row.series
                                .iter()
                                .map(|&(instr, frac)| {
                                    Json::Arr(vec![Json::uint(instr), Json::Num(frac)])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let doc = runner::doc(
        "fig03",
        "memory mapped in 2MB pages across execution",
        exec,
        json_rows,
    );
    let mut t = Table::new(vec![
        "benchmark".into(),
        "25%".into(),
        "50%".into(),
        "75%".into(),
        "end".into(),
    ]);
    for row in &rows {
        let at = |q: f64| -> String {
            if row.series.is_empty() {
                return "-".into();
            }
            let idx = ((row.series.len() - 1) as f64 * q) as usize;
            format!("{:.0}%", row.series[idx].1 * 100.0)
        };
        t.row(vec![row.name.into(), at(0.25), at(0.5), at(0.75), at(1.0)]);
    }
    let text = format!(
        "Figure 3 — memory mapped in 2MB pages across execution\n{}",
        t.render()
    );
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_matches_each_workloads_thp_parameter() {
        let exec = Executor::new(
            crate::RunnerOptions::default()
                .with_warmup(1_000)
                .with_instructions(8_000),
        );
        let rows = collect(&exec);
        assert_eq!(rows.len(), 9);
        for row in &rows {
            let spec = catalog::workload(row.name).unwrap();
            let last = row.series.last().expect("series sampled").1;
            assert!(
                (last - spec.huge_fraction).abs() < 0.25,
                "{}: measured {last:.2} vs configured {:.2}",
                row.name,
                spec.huge_fraction
            );
        }
        // soplex stands out as 4KB-dominated, as in the paper.
        let soplex = rows.iter().find(|r| r.name == "soplex").unwrap();
        assert!(soplex.series.last().unwrap().1 < 0.35);
    }
}
