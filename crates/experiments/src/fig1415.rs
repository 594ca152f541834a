//! Figures 14 and 15: multi-core evaluation. Weighted speedups (§V-B) of
//! the PSA and PSA-SD versions over each prefetcher's original, across
//! random 4-core and 8-core mixes.

use psa_common::{geomean, stats::weighted_speedup, DistSummary, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::{Json, MultiReport, SimConfig, System};
use psa_traces::{mixes::random_mixes, WorkloadSpec};
use std::collections::{HashMap, HashSet};

use crate::ckpt;
use crate::runner::{self, Executor, Variant};

/// The distribution of per-mix weighted speedups for one configuration.
#[derive(Debug, Clone)]
pub struct MultiBar {
    /// Label, e.g. "SPP-PSA-SD".
    pub label: String,
    /// Weighted speedup per mix.
    pub per_mix: Vec<f64>,
}

fn policy_label(kind: PrefetcherKind, policy: PageSizePolicy) -> &'static str {
    // A tiny interner so the cache key stays Copy; the label set is finite.
    match (kind, policy) {
        (PrefetcherKind::Spp, PageSizePolicy::Original) => "spp-o",
        (PrefetcherKind::Spp, PageSizePolicy::Psa) => "spp-p",
        (PrefetcherKind::Spp, PageSizePolicy::PsaSd) => "spp-s",
        (PrefetcherKind::Vldp, PageSizePolicy::Original) => "vldp-o",
        (PrefetcherKind::Vldp, PageSizePolicy::Psa) => "vldp-p",
        (PrefetcherKind::Vldp, PageSizePolicy::PsaSd) => "vldp-s",
        (PrefetcherKind::Ppf, PageSizePolicy::Original) => "ppf-o",
        (PrefetcherKind::Ppf, PageSizePolicy::Psa) => "ppf-p",
        (PrefetcherKind::Ppf, PageSizePolicy::PsaSd) => "ppf-s",
        (PrefetcherKind::Bop, PageSizePolicy::Original) => "bop-o",
        (PrefetcherKind::Bop, PageSizePolicy::Psa) => "bop-p",
        _ => "other",
    }
}

/// The seven bar configurations of Figures 14/15.
pub fn bar_set() -> Vec<(PrefetcherKind, PageSizePolicy)> {
    vec![
        (PrefetcherKind::Spp, PageSizePolicy::Psa),
        (PrefetcherKind::Spp, PageSizePolicy::PsaSd),
        (PrefetcherKind::Vldp, PageSizePolicy::Psa),
        (PrefetcherKind::Vldp, PageSizePolicy::PsaSd),
        (PrefetcherKind::Ppf, PageSizePolicy::Psa),
        (PrefetcherKind::Ppf, PageSizePolicy::PsaSd),
        (PrefetcherKind::Bop, PageSizePolicy::Psa),
    ]
}

/// Run the evaluation for `cores`-wide mixes.
///
/// The expensive multi-core simulations fan out with
/// [`runner::parallel_map_isolated`]: isolation IPCs and Original
/// baselines are deduplicated to one run per `(prefetcher, workload)` /
/// `(prefetcher, mix)` pair, then each bar's evaluated mixes run
/// concurrently. Every simulation is seed-deterministic, so the output
/// matches the serial order exactly. A faulty job drops the affected
/// mixes from the distribution (an explicit gap, journalled in the
/// document's `failures` array) instead of aborting the figure; warm-ups
/// share through the checkpoint store.
pub fn collect(exec: &Executor, cores: usize) -> Vec<MultiBar> {
    let mut config = SimConfig::for_cores(cores);
    config.warmup = exec.config.warmup;
    config.instructions = exec.config.instructions;
    config.seed = exec.config.seed;
    let mixes = random_mixes(exec.mixes(), cores, config.seed);
    let bars = bar_set();

    // Unique prefetcher kinds, in bar order.
    let mut kinds: Vec<PrefetcherKind> = Vec::new();
    for &(kind, _) in &bars {
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }

    // Isolation IPCs: one single-core run per (prefetcher, workload) pair.
    let mut iso_jobs: Vec<(PrefetcherKind, &'static WorkloadSpec)> = Vec::new();
    let mut seen: HashSet<(&'static str, &'static str)> = HashSet::new();
    for &kind in &kinds {
        let label = policy_label(kind, PageSizePolicy::Original);
        for mix in &mixes {
            for &w in mix {
                if seen.insert((w.name, label)) {
                    iso_jobs.push((kind, w));
                }
            }
        }
    }
    let iso_vals = runner::parallel_map_isolated(
        exec,
        &iso_jobs,
        |&(kind, w)| runner::JobSpec {
            workload: w.name,
            label: format!("{}/iso", policy_label(kind, PageSizePolicy::Original)),
        },
        |&(kind, w), env| {
            let mut solo = env.config(config);
            solo.cores = 1;
            let build = move || System::try_multi_core(solo, &[w], kind, PageSizePolicy::Original);
            ckpt::warm_via_checkpoint(
                exec,
                &build,
                &Variant::Pref(kind, PageSizePolicy::Original).label(),
            )?
            .try_run_multi()
            .map(|r| r.ipc[0])
        },
    );
    let iso: HashMap<(&'static str, &'static str), f64> = iso_jobs
        .iter()
        .zip(iso_vals)
        .filter_map(|(&(kind, w), v)| {
            v.map(|v| ((w.name, policy_label(kind, PageSizePolicy::Original)), v))
        })
        .collect();

    // Original-baseline multi-core runs: one per (prefetcher, mix).
    let base_jobs: Vec<(PrefetcherKind, usize)> = kinds
        .iter()
        .flat_map(|&k| (0..mixes.len()).map(move |i| (k, i)))
        .collect();
    let base_vals = runner::parallel_map_isolated(
        exec,
        &base_jobs,
        |&(kind, i)| runner::JobSpec {
            workload: mixes[i][0].name,
            label: format!("{}/mix{}", policy_label(kind, PageSizePolicy::Original), i),
        },
        |&(kind, i), env| {
            let cfg = env.config(config);
            let mix = &mixes[i];
            let build = move || System::try_multi_core(cfg, mix, kind, PageSizePolicy::Original);
            ckpt::warm_via_checkpoint(
                exec,
                &build,
                &Variant::Pref(kind, PageSizePolicy::Original).label(),
            )?
            .try_run_multi()
        },
    );
    let base: HashMap<(&'static str, usize), MultiReport> = base_jobs
        .iter()
        .zip(base_vals)
        .filter_map(|(&(kind, i), r)| {
            r.map(|r| ((policy_label(kind, PageSizePolicy::Original), i), r))
        })
        .collect();

    let mix_indices: Vec<usize> = (0..mixes.len()).collect();
    bars.into_iter()
        .map(|(kind, policy)| {
            let evals = runner::parallel_map_isolated(
                exec,
                &mix_indices,
                |&i| runner::JobSpec {
                    workload: mixes[i][0].name,
                    label: format!("{}/mix{}", policy_label(kind, policy), i),
                },
                |&i, env| {
                    let cfg = env.config(config);
                    let mix = &mixes[i];
                    let build = move || System::try_multi_core(cfg, mix, kind, policy);
                    ckpt::warm_via_checkpoint(exec, &build, &Variant::Pref(kind, policy).label())?
                        .try_run_multi()
                },
            );
            // Gaps: a mix contributes only when its evaluation, its
            // Original baseline and every member's isolation IPC all
            // completed; failed jobs are journalled in `failures`.
            let per_mix: Vec<f64> = evals
                .iter()
                .enumerate()
                .filter_map(|(i, eval)| {
                    let eval = eval.as_ref()?;
                    let label = policy_label(kind, PageSizePolicy::Original);
                    let isolation: Vec<f64> = mixes[i]
                        .iter()
                        .map(|w| iso.get(&(w.name, label)).copied())
                        .collect::<Option<_>>()?;
                    let base = base.get(&(label, i))?;
                    Some(weighted_speedup(&eval.ipc, &base.ipc, &isolation))
                })
                .collect();
            MultiBar {
                label: format!("{}{}", kind.name(), policy.suffix()),
                per_mix,
            }
        })
        .collect()
}

/// Render one figure (4-core → Figure 14, 8-core → Figure 15).
pub fn run(exec: &Executor, cores: usize) -> String {
    report(exec, cores).0
}

/// Text rendering plus the `BENCH_fig14.json` / `BENCH_fig15.json`
/// document.
pub fn report(exec: &Executor, cores: usize) -> (String, Json) {
    let bars = collect(exec, cores);
    let figure = if cores == 4 { "fig14" } else { "fig15" };
    let json_rows = Json::Arr(
        bars.iter()
            .map(|b| {
                Json::obj([
                    ("configuration", Json::str(&b.label)),
                    ("geomean_weighted_speedup", Json::Num(geomean(&b.per_mix))),
                    (
                        "per_mix_weighted_speedup",
                        Json::Arr(b.per_mix.iter().map(|&s| Json::Num(s)).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let mut doc = runner::doc(
        figure,
        "multi-core weighted speedups over each original",
        exec,
        json_rows,
    );
    doc.push("cores", Json::uint(cores as u64));
    doc.push(
        "mixes",
        Json::uint(bars.first().map_or(0, |b| b.per_mix.len()) as u64),
    );
    let mut t = Table::new(vec![
        "configuration".into(),
        "geomean %".into(),
        "distribution (weighted speedup %)".into(),
    ]);
    for b in &bars {
        let pcts: Vec<f64> = b.per_mix.iter().map(|s| (s - 1.0) * 100.0).collect();
        let g = (geomean(&b.per_mix) - 1.0) * 100.0;
        t.row(vec![
            b.label.clone(),
            format!("{g:+.1}"),
            DistSummary::of(&pcts).to_string(),
        ]);
    }
    let text = format!(
        "Figure {} — {}-core weighted speedups over each original, {} mixes\n{}",
        if cores == 4 { 14 } else { 15 },
        cores,
        bars.first().map_or(0, |b| b.per_mix.len()),
        t.render()
    );
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_core_smoke() {
        let exec = Executor::new(
            crate::RunnerOptions::default()
                .with_mixes(2)
                .with_warmup(500)
                .with_instructions(2_500),
        );
        let bars = collect(&exec, 2);
        assert_eq!(bars.len(), 7);
        for b in &bars {
            assert_eq!(b.per_mix.len(), 2);
            assert!(
                b.per_mix.iter().all(|&s| s > 0.2 && s < 5.0),
                "{}: {:?}",
                b.label,
                b.per_mix
            );
        }
    }
}
