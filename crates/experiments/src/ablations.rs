//! Design-choice ablations beyond the paper's Figure 11: the Set-Dueling
//! shape parameters the paper fixes empirically (§IV-B2: "we find that 32
//! sets are adequate for each prefetcher"; §IV-B3: "three bits for Csel
//! are adequate"). Sweeping both shows the plateau the authors describe.

use psa_common::{geomean, table::pct, Table};
use psa_core::{PageSizePolicy, SdConfig};
use psa_prefetchers::PrefetcherKind;
use psa_sim::{Json, System};

use crate::ckpt;
use crate::runner::{self, Executor, RunCache, Variant};

/// Geomean speedup of SPP-PSA-SD over SPP original for one SD shape.
#[derive(Debug, Clone, Copy)]
pub struct AblationPoint {
    /// Dedicated sets per competitor.
    pub dedicated_sets: usize,
    /// `Csel` width in bits.
    pub csel_bits: u32,
    /// Geomean speedup ratio.
    pub speedup: f64,
}

/// The swept shapes: dedicated sets at the paper's Csel width, then Csel
/// widths at the paper's set count.
pub fn sweep_shapes() -> Vec<(usize, u32)> {
    let mut v: Vec<(usize, u32)> = [8, 16, 32, 64].iter().map(|&s| (s, 3)).collect();
    v.extend([1u32, 2, 4, 5].iter().map(|&b| (32usize, b)));
    v
}

/// Run the sweep.
pub fn collect(exec: &Executor) -> Vec<AblationPoint> {
    let kind = PrefetcherKind::Spp;
    let mut cache = RunCache::new(exec, exec.config);
    let workloads = exec.workloads();
    let base_jobs: Vec<_> = workloads
        .iter()
        .map(|&w| (w, Variant::Pref(kind, PageSizePolicy::Original)))
        .collect();
    cache.run_batch(&base_jobs);
    let base = Variant::Pref(kind, PageSizePolicy::Original);
    sweep_shapes()
        .into_iter()
        .map(|(dedicated_sets, csel_bits)| {
            let ipcs = runner::parallel_map_isolated(
                exec,
                &workloads,
                |&w| runner::JobSpec {
                    workload: w.name,
                    label: format!("ablation/sd-{dedicated_sets}-{csel_bits}"),
                },
                |&w, env| {
                    let mut config = env.config(exec.config);
                    config.sd = SdConfig {
                        dedicated_sets,
                        csel_bits,
                        ..SdConfig::default()
                    };
                    // The swept shape lives in the config, so the plain
                    // variant label keys the warm-up checkpoint.
                    let build =
                        move || System::try_single_core(config, w, kind, PageSizePolicy::PsaSd);
                    Ok(ckpt::warm_via_checkpoint(
                        exec,
                        &build,
                        &Variant::Pref(kind, PageSizePolicy::PsaSd).label(),
                    )?
                    .try_run()?
                    .ipc())
                },
            );
            let per: Vec<f64> = workloads
                .iter()
                .zip(ipcs)
                .filter_map(|(&w, ipc)| {
                    // Gaps: failed sweep cells (or a failed baseline)
                    // drop the workload from this point's geomean.
                    let ipc = ipc?;
                    if !cache.completed(w, base) {
                        return None;
                    }
                    let orig = cache.run(w, base).ipc();
                    Some(if orig > 0.0 { ipc / orig } else { 1.0 })
                })
                .collect();
            AblationPoint {
                dedicated_sets,
                csel_bits,
                speedup: if per.is_empty() { 1.0 } else { geomean(&per) },
            }
        })
        .collect()
}

/// Render the ablation.
pub fn run(exec: &Executor) -> String {
    report(exec).0
}

/// Text rendering plus the `BENCH_ablations.json` document.
pub fn report(exec: &Executor) -> (String, Json) {
    let points = collect(exec);
    let json_rows = Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::obj([
                    ("dedicated_sets", Json::uint(p.dedicated_sets as u64)),
                    ("csel_bits", Json::uint(p.csel_bits as u64)),
                    ("spp_psa_sd_geomean", Json::Num(p.speedup)),
                ])
            })
            .collect(),
    );
    let doc = runner::doc(
        "ablations",
        "Set-Dueling shape sweep (paper fixes 32 sets / 3 bits empirically)",
        exec,
        json_rows,
    );
    let mut t = Table::new(vec![
        "dedicated sets".into(),
        "Csel bits".into(),
        "SPP-PSA-SD geomean %".into(),
    ]);
    for p in &points {
        t.row(vec![
            p.dedicated_sets.to_string(),
            p.csel_bits.to_string(),
            pct((p.speedup - 1.0) * 100.0),
        ]);
    }
    let text = format!(
        "Ablation — Set-Dueling shape (paper fixes 32 sets / 3 bits empirically)\n{}",
        t.render()
    );
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_cover_both_axes() {
        let shapes = sweep_shapes();
        assert!(shapes.contains(&(32, 3)), "the paper's point must be swept");
        assert_eq!(shapes.len(), 8);
    }

    #[test]
    fn tiny_sweep_is_sane() {
        let exec = Executor::new(
            crate::RunnerOptions::default()
                .with_workload_limit(3)
                .with_warmup(1_000)
                .with_instructions(4_000),
        );
        let points = collect(&exec);
        assert_eq!(points.len(), 8);
        assert!(points.iter().all(|p| p.speedup > 0.2 && p.speedup < 5.0));
    }
}
