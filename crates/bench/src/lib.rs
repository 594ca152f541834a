//! Support crate for the `cargo bench` experiment harnesses.
//!
//! Every figure/table of the paper has a bench target (see `benches/`);
//! each prints the regenerated rows as text and writes the same data as
//! a `BENCH_<figure>.json` document (schema in `docs/METRICS.md`) into
//! `PSA_BENCH_JSON_DIR` (default: the working directory). Scale with
//! `PSA_INSTRUCTIONS`, `PSA_WARMUP`, `PSA_WORKLOAD_LIMIT` and
//! `PSA_MIXES`; cap the parallel executor with `PSA_THREADS` — the
//! defaults run laptop-scale, the paper-faithful scale is 250M+250M
//! instructions over all 80 workloads and 100 mixes. Each bench main
//! reads the environment once, through [`executor`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use psa_experiments::{Executor, RunnerOptions};
use psa_sim::Json;
use std::path::PathBuf;

/// The bench process's executor, built from the `PSA_*` environment; a
/// malformed variable prints the error and exits with status 2.
pub fn executor() -> Executor {
    Executor::new(RunnerOptions::from_env_or_exit())
}

/// Print the standard experiment banner: the Table I configuration and the
/// scaling knobs in force.
pub fn banner(title: &str, exec: &Executor) {
    println!("=== {title} ===");
    println!(
        "budget: {} warmup + {} measured instructions/core (PSA_WARMUP / PSA_INSTRUCTIONS to scale)",
        exec.config.warmup, exec.config.instructions
    );
    println!(
        "workloads: {} (PSA_WORKLOAD_LIMIT to subsample), threads: {} (PSA_THREADS to cap)\n",
        exec.workloads().len(),
        exec.opts.effective_threads()
    );
}

/// Where emitted JSON documents go: `PSA_BENCH_JSON_DIR`, default the
/// working directory.
pub fn json_dir(exec: &Executor) -> PathBuf {
    exec.opts
        .bench_json_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Write `doc` as `BENCH_<figure>.json` into [`json_dir`] and print the
/// path and the executor summary.
///
/// # Panics
///
/// Panics if the file cannot be written — a bench run whose results are
/// silently lost is worse than a loud failure.
pub fn emit_json(exec: &Executor, figure: &str, doc: &Json) {
    let path = json_dir(exec).join(format!("BENCH_{figure}.json"));
    psa_sim::report::write_json_file(&path, doc)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
    if let Some(failures) = doc.get("failures").and_then(Json::as_arr) {
        if !failures.is_empty() {
            println!(
                "WARNING: {} failed job(s) recorded in {} — rows render with gaps; \
                 see its `failures` array",
                failures.len(),
                path.display()
            );
        }
    }
    println!("executor: {}", exec.stats().summary());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_prints() {
        banner("smoke", &Executor::new(RunnerOptions::default()));
    }
}
