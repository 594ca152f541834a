//! Trace replay: stream a recorded `.psatrace` workload through the
//! full machine under the SPP variant ladder (repo extension).
//!
//! Unlike the synthetic figures, this experiment replays a *committed*
//! trace file — by default the sample fixture at
//! `crates/experiments/tests/golden/sample.psatrace`, overridable with
//! [`crate::RunnerOptions::trace_file`] (`PSA_TRACE_FILE`) — so its `BENCH_trace_replay.json` rows are
//! reproducible bit-for-bit from the repository alone. The workload name
//! embeds the file's content hash (`trace:<name>@<hash>`), which makes
//! every checkpoint and report-memo key content-addressed for free.
//!
//! An unopenable or corrupt trace never panics the figure: the typed
//! [`psa_traces::TraceError`] is journalled into the document's
//! `failures` array and the rows render as an explicit gap.

use psa_common::{table::pct, Table};
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::Json;
use psa_traces::{intern, TraceRef, WorkloadRef};
use std::path::PathBuf;

use crate::runner::{self, Executor, RunCache, Variant};

/// The variant ladder the replay runs: the speedup baseline, original
/// SPP, and the paper's page-size-aware refinements.
pub fn variants() -> [(&'static str, Variant); 4] {
    [
        ("no-prefetch", Variant::NoPrefetch),
        (
            "SPP",
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Original),
        ),
        (
            "SPP-PSA",
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::Psa),
        ),
        (
            "SPP-PSA-SD",
            Variant::Pref(PrefetcherKind::Spp, PageSizePolicy::PsaSd),
        ),
    ]
}

/// One variant's results over the replayed trace.
#[derive(Debug, Clone)]
pub struct TraceReplayRow {
    /// Variant label (ladder name, not [`Variant::label`]).
    pub variant: &'static str,
    /// Instructions per cycle.
    pub ipc: f64,
    /// IPC ratio over the no-prefetch baseline.
    pub speedup: f64,
    /// L2C demand misses per kilo-instruction.
    pub l2c_mpki: f64,
    /// LLC demand misses per kilo-instruction.
    pub llc_mpki: f64,
}

/// Open and replay the configured trace under every ladder variant.
///
/// Returns the verified [`TraceRef`] (None when the file could not be
/// opened — the typed error is journalled, never panicked) plus one row
/// per variant that completed. A variant that fails mid-replay (e.g. the
/// file is corrupted underneath the run) is likewise journalled and its
/// row dropped.
pub fn collect(exec: &Executor) -> (Option<TraceRef>, Vec<TraceReplayRow>) {
    let path = exec.opts.trace_file.clone().unwrap_or_else(|| {
        PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/sample.psatrace"
        ))
    });
    let opened = match path.to_str() {
        Some(p) => TraceRef::open(p).map_err(|e| format!("trace replay failed: {e}")),
        None => Err("trace replay failed: path is not valid UTF-8".into()),
    };
    let tref = match opened {
        Ok(t) => t,
        Err(reason) => {
            let workload = intern(&format!("trace-file:{}", path.display()));
            exec.journal_failure(workload, "open".into(), &reason, false);
            return (None, Vec::new());
        }
    };

    let wref = WorkloadRef::TraceFile(tref);
    let mut cache = RunCache::new(exec, exec.config);
    let ladder = variants();
    let jobs: Vec<(WorkloadRef, Variant)> = ladder.iter().map(|&(_, v)| (wref, v)).collect();
    cache.run_batch(&jobs);

    let base_ipc = cache
        .outcome(wref, Variant::NoPrefetch)
        .report()
        .map(psa_sim::RunReport::ipc);
    let mut rows = Vec::new();
    for &(label, v) in &ladder {
        // A failed variant is already in the failure journal; its row is
        // an explicit gap, exactly like a failed workload in fig08.
        let Some(r) = cache.outcome(wref, v).report() else {
            continue;
        };
        let ipc = r.ipc();
        let speedup = match base_ipc {
            Some(b) if b > 0.0 => ipc / b,
            _ => 1.0,
        };
        rows.push(TraceReplayRow {
            variant: label,
            ipc,
            speedup,
            l2c_mpki: r.l2c_mpki(),
            llc_mpki: r.llc_mpki(),
        });
    }
    (Some(tref), rows)
}

/// Render the figure.
pub fn run(exec: &Executor) -> String {
    report(exec).0
}

/// Text rendering plus the `BENCH_trace_replay.json` document.
///
/// The trace's provenance (replayed path, content hash, per-pass header
/// counts) rides along under `"trace"`, *after* the `"executor"` field —
/// outside the golden-stable section, because the path is host-specific.
pub fn report(exec: &Executor) -> (String, Json) {
    let (tref, rows) = collect(exec);
    let json_rows = Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("variant", Json::str(r.variant)),
                    ("ipc", Json::Num(r.ipc)),
                    ("speedup", Json::Num(r.speedup)),
                    ("l2c_mpki", Json::Num(r.l2c_mpki)),
                    ("llc_mpki", Json::Num(r.llc_mpki)),
                ])
            })
            .collect(),
    );
    let mut doc = runner::doc(
        "trace_replay",
        "SPP ladder over a streamed recorded trace",
        exec,
        json_rows,
    );
    if let Some(t) = tref {
        doc.push(
            "trace",
            Json::obj([
                ("workload", Json::str(t.name)),
                ("path", Json::str(t.path)),
                (
                    "content_hash",
                    Json::str(format!("{:016x}", t.content_hash)),
                ),
                ("instructions_per_pass", Json::uint(t.instructions)),
                ("records_per_pass", Json::uint(t.records)),
            ]),
        );
    }

    let mut t = Table::new(vec![
        "variant".into(),
        "IPC".into(),
        "speedup %".into(),
        "L2C MPKI".into(),
        "LLC MPKI".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.variant.into(),
            format!("{:.4}", r.ipc),
            pct((r.speedup - 1.0) * 100.0),
            format!("{:.3}", r.l2c_mpki),
            format!("{:.3}", r.llc_mpki),
        ]);
    }
    let header = match tref {
        Some(t) => format!("{} ({} instrs/pass)", t.name, t.instructions),
        None => "<trace unavailable — see failures>".into(),
    };
    let text = format!("Trace replay — {header}\n{}", t.render());
    (text, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunnerOptions;
    use psa_traces::format::TraceWriter;
    use psa_traces::{catalog, TraceGenerator};

    struct TempTrace(PathBuf);

    impl TempTrace {
        fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "psa_trace_replay_fig_{}_{}.psatrace",
                std::process::id(),
                tag
            ));
            TempTrace(p)
        }
    }

    impl Drop for TempTrace {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn record(path: &std::path::Path, workload: &str, seed: u64, n: u64) {
        let spec = catalog::workload(workload).expect("in catalog");
        let mut gen = TraceGenerator::new(spec, seed);
        let mut w =
            TraceWriter::create(path, spec.name, spec.huge_fraction).expect("create temp trace");
        for _ in 0..n {
            w.push_instr(&gen.next().expect("infinite")).expect("write");
        }
        w.finish().expect("finish");
    }

    /// A small-budget executor replaying `trace`.
    fn small_exec(trace: &TempTrace) -> Executor {
        let mut opts = RunnerOptions::default()
            .with_warmup(2_000)
            .with_instructions(8_000);
        opts.trace_file = Some(trace.0.clone());
        Executor::new(opts)
    }

    #[test]
    fn replay_figure_is_deterministic_with_explicit_baseline() {
        let tmp = TempTrace::new("det");
        record(&tmp.0, "mcf", 3, 4_000);
        let exec = small_exec(&tmp);
        let (tref, rows) = collect(&exec);
        let (_, rows2) = collect(&exec);

        let tref = tref.expect("fixture opens");
        assert!(tref.name.starts_with("trace:mcf@"), "{}", tref.name);
        assert_eq!(rows.len(), variants().len(), "all four variants complete");
        assert_eq!(rows[0].variant, "no-prefetch");
        assert_eq!(rows[0].speedup, 1.0, "baseline speedup is exactly 1");
        for (a, b) in rows.iter().zip(&rows2) {
            assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{}", a.variant);
            assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{}", a.variant);
        }
    }

    #[test]
    fn mid_replay_corruption_is_a_typed_failure_row_not_a_panic() {
        let tmp = TempTrace::new("corrupt");
        record(&tmp.0, "lbm", 9, 4_000);
        let tref = TraceRef::open(tmp.0.to_str().expect("utf-8")).expect("verified");
        // Damage the file *after* verification: the open memo holds a
        // valid ref, the header still parses, and the bad block only
        // surfaces once the replay streams into it — the executor must
        // record a typed SimError::Trace gap, never unwind.
        let mut bytes = std::fs::read(&tmp.0).expect("read");
        let at = bytes.len() - 40;
        bytes[at] ^= 0x10;
        std::fs::write(&tmp.0, &bytes).expect("rewrite");

        let wref = WorkloadRef::TraceFile(tref);
        let exec = small_exec(&tmp);
        let mut cache = RunCache::new(&exec, exec.config);
        cache.run_batch(&[(wref, Variant::NoPrefetch)]);
        assert!(!cache.completed(wref, Variant::NoPrefetch));
        let failures = cache.failures_json().pretty();
        assert!(failures.contains("trace replay failed"), "{failures}");
        assert!(failures.contains(tref.name), "{failures}");
    }

    #[test]
    fn unopenable_trace_is_a_journalled_gap_not_a_panic() {
        let tmp = TempTrace::new("gone");
        let exec = small_exec(&tmp);
        let (tref, rows) = collect(&exec);
        let (text, doc) = report(&exec);

        assert!(tref.is_none());
        assert!(rows.is_empty());
        assert!(text.contains("trace unavailable"), "{text}");
        let rendered = doc.pretty();
        assert!(rendered.contains("trace replay failed"), "{rendered}");
        assert!(
            exec.failures_json().pretty().contains("trace_replay_fig"),
            "failure journalled under the trace-file pseudo-workload"
        );
    }
}
