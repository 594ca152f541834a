//! `psa-perfbench`: one command per workload that runs the simulator or
//! its server, checks the outputs, and prints every metric by name with
//! its unit. See `README.md` beside this crate.
//!
//! ```text
//! psa-perfbench --workload <fig08_spp|serve_sweeps>
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! — end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. `psa-perfbench daemon <psa_serve serve flags>` runs the
//! experiment server itself; `serve_sweeps` starts it that way.

mod layers;
mod serve;
mod sim;
mod util;

use std::time::Instant;
use util::{median, tail, Metrics, Spans, Tally, WorkDir};

/// The seed used when `--seed` is absent; its result digests are pinned.
const DEFAULT_SEED: u64 = 1;

/// Warm-up snapshots a traced run keeps for the store rows.
const SNAPSHOTS_KEPT: usize = 8;

/// End-to-end metrics, printed with `--trace 0` (every workload).
const END_TO_END: [&str; 10] = [
    "setup_s",
    "sim_minstr_per_s",
    "peak_rss_mb",
    "fresh_job_ms.p50",
    "fresh_job_ms.p90",
    "overlap_job_ms.p50",
    "overlap_job_ms.p90",
    "repeat_job_ms.p50",
    "repeat_job_ms.p90",
    "jobs_per_s",
];

/// Per-layer metrics, printed with `--trace 1` (every workload).
const PER_LAYER: [&str; 52] = [
    "traces.gen.ns_per_instr",
    "traces.replay.ns_per_instr",
    "traces.open_verify_ms",
    "vmem.translate.ns_per_op",
    "vmem.dtlb_miss_pki",
    "vmem.page_walks_pki",
    "cache.l1d.probe.ns_per_op",
    "cache.l2c.probe.ns_per_op",
    "cache.llc.fill.ns_per_op",
    "cache.mshr.alloc_drain.ns_per_op",
    "cache.l2c.mpki",
    "cache.llc.mpki",
    "cache.l2c.pf_accuracy",
    "prefetchers.SPP.orig.on_access.ns_per_op",
    "prefetchers.SPP.psa.on_access.ns_per_op",
    "prefetchers.SPP.psa2m.on_access.ns_per_op",
    "prefetchers.SPP.psasd.on_access.ns_per_op",
    "prefetchers.BOP.psasd.on_access.ns_per_op",
    "prefetchers.VLDP.psasd.on_access.ns_per_op",
    "prefetchers.DSPatch.psasd.on_access.ns_per_op",
    "prefetchers.Pangloss.psasd.on_access.ns_per_op",
    "core.candidates_per_access",
    "core.boundary.discard_ratio",
    "core.sd.psa2m_share",
    "core.useful_late_ratio",
    "dram.access.ns_per_op",
    "dram.row_hit_rate",
    "dram.queue_delay_mean_cycles",
    "sim.build_ms",
    "sim.warmup.minstr_per_s",
    "sim.measure.minstr_per_s",
    "sim.snapshot.encode_ms",
    "sim.snapshot.decode_ms",
    "sim.restore_ms",
    "sim.snapshot.bytes",
    "sim.traced.minstr_per_s",
    "sim.trace_overhead",
    "store.put.us_per_op",
    "store.get_mem.us_per_op",
    "store.get_disk.us_per_op",
    "store.open_recover_ms",
    "store.puts",
    "store.hits",
    "store.misses",
    "service.spec_parse.us_per_op",
    "report.doc_render.us_per_op",
    "serve.http_rtt_ms",
    "serve.handle.us_per_op",
    "serve.rtt_minus_handle_ms",
    "serve.jobs_accepted",
    "serve.jobs_deduped",
    "serve.jobs_from_cache",
];

/// Digests of the simulated results at [`DEFAULT_SEED`]: a model change
/// must not pass as a speed-up.
pub fn pinned_digest(workload: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    match workload {
        "fig08_spp" => Some(0x57c9_098e_9008_5ac7),
        "serve_sweeps" => Some(0x9fa6_fe9e_e5e9_ae34),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let workload = value("--workload").ok_or("--workload is required")?.clone();
    let num = |name: &str, default: &str| -> Result<String, String> {
        Ok(value(name).map_or(default.to_string(), String::clone))
    };
    let seed = num("--seed", "1")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = num("--seconds", "50")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    let trace = match num("--trace", "0")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        let mut serve_args = vec!["serve".to_string()];
        serve_args.extend_from_slice(&args[1..]);
        std::process::exit(psa_serve::cli::run(&serve_args));
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: psa-perfbench --workload <fig08_spp|serve_sweeps> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    // The simulator reads PSA_* variables; the benchmark fixes every
    // setting itself, so none may leak in from the caller.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("PSA_") {
            std::env::remove_var(k);
        }
    }
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let work = WorkDir::create(&format!("{}-{}", args.workload, std::process::id()))
        .map_err(|e| format!("work directory: {e}"))?;
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut spans = Spans::new(args.trace);
    match args.workload.as_str() {
        "fig08_spp" => {
            let plan = sim::fig08_plan(args.seed);
            sim_workload(args, &plan, &work, &mut m, &mut tally, &mut spans)?;
        }
        "serve_sweeps" => serve_workload(args, &work, &mut m, &mut tally, &mut spans)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    if args.trace {
        let path = util::spans_path(&args.workload, args.seed)
            .map_err(|e| format!("spans directory: {e}"))?;
        spans
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        );
        for (name, count, total, own) in spans.self_times() {
            eprintln!(
                "perfbench: span {name:24} x{count:<5} total {total:10.2} ms  self {own:10.2} ms"
            );
        }
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let selected = m
        .select(names)
        .map_err(|missing| format!("metrics not measured: {}", missing.join(", ")))?;
    Ok(selected.result_line(tally.failed == 0, tally.attempted, tally.failed))
}

/// `fig08_spp`.
fn sim_workload(
    args: &Args,
    plan: &sim::Plan,
    work: &WorkDir,
    m: &mut Metrics,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Result<(), String> {
    let reports = if args.trace {
        let root = spans.open("pass.untraced", 0, 0);
        let round = sim::round(plan, SNAPSHOTS_KEPT, tally, spans, root);
        spans.close(root);
        sim::traced_rows(plan, &round, tally, spans, m);
        let inputs = layers::Inputs {
            config: plan.config.with_seed(plan.cells[0].seed),
            specs: specs_of(&plan.cells),
            snapshots: &round.snapshots,
            reports: labelled(&plan.cells, &round.reports),
            bodies: vec![sweep_body(plan)],
            docs: Vec::new(),
            store_counts: None,
        };
        layers::run(&inputs, work, true, m, tally, spans)?;
        layers::http_rtt(work, m, spans)?;
        round.reports
    } else {
        let start = Instant::now();
        let first = sim::round(plan, 0, tally, spans, 0);
        // The footprint of simulating every cell once, single-threaded:
        // the timing lanes below add a second machine and allocator arena
        // of the benchmark's own.
        m.put(
            "peak_rss_mb",
            util::peak_rss_mb(None).ok_or("no /proc/self/status")?,
            "MB",
        );
        let lanes = sim::timed_lanes(plan, &first, start, args.seconds);
        let mut best = first.times.clone();
        let mut rounds = 1;
        for lane in &lanes {
            sim::keep_best(&mut best, &lane.best);
            tally.merge(&lane.tally);
            rounds += lane.setups.len();
        }
        // Each lane's median set-up; the faster CPU's counts.
        let setup_s = lanes
            .iter()
            .map(|l| median(&l.setups))
            .fold(first.setup_s, f64::min);
        m.put("setup_s", setup_s, "s");
        let sim_s: f64 = best.iter().map(|t| t.sim_s).sum();
        let instructions = sim::cell_instructions(&plan.config) * best.len() as u64;
        m.put(
            "sim_minstr_per_s",
            instructions as f64 / sim_s / 1e6,
            "Minstr/s",
        );
        let mut busy_s = 0.0;
        for (name, samples) in [
            (
                "fresh_job_ms",
                best.iter().map(|t| t.fresh_ms).collect::<Vec<_>>(),
            ),
            (
                "overlap_job_ms",
                best.iter().map(|t| t.overlap_ms).collect(),
            ),
            ("repeat_job_ms", best.iter().map(|t| t.repeat_ms).collect()),
        ] {
            let (p, pct) = tail(&samples);
            eprintln!(
                "perfbench: {name}: {} cells, best of {rounds} rounds on {} CPUs, \
                 p50 {:.4} ms, p{pct:.0} {p:.4} ms",
                samples.len(),
                lanes.len(),
                median(&samples)
            );
            m.put(format!("{name}.p50"), median(&samples), "ms");
            m.put(format!("{name}.p90"), p, "ms");
            busy_s += samples.iter().sum::<f64>() / 1e3;
        }
        m.put("jobs_per_s", 3.0 * best.len() as f64 / busy_s, "1/s");
        // One traced cell must reproduce its untraced report.
        if let (Some(cell), Some(Some(untraced))) = (plan.cells.first(), first.reports.first()) {
            let traced = sim::run_traced(plan.config, cell).map(|(r, _)| r);
            tally.check(
                traced.as_ref() == Ok(untraced),
                "traced run differs from untraced",
            );
        }
        first.reports
    };
    sim::check_replay(plan, &reports, work, tally)?;
    let digest = sim::digest(&reports);
    eprintln!("perfbench: results digest {digest:016x}");
    if let Some(pinned) = pinned_digest(&args.workload, args.seed) {
        tally.check(digest == pinned, "results match the pinned digest");
    }
    Ok(())
}

/// The distinct synthetic workloads behind `cells`, in first-use order.
fn specs_of(cells: &[sim::Cell]) -> Vec<&'static psa_traces::WorkloadSpec> {
    let mut specs: Vec<&'static psa_traces::WorkloadSpec> = Vec::new();
    for c in cells {
        if !specs.iter().any(|s| s.name == c.spec.name) {
            specs.push(c.spec);
        }
    }
    specs
}

/// Each cell's report, where it has one, with its workload and variant.
fn labelled(
    cells: &[sim::Cell],
    reports: &[Option<psa_sim::RunReport>],
) -> Vec<(String, String, psa_sim::RunReport)> {
    cells
        .iter()
        .zip(reports)
        .filter_map(|(c, r)| {
            let r = r.clone()?;
            Some((c.wref.name().to_string(), c.variant.label(), r))
        })
        .collect()
}

/// The sweep spec a client would send for `plan`'s cells.
fn sweep_body(plan: &sim::Plan) -> String {
    let quote = |v: Vec<String>| {
        v.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut variants: Vec<String> = plan.cells.iter().map(|c| c.variant.label()).collect();
    variants.sort();
    variants.dedup();
    let mut names: Vec<String> = plan.cells.iter().map(|c| c.spec.name.to_string()).collect();
    names.sort();
    names.dedup();
    format!(
        "{{\"figure\": \"fig08\", \"workloads\": [{}], \"variants\": [{}], \"seed\": {}, \
         \"warmup\": {}, \"instructions\": {}}}",
        quote(names),
        quote(variants),
        plan.cells[0].seed,
        plan.config.warmup,
        plan.config.instructions
    )
}

/// `serve_sweeps`.
fn serve_workload(
    args: &Args,
    work: &WorkDir,
    m: &mut Metrics,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Result<(), String> {
    let session = serve::session(args.seed, args.seconds, work, m, tally, spans)?;
    if !args.trace {
        return Ok(());
    }
    let plan = sim::Plan {
        config: serve::cell_config(session.seed0),
        cells: serve::traced_cells(session.seed0),
    };
    let root = spans.open("pass.untraced", 0, 0);
    let round = sim::round(&plan, SNAPSHOTS_KEPT, tally, spans, root);
    spans.close(root);
    sim::traced_rows(&plan, &round, tally, spans, m);
    let inputs = layers::Inputs {
        config: plan.config,
        specs: specs_of(&plan.cells),
        snapshots: &round.snapshots,
        reports: session.reports,
        bodies: session.bodies,
        docs: session.docs,
        store_counts: Some(session.store),
    };
    layers::run(&inputs, work, false, m, tally, spans)?;
    layers::http_rtt(work, m, spans)
}
