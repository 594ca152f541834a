//! The simulator workload, `fig08_spp`: cells (workload × variant ×
//! seed) driven straight through the simulator's public API —
//! `Variant::build_config` → `System::try_from_refs` → `try_run`.

use crate::util::{allowed_cpus, median, mix, pin_to_cpu, secs, CpuTimer, Spans, Tally, WorkDir};
use psa_common::obs::ObsReport;
use psa_common::rng::fnv1a;
use psa_experiments::runner::Variant;
use psa_sim::{ObsConfig, RunReport, SimConfig, Snapshot, System, TraceRef, WorkloadRef};
use psa_traces::format::TraceWriter;
use psa_traces::{catalog, TraceGenerator, WorkloadSpec};
use std::path::Path;
use std::time::Instant;

/// Warm-up instructions per cell.
pub const WARMUP: u64 = 50_000;
/// Measured instructions per cell.
pub const INSTRUCTIONS: u64 = 50_000;
/// Report decodes per repeat sample.
const REPEAT_DECODES: u32 = 256;
/// Simulation seeds per workload: every (workload, variant) runs under
/// this many seeds, so a run has enough cells for a 90th percentile.
const FIG08_SEEDS: u64 = 5;
/// Instructions recorded past a cell's budget, so that replay never
/// wraps to the start of a recording (the core fetches ahead of
/// retirement).
const RECORD_SLACK: u64 = 50_000;

/// The `fig08_spp` workloads: THP fraction from 0.1 to 0.95, and the
/// stream, long-stride, 4KB-grain and pointer-chase patterns.
pub const FIG08_WORKLOADS: [&str; 6] = ["lbm", "milc", "soplex", "tc.road", "mcf", "omnetpp"];
/// The SPP policy ladder of Figure 8.
pub const FIG08_VARIANTS: [&str; 4] = ["SPP", "SPP-PSA", "SPP-PSA-2MB", "SPP-PSA-SD"];

/// One simulated cell.
#[derive(Clone, Copy)]
pub struct Cell {
    /// What runs on the core.
    pub wref: WorkloadRef,
    /// The synthetic workload behind the cell (the recording's source
    /// for a replayed cell).
    pub spec: &'static WorkloadSpec,
    /// The variant.
    pub variant: Variant,
    /// The simulation seed (`SimConfig::seed`).
    pub seed: u64,
}

impl Cell {
    /// `workload/variant`, for messages and span names.
    pub fn label(&self) -> String {
        format!("{}/{}", self.spec.name, self.variant.label())
    }

    /// A key identifying this cell's snapshots.
    fn key(&self) -> u64 {
        fnv1a(
            format!(
                "{}\0{}\0{}",
                self.wref.name(),
                self.variant.label(),
                self.seed
            )
            .as_bytes(),
        )
    }

    /// Build this cell's machine on `config`'s budget.
    pub fn build(&self, config: SimConfig) -> Result<System, psa_sim::SimError> {
        System::try_from_refs(
            self.variant.build_config(config.with_seed(self.seed)),
            &[self.wref],
        )
    }
}

/// A simulator workload: its base configuration and its cells.
pub struct Plan {
    /// Base configuration (cells set the seed, variants apply on top).
    pub config: SimConfig,
    /// The cells, in a fixed order.
    pub cells: Vec<Cell>,
}

/// The base configuration: Table I with the cell budget.
pub fn base_config() -> SimConfig {
    SimConfig::default()
        .with_warmup(WARMUP)
        .with_instructions(INSTRUCTIONS)
}

/// The `n` simulation seeds a benchmark seed derives. JSON numbers
/// (sweep specs) carry 53 bits exactly, so the seeds fit in 53.
fn sim_seeds(seed: u64, n: u64) -> Vec<u64> {
    (0..n).map(|i| mix(seed, 10 + i) >> 11).collect()
}

fn spec(name: &str) -> &'static WorkloadSpec {
    catalog::workload(name).expect("benchmark workloads are in the catalog")
}

fn variant(label: &str) -> Variant {
    Variant::parse(label).expect("benchmark variants are valid labels")
}

/// The `fig08_spp` plan.
pub fn fig08_plan(seed: u64) -> Plan {
    let mut cells = Vec::new();
    for s in sim_seeds(seed, FIG08_SEEDS) {
        for &w in &FIG08_WORKLOADS {
            for &v in &FIG08_VARIANTS {
                cells.push(Cell {
                    wref: WorkloadRef::from(spec(w)),
                    spec: spec(w),
                    variant: variant(v),
                    seed: s,
                });
            }
        }
    }
    Plan {
        config: base_config(),
        cells,
    }
}

/// Record `spec`'s instruction stream under `seed` to `path`: the same
/// stream a machine seeded with `seed` generates on core 0.
pub fn record(spec: &WorkloadSpec, seed: u64, instructions: u64, path: &str) -> Result<(), String> {
    let mut gen = TraceGenerator::new(spec, seed);
    let mut writer = TraceWriter::create(Path::new(path), spec.name, spec.huge_fraction)
        .map_err(|e| e.to_string())?;
    for _ in 0..instructions {
        let instr = gen.next().expect("the generator stream is infinite");
        writer.push_instr(&instr).map_err(|e| e.to_string())?;
    }
    writer.finish().map(|_| ()).map_err(|e| e.to_string())
}

/// What one cell measured in one round: the three job totals and the
/// phases inside them. A failed step leaves its times infinite.
#[derive(Clone, Copy)]
pub struct CellTimes {
    /// Cold run: build → report, including the warm-up snapshot and
    /// the report encoding a server would store.
    pub fresh_ms: f64,
    /// Resumed from the stored warm-up snapshot: decode → restore →
    /// measure → report.
    pub overlap_ms: f64,
    /// Answered from the stored report: decode (mean of
    /// [`REPEAT_DECODES`]).
    pub repeat_ms: f64,
    /// Host seconds spent simulating (fresh warm-up and measure,
    /// resumed measure).
    pub sim_s: f64,
    /// Machine build (fresh).
    pub build_ms: f64,
    /// Fresh warm-up, seconds.
    pub warmup_s: f64,
    /// Fresh measure, seconds.
    pub measure_s: f64,
    /// Warm-up snapshot encode.
    pub encode_ms: f64,
    /// Warm-up snapshot decode.
    pub decode_ms: f64,
    /// Restore of the decoded snapshot into a newly built machine (the
    /// build excluded).
    pub restore_ms: f64,
    /// Encoded warm-up snapshot size.
    pub snapshot_bytes: f64,
}

impl CellTimes {
    const FAILED: CellTimes = CellTimes {
        fresh_ms: f64::INFINITY,
        overlap_ms: f64::INFINITY,
        repeat_ms: f64::INFINITY,
        sim_s: f64::INFINITY,
        build_ms: f64::INFINITY,
        warmup_s: f64::INFINITY,
        measure_s: f64::INFINITY,
        encode_ms: f64::INFINITY,
        decode_ms: f64::INFINITY,
        restore_ms: f64::INFINITY,
        snapshot_bytes: f64::INFINITY,
    };
}

/// What one timed round over every cell measured.
pub struct Round {
    /// Set-up time: building every fresh machine.
    pub setup_s: f64,
    /// Per-cell times, in cell order.
    pub times: Vec<CellTimes>,
    /// The cold-run reports, in cell order.
    pub reports: Vec<Option<RunReport>>,
    /// The first cells' encoded warm-up snapshots (as many as the
    /// round was asked to keep).
    pub snapshots: Vec<Vec<u8>>,
}

/// Simulated instructions per cell per round: the fresh warm-up and
/// measure plus the resumed measure.
pub fn cell_instructions(config: &SimConfig) -> u64 {
    config.warmup + 2 * config.instructions
}

/// One timed round, keeping the first `keep` cells' warm-up snapshots.
/// Checks each resumed and re-read report against the cold one.
pub fn round(plan: &Plan, keep: usize, tally: &mut Tally, spans: &mut Spans, parent: u32) -> Round {
    let mut out = Round {
        setup_s: 0.0,
        times: Vec::new(),
        reports: Vec::new(),
        snapshots: Vec::new(),
    };
    for (i, cell) in plan.cells.iter().enumerate() {
        let mut times = CellTimes::FAILED;
        let mut snapshot = Vec::new();
        let job = i as u64 + 1;
        let report = cell_round(
            plan.config,
            cell,
            &mut times,
            &mut snapshot,
            tally,
            spans,
            parent,
            job,
        );
        out.setup_s += times.build_ms / 1e3;
        if out.snapshots.len() < keep && !snapshot.is_empty() {
            out.snapshots.push(snapshot);
        }
        out.times.push(times);
        out.reports.push(report);
    }
    out
}

/// Time `f` on the thread's CPU clock, recording it as span `name`;
/// returns its value and CPU seconds.
fn timed<T>(
    spans: &mut Spans,
    name: &str,
    parent: u32,
    job: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t = CpuTimer::start();
    let s = spans.open(name, parent, job);
    let v = f();
    spans.close(s);
    (v, t.secs())
}

/// One cell's fresh, overlap and repeat jobs; fills `out` and leaves
/// the encoded warm-up snapshot in `snapshot`.
#[allow(clippy::too_many_arguments)]
fn cell_round(
    config: SimConfig,
    cell: &Cell,
    out: &mut CellTimes,
    snapshot: &mut Vec<u8>,
    tally: &mut Tally,
    spans: &mut Spans,
    parent: u32,
    job: u64,
) -> Option<RunReport> {
    let key = cell.key();
    let label = cell.label();
    // Fresh: build → warm-up → snapshot → measure → encode report.
    let t0 = CpuTimer::start();
    let (built, build_s) = timed(spans, "sim.build", parent, job, || cell.build(config));
    out.build_ms = build_s * 1e3;
    let mut sys = match built {
        Ok(sys) => sys,
        Err(e) => {
            tally.check(false, &format!("{label}: build: {e}"));
            return None;
        }
    };
    let (warm, warmup_s) = timed(spans, "sim.warmup", parent, job, || sys.run_to_warm());
    let (snap_bytes, encode_s) = timed(spans, "sim.snapshot.encode", parent, job, || {
        sys.snapshot(key).to_bytes()
    });
    let (run, measure_s) = timed(spans, "sim.measure", parent, job, || {
        warm.and_then(|()| sys.try_run())
    });
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            tally.check(false, &format!("{label}: run: {e}"));
            return None;
        }
    };
    let (stored, _) = timed(spans, "store.report.encode", parent, job, || {
        report.to_store_bytes()
    });
    out.fresh_ms = t0.secs() * 1e3;
    out.warmup_s = warmup_s;
    out.measure_s = measure_s;
    out.encode_ms = encode_s * 1e3;
    out.snapshot_bytes = snap_bytes.len() as f64;
    tally.check(true, &label);

    // Overlap: resume from the stored warm-up snapshot.
    let t4 = CpuTimer::start();
    let (snap, decode_s) = timed(spans, "sim.snapshot.decode", parent, job, || {
        Snapshot::from_bytes(&snap_bytes)
    });
    out.decode_ms = decode_s * 1e3;
    let (fork, _) = timed(spans, "sim.build", parent, job, || cell.build(config));
    let restored = match (snap, fork) {
        (Ok(snap), Ok(mut fork)) => {
            let (r, restore_s) = timed(spans, "sim.restore", parent, job, || {
                fork.restore(&snap, key)
            });
            out.restore_ms = restore_s * 1e3;
            r.map(|()| fork)
        }
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    let (resumed, resume_s) = timed(spans, "sim.measure", parent, job, || {
        restored.and_then(System::try_run)
    });
    out.overlap_ms = t4.secs() * 1e3;
    match resumed {
        Ok(r) => {
            tally.check(r == report, &format!("{label}: resumed run differs"));
            out.sim_s = warmup_s + measure_s + resume_s;
        }
        Err(e) => tally.check(false, &format!("{label}: resume: {e}")),
    }
    *snapshot = snap_bytes;

    // Repeat: answer from the stored report. One decode takes a few
    // microseconds, so a sample is the mean of several.
    let (reread, repeat_s) = timed(spans, "store.report.decode", parent, job, || {
        let mut reread = RunReport::from_store_bytes(&stored, cell.wref.name());
        for _ in 1..REPEAT_DECODES {
            reread = RunReport::from_store_bytes(&stored, cell.wref.name());
        }
        reread
    });
    out.repeat_ms = repeat_s * 1e3 / REPEAT_DECODES as f64;
    tally.check(
        reread.as_ref() == Ok(&report),
        &format!("{label}: stored report differs"),
    );
    Some(report)
}

/// What one lane of timed rounds measured.
pub struct Lane {
    /// Each cell's best times over the lane's rounds.
    pub best: Vec<CellTimes>,
    /// Each round's set-up seconds.
    pub setups: Vec<f64>,
    /// The lane's checks: every round must reproduce `first`.
    pub tally: Tally,
}

/// Timed rounds after `first` until `seconds` have passed since `start`
/// (at least two per lane), in one lane per CPU the process may use, up
/// to two, each pinned to its CPU. On a shared host each virtual CPU
/// slows down on its own, for seconds to minutes, as other guests load
/// the physical core under it; with a lane on each, every cell is timed
/// on both, and its best time is the less disturbed one.
pub fn timed_lanes(plan: &Plan, first: &Round, start: Instant, seconds: f64) -> Vec<Lane> {
    let cpus = allowed_cpus(2);
    let lane = |cpu: Option<usize>| {
        if let Some(cpu) = cpu {
            pin_to_cpu(cpu);
        }
        let mut out = Lane {
            best: first.times.clone(),
            setups: Vec::new(),
            tally: Tally::default(),
        };
        let mut spans = Spans::new(false);
        while out.setups.len() < 2 || secs(start) < seconds {
            let r = round(plan, 0, &mut out.tally, &mut spans, 0);
            out.tally.check(
                r.reports == first.reports,
                "every round reproduces the first",
            );
            keep_best(&mut out.best, &r.times);
            out.setups.push(r.setup_s);
        }
        out
    };
    if cpus.len() < 2 {
        return vec![lane(cpus.first().copied())];
    }
    std::thread::scope(|s| {
        let lanes: Vec<_> = cpus
            .iter()
            .map(|&cpu| s.spawn(move || lane(Some(cpu))))
            .collect();
        lanes
            .into_iter()
            .map(|l| l.join().expect("a lane of rounds does not panic"))
            .collect()
    })
}

/// Lower each cell's job times in `best` to the round's `times` where
/// those are lower: shared hosts slow a run down but never speed it up,
/// so the best of several tries is the steady estimate (the
/// repository's interleaved-minima practice, docs/PERFORMANCE.md).
pub fn keep_best(best: &mut [CellTimes], times: &[CellTimes]) {
    for (b, t) in best.iter_mut().zip(times) {
        b.fresh_ms = b.fresh_ms.min(t.fresh_ms);
        b.overlap_ms = b.overlap_ms.min(t.overlap_ms);
        b.repeat_ms = b.repeat_ms.min(t.repeat_ms);
        b.sim_s = b.sim_s.min(t.sim_s);
    }
}

/// Digest of a round's reports, in cell order.
pub fn digest(reports: &[Option<RunReport>]) -> u64 {
    let mut bytes = Vec::new();
    for r in reports {
        match r {
            Some(r) => bytes.extend_from_slice(&r.to_store_bytes()),
            None => bytes.push(0),
        }
    }
    fnv1a(&bytes)
}

/// Run `cell` with the observability layer on; returns the report and
/// what the layer saw.
pub fn run_traced(
    config: SimConfig,
    cell: &Cell,
) -> Result<(RunReport, Option<ObsReport>), psa_sim::SimError> {
    cell.build(config.with_obs(ObsConfig::on()))?
        .try_run_observed()
}

/// Record the stream of every workload of the plan's first seed and
/// replay each of that seed's cells from its recording: the recording is
/// the synthetic run's stream, so the stats must be bit-identical to the
/// synthetic cell's `reports` entry.
pub fn check_replay(
    plan: &Plan,
    reports: &[Option<RunReport>],
    work: &WorkDir,
    tally: &mut Tally,
) -> Result<(), String> {
    let seed = plan.cells[0].seed;
    let mut recorded: Vec<(&str, TraceRef)> = Vec::new();
    for (cell, synthetic) in plan.cells.iter().zip(reports) {
        if cell.seed != seed {
            continue;
        }
        let tref = match recorded.iter().find(|(name, _)| *name == cell.spec.name) {
            Some((_, tref)) => *tref,
            None => {
                let path = work.file(&format!("{}-{seed}.psatrace", cell.spec.name));
                let instructions = plan.config.warmup + plan.config.instructions;
                record(cell.spec, seed, instructions + RECORD_SLACK, &path)?;
                let tref = TraceRef::open(&path).map_err(|e| format!("{path}: {e}"))?;
                recorded.push((cell.spec.name, tref));
                tref
            }
        };
        let twin = Cell {
            wref: WorkloadRef::TraceFile(tref),
            ..*cell
        };
        let ok = match (twin.build(plan.config).and_then(System::try_run), synthetic) {
            (Ok(mut replayed), Some(synthetic)) => {
                replayed.workload = synthetic.workload;
                &replayed == synthetic
            }
            _ => false,
        };
        tally.check(
            ok,
            &format!("{}: replay differs from synthetic", cell.label()),
        );
    }
    Ok(())
}

/// The `sim.*` rows of one untraced round, then every cell run again
/// with the observability layer on: its report must equal the round's,
/// and its counters give the count rows. Both lists are indexed by
/// cell, so a failed cell cannot shift a comparison.
pub fn traced_rows(
    plan: &Plan,
    round: &Round,
    tally: &mut Tally,
    spans: &mut Spans,
    m: &mut crate::util::Metrics,
) {
    let config = plan.config;
    let ok: Vec<&CellTimes> = round
        .times
        .iter()
        .zip(&round.reports)
        .filter(|(_, r)| r.is_some())
        .map(|(t, _)| t)
        .collect();
    let col = |f: &dyn Fn(&CellTimes) -> f64| -> Vec<f64> { ok.iter().map(|t| f(t)).collect() };
    let n = ok.len() as f64;
    let warm_s: f64 = col(&|t| t.warmup_s).iter().sum();
    let measure_s: f64 = col(&|t| t.measure_s).iter().sum();
    m.put("sim.build_ms", median(&col(&|t| t.build_ms)), "ms");
    m.put(
        "sim.warmup.minstr_per_s",
        n * config.warmup as f64 / warm_s / 1e6,
        "Minstr/s",
    );
    m.put(
        "sim.measure.minstr_per_s",
        n * config.instructions as f64 / measure_s / 1e6,
        "Minstr/s",
    );
    m.put(
        "sim.snapshot.encode_ms",
        median(&col(&|t| t.encode_ms)),
        "ms",
    );
    m.put(
        "sim.snapshot.decode_ms",
        median(&col(&|t| t.decode_ms)),
        "ms",
    );
    m.put("sim.restore_ms", median(&col(&|t| t.restore_ms)), "ms");
    m.put(
        "sim.snapshot.bytes",
        median(&col(&|t| t.snapshot_bytes)),
        "bytes",
    );
    let untraced_rate = n * (config.warmup + config.instructions) as f64 / (warm_s + measure_s);

    let mut traced = Vec::new();
    let mut traced_s = 0.0;
    let root = spans.open("pass.traced", 0, 0);
    for (i, (cell, untraced)) in plan.cells.iter().zip(&round.reports).enumerate() {
        let Some(untraced) = untraced else { continue };
        let (run, s) = timed(spans, "sim.run_traced", root, i as u64 + 1, || {
            run_traced(config, cell)
        });
        traced_s += s;
        match run {
            Ok((report, obs)) => {
                tally.check(
                    &report == untraced,
                    &format!("{}: traced run differs from untraced", cell.label()),
                );
                traced.push((report, obs));
            }
            Err(e) => tally.check(false, &format!("{}: traced run: {e}", cell.label())),
        }
    }
    spans.close(root);
    let traced_rate = traced.len() as f64 * (config.warmup + config.instructions) as f64 / traced_s;
    m.put("sim.traced.minstr_per_s", traced_rate / 1e6, "Minstr/s");
    m.put("sim.trace_overhead", untraced_rate / traced_rate, "ratio");
    count_rows(&traced, m);
}

/// Per-layer counts aggregated over traced runs (sums of numerators over
/// sums of denominators).
fn count_rows(runs: &[(RunReport, Option<ObsReport>)], m: &mut crate::util::Metrics) {
    let sum = |f: &dyn Fn(&RunReport, Option<&ObsReport>) -> f64| -> f64 {
        runs.iter().map(|(r, o)| f(r, o.as_ref())).sum()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let counter = |o: Option<&ObsReport>, name: &str| -> f64 {
        o.and_then(|o| o.counters.iter().find(|c| c.0 == name))
            .map_or(0.0, |c| c.1 as f64)
    };
    let instr = sum(&|r, _| r.instructions as f64);
    m.put(
        "cache.l2c.mpki",
        sum(&|r, _| r.l2c.demand_misses as f64) * 1e3 / instr,
        "1/kinstr",
    );
    m.put(
        "cache.llc.mpki",
        sum(&|r, _| r.llc.demand_misses as f64) * 1e3 / instr,
        "1/kinstr",
    );
    m.put(
        "cache.l2c.pf_accuracy",
        ratio(
            sum(&|r, _| r.l2c.useful_prefetches as f64),
            sum(&|r, _| (r.l2c.useful_prefetches + r.l2c.useless_prefetches) as f64),
        ),
        "ratio",
    );
    let module = |f: &dyn Fn(&psa_core::ModuleStats) -> u64| -> f64 {
        runs.iter()
            .filter_map(|(r, _)| r.module.as_ref())
            .map(|s| f(s) as f64)
            .sum()
    };
    m.put(
        "core.candidates_per_access",
        ratio(module(&|s| s.candidates), module(&|s| s.accesses)),
        "count",
    );
    let boundary = |f: &dyn Fn(&psa_core::BoundaryStats) -> u64| -> f64 {
        runs.iter()
            .filter_map(|(r, _)| r.boundary.as_ref())
            .map(|s| f(s) as f64)
            .sum()
    };
    m.put(
        "core.boundary.discard_ratio",
        ratio(
            boundary(&|b| b.discarded_cross_4k_in_huge + b.discarded_out_of_page),
            boundary(&|b| b.candidates),
        ),
        "ratio",
    );
    let sd: Vec<&psa_core::ModuleStats> = runs
        .iter()
        .filter_map(|(r, _)| r.module.as_ref())
        .filter(|s| s.selected_by[0] > 0 && s.selected_by[1] > 0)
        .collect();
    m.put(
        "core.sd.psa2m_share",
        ratio(
            sd.iter().map(|s| s.selected_by[1] as f64).sum(),
            sd.iter()
                .map(|s| (s.selected_by[0] + s.selected_by[1]) as f64)
                .sum(),
        ),
        "ratio",
    );
    m.put(
        "core.useful_late_ratio",
        ratio(
            sum(&|_, o| counter(o, "module.useful_late")),
            sum(&|_, o| counter(o, "module.useful_late") + counter(o, "module.useful_timely")),
        ),
        "ratio",
    );
    m.put(
        "dram.row_hit_rate",
        ratio(
            sum(&|r, _| r.dram.row_hits as f64),
            sum(&|r, _| (r.dram.row_hits + r.dram.row_opens + r.dram.row_conflicts) as f64),
        ),
        "ratio",
    );
    let queue = |o: Option<&ObsReport>| {
        o.and_then(|o| o.histograms.iter().find(|h| h.0 == "dram.queue_delay"))
            .map_or((0.0, 0.0), |h| (h.1.sum as f64, h.1.total as f64))
    };
    m.put(
        "dram.queue_delay_mean_cycles",
        ratio(sum(&|_, o| queue(o).0), sum(&|_, o| queue(o).1)),
        "cycles",
    );
}
