//! Experiment harness: one module per figure/table of *Page Size Aware
//! Cache Prefetching* (MICRO 2022).
//!
//! Every module exposes a `run(exec) -> String` entry point that
//! executes the experiment on an [`Executor`] and renders the paper's
//! rows as plain text, plus a `report(exec) -> (String, Json)` variant
//! that additionally assembles the machine-readable `BENCH_<figure>.json`
//! document (see `docs/METRICS.md`); the `psa-bench` crate wraps each in
//! a `cargo bench` target. Independent simulations fan out across cores
//! through [`runner::RunCache::run_batch`] and
//! [`runner::parallel_map_isolated`] — bit-identical to serial execution
//! (see [`runner`]).
//!
//! | Module | Paper content |
//! |---|---|
//! | [`fig02`] | discard-probability distributions (Figure 2) |
//! | [`fig03`] | 2MB-page usage over execution (Figure 3) |
//! | [`fig0405`] | SPP vs SPP-PSA-Magic(-2MB) (Figures 4 & 5) |
//! | [`fig08`] | per-workload SPP variant speedups (Figure 8) |
//! | [`fig09`] | per-suite geomeans for all prefetchers (Figure 9) |
//! | [`fig10`] | sources of improvement: latency/coverage/accuracy (Figure 10) |
//! | [`fig11`] | selection-logic ablation + ISO storage (Figure 11) |
//! | [`fig12`] | constrained sweeps: MSHR / LLC / DRAM (Figure 12) |
//! | [`fig13`] | vs L1D prefetching: NL, IPCP, IPCP++ (Figure 13) |
//! | [`fig1415`] | multi-core weighted speedups (Figures 14 & 15) |
//! | [`fig16`] | new families (Pangloss, DSPatch) vs SPP (repo extension) |
//! | [`trace_replay`] | SPP ladder over a streamed `.psatrace` recording (repo extension) |
//! | [`nonintensive`] | §VI-B1's non-intensive augmentation |
//! | [`ablations`] | Set-Dueling shape sweeps (sets/competitor, `Csel` width) |
//!
//! Every knob is a field of [`RunnerOptions`]; binaries read them once,
//! at entry, from the `PSA_*` environment with
//! [`RunnerOptions::from_env`] (the only place in the workspace that
//! reads the environment) and build one [`Executor`] from them. Tests
//! and drivers set the fields directly.
//!
//! Scaling knobs: `PSA_WARMUP`, `PSA_INSTRUCTIONS` override the per-run
//! instruction budget; `PSA_WORKLOAD_LIMIT=n` subsamples the 80-workload
//! set (stride-sampled so every suite stays represented); `PSA_MIXES=n`
//! bounds the multi-core mix count; `PSA_THREADS=n` caps the parallel
//! executor's worker count (default: all cores); `PSA_JSON_RUNS=1`
//! embeds raw per-run reports in emitted JSON; `PSA_TRACE_FILE=<path>`
//! points the [`trace_replay`] figure at a `.psatrace` recording other
//! than the committed sample fixture; `PSA_CKPT_DIR=<dir>` persists
//! warm-up checkpoints — and memoised finished reports — across
//! processes through the crash-safe tiered store (`psa-store`);
//! `PSA_CKPT_MEM_MB=n` / `PSA_CKPT_DISK_MB=n` bound its memory and disk
//! tiers (see [`ckpt`] and `docs/CHECKPOINT.md`).
//!
//! Robustness knobs (see `docs/ROBUSTNESS.md`): `PSA_WATCHDOG=n` sets the
//! forward-progress watchdog threshold (0 disables); `PSA_CHECK=1` turns
//! on the simulation invariant checker; `PSA_INJECT_PANIC` /
//! `PSA_INJECT_STALL` deliberately fault a named job to exercise the
//! executor's fault isolation; `PSA_FAULT_PLAN` injects deterministic
//! IO faults (torn writes, bit flips, ENOSPC, transient EIO) under the
//! checkpoint store. Failed jobs become entries in the `failures` array
//! of the document their work produced, and figures render with
//! explicit gaps.
//!
//! Observability knobs (see `docs/OBSERVABILITY.md`): `PSA_OBS=1` turns
//! on the zero-cost-when-disabled metrics/event layer (`psa_common::obs`);
//! `PSA_OBS_RING=n` / `PSA_OBS_SAMPLE=n` shape its event ring;
//! `PSA_OBS_TRACE=<path>` exports the first observed run as Chrome
//! `trace_event` JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod ckpt;
pub mod fig02;
pub mod fig03;
pub mod fig0405;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig1415;
pub mod fig16;
pub mod nonintensive;
pub mod runner;
pub mod service;
pub mod trace_replay;

pub use runner::{Executor, RunnerOptions};
