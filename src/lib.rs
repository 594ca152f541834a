//! Facade crate for the *Page Size Aware Cache Prefetching* (MICRO 2022)
//! reproduction.
//!
//! This crate re-exports the workspace members so examples and downstream
//! users can depend on a single package:
//!
//! * [`common`] — address newtypes, page sizes, statistics helpers.
//! * [`vmem`] — virtual-memory substrate: THP allocation, page table, TLBs.
//! * [`cache`] — set-associative caches, MSHRs, per-block metadata.
//! * [`dram`] — banked DRAM timing model with row buffers.
//! * [`cpu`] — approximate out-of-order core model.
//! * [`traces`] — synthetic workload generators and the 80-workload catalog.
//! * [`core`] — the paper's contribution: PPM, Pref-PSA, Pref-PSA-2MB,
//!   Pref-PSA-SD and the selection-logic variants.
//! * [`prefetchers`] — SPP, VLDP, BOP, PPF, IPCP and next-line.
//! * [`sim`] — the trace-driven system simulator tying everything together.
//! * [`experiments`] — one module per paper figure/table.
//!
//! # Quickstart
//!
//! ```
//! use page_size_aware_prefetching::sim::{SimConfig, System};
//! use page_size_aware_prefetching::traces::catalog;
//! use page_size_aware_prefetching::core::PageSizePolicy;
//! use page_size_aware_prefetching::prefetchers::PrefetcherKind;
//!
//! let workload = catalog::workload("milc").expect("catalog entry");
//! let config = SimConfig::default().with_instructions(20_000).with_warmup(5_000);
//! let report = System::single_core(
//!     config,
//!     workload,
//!     PrefetcherKind::Spp,
//!     PageSizePolicy::Psa,
//! )
//! .run();
//! assert!(report.ipc() > 0.0);
//! ```

pub use psa_cache as cache;
pub use psa_common as common;
pub use psa_core as core;
pub use psa_cpu as cpu;
pub use psa_dram as dram;
pub use psa_experiments as experiments;
pub use psa_prefetchers as prefetchers;
pub use psa_sim as sim;
pub use psa_traces as traces;
pub use psa_vmem as vmem;

/// The supported surface in one import: the simulator prelude plus the
/// experiment-runner facade, the prefetcher/policy enums, and the
/// workload catalog.
///
/// Examples, integration tests and downstream drivers should prefer
/// `use page_size_aware_prefetching::prelude::*;` over reaching into the
/// individual `psa_*` crates: these names are the ones the project
/// commits to keeping stable.
pub mod prelude {
    pub use psa_common::obs::{ObsConfig, ObsReport};
    pub use psa_common::stats::weighted_speedup;
    pub use psa_common::{PLine, PageSize, Table, VAddr};
    pub use psa_core::{IndexGrain, PageSizePolicy};
    pub use psa_experiments::runner::{self, Executor, RunnerOptions, Variant};
    pub use psa_prefetchers::PrefetcherKind;
    pub use psa_sim::prelude::*;
    pub use psa_traces::{catalog, PatternMix, Suite, WorkloadSpec};
}
