//! Synthetic workloads for the *Page Size Aware Cache Prefetching*
//! reproduction.
//!
//! The paper evaluates on SimPoint traces of SPEC CPU 2006/2017, GAP,
//! CloudSuite, mlpack and Qualcomm CVP-1 workloads — none of which can be
//! redistributed. What the evaluation actually *depends on* is a handful
//! of per-workload properties:
//!
//! 1. how much of the working set the OS maps with 2MB pages
//!    (`huge_fraction`, Figure 3);
//! 2. whether access patterns cross 4KB-line boundaries (streams, long
//!    strides) — the opportunity PPM unlocks;
//! 3. whether patterns are 4KB-grain (each sub-page different; PSA-2MB
//!    over-generalises and loses) or 2MB-grain (long strides that ±64-line
//!    deltas cannot express; PSA-2MB wins);
//! 4. memory intensity and dependence structure (MLP vs latency-bound).
//!
//! [`spec::WorkloadSpec`] parameterises exactly those axes; [`gen`] turns a
//! spec into an infinite, deterministic instruction stream; [`catalog`]
//! instantiates all **80 workload names** from Figure 8 with parameters
//! tuned to each benchmark's described behaviour, plus the non-intensive
//! set used in §VI-B1; [`mixes`] builds the random multi-core mixes of
//! Figures 14/15.
//!
//! # The workload-source layer
//!
//! Both front ends sit behind the [`source::WorkloadSource`] trait: the
//! synthetic generator and a streamed replay of on-disk
//! ChampSim-style traces ([`mod@format`] is the `.psatrace` codec,
//! [`reader`] the buffered replay cursor). [`source::WorkloadRef`] is
//! the typed configuration-layer name for either kind — the simulator
//! turns a ref into a live source at machine-build time, and trace refs
//! carry a content hash that threads into every downstream
//! checkpoint/memo key.
//!
//! # Example
//!
//! ```
//! use psa_traces::{catalog, gen::TraceGenerator};
//!
//! let spec = catalog::workload("milc").expect("in catalog");
//! let mut trace = TraceGenerator::new(spec, 42);
//! let first: Vec<_> = trace.by_ref().take(1000).collect();
//! assert_eq!(first.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod format;
pub mod gen;
pub mod mixes;
pub mod reader;
pub mod source;
pub mod spec;

pub use gen::TraceGenerator;
pub use reader::TraceReader;
pub use source::{intern, TraceError, TraceRef, WorkloadRef, WorkloadSource};
pub use spec::{PatternMix, Suite, SuiteGroup, WorkloadSpec};
