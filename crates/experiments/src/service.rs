//! Job-spec bridge for the experiment service (`psa-serve`): a typed,
//! validated sweep specification parsed from client JSON, a canonical
//! dedup key, and an execution entry point that assembles the standard
//! BENCH document with job-scoped failures.
//!
//! A [`SweepSpec`] names a figure label, a workload subset, a variant
//! subset and optional budget/seed overrides. Executing it runs the
//! full workload×variant cross product through one
//! [`RunCache::run_batch_with`] on the caller's [`Executor`] and renders
//! the result with [`RunCache::doc`] as a
//! schema-v[`BENCH_SCHEMA_VERSION`] document whose `rows` are the raw
//! per-run reports ([`RunCache::runs_json`]) and whose `failures` are the
//! job's own — deterministic for a given spec, which is what makes
//! byte-level dedup sound.
//!
//! Finished documents are memoised in the tiered checkpoint store
//! under [`SweepSpec::key`] (entry kind `Document`): a repeat of an
//! already-served spec — even after a process restart — is answered
//! from disk without simulating anything.

use crate::ckpt;
use crate::runner::{Executor, RunCache, Variant, BENCH_SCHEMA_VERSION};
use psa_common::rng::fnv1a;
use psa_core::PageSizePolicy;
use psa_prefetchers::PrefetcherKind;
use psa_sim::report::Json;
use psa_sim::SimConfig;
use psa_traces::{catalog, TraceRef, WorkloadRef, WorkloadSpec};
use std::sync::Arc;

/// Figure labels a spec may carry — the experiment modules of this
/// crate. The label names the sweep in the emitted document; the
/// service always executes the generic workload×variant cross product.
pub const KNOWN_FIGURES: [&str; 14] = [
    "fig02",
    "fig03",
    "fig0405",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig1415",
    "fig16",
    "nonintensive",
    "ablations",
    "trace_replay",
];

/// Ceiling on `workloads × variants` per job: one request must stay an
/// interactive unit of work, not an unbounded batch.
pub const MAX_JOBS_PER_SPEC: usize = 4096;

/// A validated experiment request: which figure label, which workloads,
/// which variants, and optional overrides of the seed and instruction
/// budgets. Construct via [`SweepSpec::from_json`].
///
/// Besides the explicit `variants` list, a request may select whole
/// prefetcher families with a `prefetchers` array (family names from
/// [`PrefetcherKind::ALL`], case-insensitive): each family expands to
/// its [`Variant::Pref`] under every page-size policy. The expansion
/// happens at parse time — a spec naming `"prefetchers": ["Pangloss"]`
/// and one listing the same four variant labels are the *same* spec,
/// with the same canonical form and dedup key. At least one of
/// `variants` / `prefetchers` must be present; they combine when both
/// are.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Figure label for the emitted document (one of [`KNOWN_FIGURES`]).
    pub figure: String,
    /// Workloads to sweep, sorted by name, deduplicated.
    pub workloads: Vec<&'static WorkloadSpec>,
    /// Trace-file workloads to sweep (already opened and verified),
    /// sorted by content-addressed name, deduplicated by content hash.
    pub traces: Vec<TraceRef>,
    /// Variants to sweep, sorted by label, deduplicated.
    pub variants: Vec<Variant>,
    /// `SimConfig::seed` override.
    pub seed: Option<u64>,
    /// Warm-up instruction budget override.
    pub warmup: Option<u64>,
    /// Measured instruction budget override.
    pub instructions: Option<u64>,
}

/// Why a spec was rejected. Every variant maps to a stable `kind()`
/// string for typed API error bodies; none of them is ever a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The request body is not valid JSON.
    BadJson(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field has the wrong JSON type (or a non-integer number).
    BadType {
        /// Field name.
        field: &'static str,
        /// What the field must be.
        expected: &'static str,
    },
    /// The figure label is not one of [`KNOWN_FIGURES`].
    UnknownFigure(String),
    /// A workload name is not in the catalog.
    UnknownWorkload(String),
    /// A variant label does not parse ([`Variant::parse`]).
    UnknownVariant(String),
    /// A `prefetchers` entry names no known family
    /// ([`PrefetcherKind::ALL`]).
    UnknownPrefetcher(String),
    /// A list field is empty.
    Empty(&'static str),
    /// The workload×variant cross product exceeds [`MAX_JOBS_PER_SPEC`].
    TooManyJobs {
        /// Requested job count.
        requested: usize,
    },
    /// A `traces` entry names a file that cannot be opened and verified
    /// as a `.psatrace`: missing, unreadable, truncated, corrupt, or a
    /// foreign format version.
    BadTrace {
        /// The path as requested.
        path: String,
        /// The typed [`psa_traces::TraceError`], rendered.
        reason: String,
    },
    /// A `traces` entry pinned a `content_hash` that the file on disk
    /// does not match — serving it would silently replay different bytes.
    TraceHashMismatch {
        /// The path as requested.
        path: String,
        /// Hash of the bytes actually on disk.
        found: u64,
        /// Hash the request pinned.
        expected: u64,
    },
}

impl SpecError {
    /// Stable machine-readable error kind.
    pub fn kind(&self) -> &'static str {
        match self {
            SpecError::BadJson(_) => "bad_json",
            SpecError::MissingField(_) => "missing_field",
            SpecError::BadType { .. } => "bad_type",
            SpecError::UnknownFigure(_) => "unknown_figure",
            SpecError::UnknownWorkload(_) => "unknown_workload",
            SpecError::UnknownVariant(_) => "unknown_variant",
            SpecError::UnknownPrefetcher(_) => "unknown_prefetcher",
            SpecError::Empty(_) => "empty_list",
            SpecError::TooManyJobs { .. } => "too_many_jobs",
            SpecError::BadTrace { .. } => "bad_trace",
            SpecError::TraceHashMismatch { .. } => "trace_hash_mismatch",
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BadJson(e) => write!(f, "request body is not valid JSON: {e}"),
            SpecError::MissingField(name) => write!(f, "missing required field {name:?}"),
            SpecError::BadType { field, expected } => {
                write!(f, "field {field:?} must be {expected}")
            }
            SpecError::UnknownFigure(v) => write!(f, "unknown figure {v:?}"),
            SpecError::UnknownWorkload(v) => write!(f, "unknown workload {v:?}"),
            SpecError::UnknownVariant(v) => write!(f, "unknown variant {v:?}"),
            SpecError::UnknownPrefetcher(v) => {
                let known: Vec<&str> = PrefetcherKind::ALL.iter().map(|k| k.name()).collect();
                write!(
                    f,
                    "unknown prefetcher {v:?} (known families: {})",
                    known.join(", ")
                )
            }
            SpecError::Empty(name) => write!(f, "field {name:?} must not be empty"),
            SpecError::TooManyJobs { requested } => write!(
                f,
                "workloads x variants = {requested} jobs exceeds the per-request \
                 ceiling of {MAX_JOBS_PER_SPEC}"
            ),
            SpecError::BadTrace { path, reason } => {
                write!(f, "trace {path:?} cannot be served: {reason}")
            }
            SpecError::TraceHashMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "trace {path:?} hashes to {found:016x}, request pinned {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

fn field_u64(doc: &Json, field: &'static str) -> Result<Option<u64>, SpecError> {
    match doc.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(v)) if *v >= 0.0 && v.trunc() == *v && *v < 9_007_199_254_740_992.0 => {
            Ok(Some(*v as u64))
        }
        Some(_) => Err(SpecError::BadType {
            field,
            expected: "a non-negative integer",
        }),
    }
}

fn field_str_list(doc: &Json, field: &'static str) -> Result<Vec<String>, SpecError> {
    let arr = doc
        .get(field)
        .ok_or(SpecError::MissingField(field))?
        .as_arr()
        .ok_or(SpecError::BadType {
            field,
            expected: "an array of strings",
        })?;
    let items: Vec<String> = arr
        .iter()
        .map(|v| {
            v.as_str().map(String::from).ok_or(SpecError::BadType {
                field,
                expected: "an array of strings",
            })
        })
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(SpecError::Empty(field));
    }
    Ok(items)
}

/// Parse the `traces` array: each entry is either a bare path string or
/// an object `{"path": ..., "content_hash": "<16 hex digits>"}` pinning
/// the exact bytes to replay (JSON numbers cannot carry a full u64, so
/// the pin travels as a hex string). Every named file is opened and
/// fully verified here, at admission time — a bad file is a typed 4xx,
/// never a mid-run surprise.
fn field_traces(doc: &Json) -> Result<Vec<TraceRef>, SpecError> {
    let field = "traces";
    let Some(value) = doc.get(field) else {
        return Ok(Vec::new());
    };
    if matches!(value, Json::Null) {
        return Ok(Vec::new());
    }
    let arr = value.as_arr().ok_or(SpecError::BadType {
        field,
        expected: "an array of paths or {path, content_hash} objects",
    })?;
    if arr.is_empty() {
        return Err(SpecError::Empty(field));
    }
    let mut traces = Vec::new();
    for entry in arr {
        let (path, pin) = match entry {
            Json::Str(p) => (p.as_str(), None),
            Json::Obj(_) => {
                let path = entry
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or(SpecError::BadType {
                        field,
                        expected: "objects with a string \"path\"",
                    })?;
                let pin = match entry.get("content_hash") {
                    None | Some(Json::Null) => None,
                    Some(h) => {
                        let text = h.as_str().ok_or(SpecError::BadType {
                            field,
                            expected: "a \"content_hash\" of 16 hex digits (string)",
                        })?;
                        let digits = text.strip_prefix("0x").unwrap_or(text);
                        Some(
                            u64::from_str_radix(digits, 16).map_err(|_| SpecError::BadType {
                                field,
                                expected: "a \"content_hash\" of 16 hex digits (string)",
                            })?,
                        )
                    }
                };
                (path, pin)
            }
            _ => {
                return Err(SpecError::BadType {
                    field,
                    expected: "an array of paths or {path, content_hash} objects",
                })
            }
        };
        let opened = match pin {
            Some(expected) => TraceRef::open_pinned(path, expected),
            None => TraceRef::open(path),
        };
        match opened {
            Ok(t) => traces.push(t),
            Err(psa_traces::TraceError::HashMismatch { found, expected }) => {
                return Err(SpecError::TraceHashMismatch {
                    path: path.to_string(),
                    found,
                    expected,
                })
            }
            Err(e) => {
                return Err(SpecError::BadTrace {
                    path: path.to_string(),
                    reason: e.to_string(),
                })
            }
        }
    }
    traces.sort_by_key(|t| t.name);
    traces.dedup_by_key(|t| t.content_hash);
    Ok(traces)
}

impl SweepSpec {
    /// Validate a client request body into a spec.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] encountered; field order is
    /// figure, workloads, traces, variants, prefetchers, then the
    /// numeric overrides.
    pub fn from_json(doc: &Json) -> Result<SweepSpec, SpecError> {
        if !matches!(doc, Json::Obj(_)) {
            return Err(SpecError::BadType {
                field: "(body)",
                expected: "a JSON object",
            });
        }
        let figure = doc
            .get("figure")
            .ok_or(SpecError::MissingField("figure"))?
            .as_str()
            .ok_or(SpecError::BadType {
                field: "figure",
                expected: "a string",
            })?
            .to_string();
        if !KNOWN_FIGURES.contains(&figure.as_str()) {
            return Err(SpecError::UnknownFigure(figure));
        }
        let has = |field: &str| doc.get(field).is_some_and(|v| !matches!(v, Json::Null));
        // Synthetic workloads stay required unless the request replays
        // traces instead; the two sources combine when both are present.
        if !has("workloads") && !has("traces") {
            return Err(SpecError::MissingField("workloads"));
        }
        let mut workloads = if has("workloads") {
            field_str_list(doc, "workloads")?
                .into_iter()
                .map(|name| catalog::workload(&name).ok_or(SpecError::UnknownWorkload(name)))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        workloads.sort_by_key(|w| w.name);
        workloads.dedup_by_key(|w| w.name);
        let traces = field_traces(doc)?;
        if !has("variants") && !has("prefetchers") {
            return Err(SpecError::MissingField("variants"));
        }
        let mut variants = if has("variants") {
            field_str_list(doc, "variants")?
                .into_iter()
                .map(|label| Variant::parse(&label).ok_or(SpecError::UnknownVariant(label)))
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        if has("prefetchers") {
            for name in field_str_list(doc, "prefetchers")? {
                let kind = PrefetcherKind::ALL
                    .into_iter()
                    .find(|k| k.name().eq_ignore_ascii_case(&name))
                    .ok_or(SpecError::UnknownPrefetcher(name))?;
                variants.extend(PageSizePolicy::ALL.map(|policy| Variant::Pref(kind, policy)));
            }
        }
        variants.sort_by_key(|v| v.label());
        variants.dedup();
        let requested = (workloads.len() + traces.len()) * variants.len();
        if requested > MAX_JOBS_PER_SPEC {
            return Err(SpecError::TooManyJobs { requested });
        }
        Ok(SweepSpec {
            figure,
            workloads,
            traces,
            variants,
            seed: field_u64(doc, "seed")?,
            warmup: field_u64(doc, "warmup")?,
            instructions: field_u64(doc, "instructions")?,
        })
    }

    /// Parse a raw request body (bytes → JSON → spec).
    ///
    /// # Errors
    ///
    /// [`SpecError::BadJson`] for undecodable bytes, else as
    /// [`SweepSpec::from_json`].
    pub fn from_body(body: &[u8]) -> Result<SweepSpec, SpecError> {
        let text = std::str::from_utf8(body).map_err(|e| SpecError::BadJson(e.to_string()))?;
        let doc = Json::parse(text).map_err(|e| SpecError::BadJson(e.to_string()))?;
        SweepSpec::from_json(&doc)
    }

    /// The effective run configuration: the executor's `base`
    /// configuration with the spec's own overrides applied on top — a
    /// spec always beats the executor's options.
    pub fn config(&self, base: SimConfig) -> SimConfig {
        let mut config = base;
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(warmup) = self.warmup {
            config.warmup = warmup;
        }
        if let Some(instructions) = self.instructions {
            config.instructions = instructions;
        }
        config
    }

    /// Every workload the spec sweeps — synthetic specs plus verified
    /// trace files — as typed [`WorkloadRef`]s, in canonical order.
    pub fn workload_refs(&self) -> Vec<WorkloadRef> {
        self.workloads
            .iter()
            .map(|&w| WorkloadRef::from(w))
            .chain(self.traces.iter().map(|&t| WorkloadRef::TraceFile(t)))
            .collect()
    }

    /// Total `(workload, variant)` jobs this spec expands to.
    pub fn total_jobs(&self) -> u64 {
        ((self.workloads.len() + self.traces.len()) * self.variants.len()) as u64
    }

    /// The document title, derived deterministically from the spec.
    pub fn title(&self) -> String {
        format!(
            "{} sweep: {} workloads x {} variants",
            self.figure,
            self.workloads.len() + self.traces.len(),
            self.variants.len()
        )
    }

    /// Canonical string form: two specs produce the same string exactly
    /// when they request the same sweep (fields normalised, lists
    /// sorted and deduplicated by construction). Traces appear under
    /// their content-addressed names (`trace:<name>@<hash>`), so two
    /// requests naming different paths to byte-identical files are the
    /// *same* spec — dedup is by content, not location.
    pub fn canonical(&self) -> String {
        let workloads: Vec<&str> = self.workloads.iter().map(|w| w.name).collect();
        let traces: Vec<&str> = self.traces.iter().map(|t| t.name).collect();
        let variants: Vec<String> = self.variants.iter().map(|v| v.label()).collect();
        format!(
            "figure={};seed={:?};warmup={:?};instructions={:?};workloads={};traces={};variants={}",
            self.figure,
            self.seed,
            self.warmup,
            self.instructions,
            workloads.join(","),
            traces.join(","),
            variants.join(",")
        )
    }

    /// The dedup / document-memo key over the executor's `base`
    /// configuration: document schema version, the full effective
    /// configuration (so budget changes in the options miss rather than
    /// alias), and the canonical spec string.
    pub fn key(&self, base: SimConfig) -> u64 {
        let config = self.config(base);
        let mut id = Vec::new();
        id.extend_from_slice(b"document\0");
        id.extend_from_slice(&BENCH_SCHEMA_VERSION.to_le_bytes());
        id.extend_from_slice(format!("{config:?}").as_bytes());
        id.push(0);
        id.extend_from_slice(self.canonical().as_bytes());
        fnv1a(&id)
    }
}

/// A finished document as served to a client.
#[derive(Debug, Clone)]
pub struct ServedDocument {
    /// The rendered BENCH JSON bytes ([`Json::pretty`]).
    pub bytes: Arc<Vec<u8>>,
    /// Served from the memoised document tier without simulating.
    pub from_cache: bool,
    /// The document's `failures` array is empty.
    pub clean: bool,
}

/// Execute a spec on `exec` and assemble its BENCH document. Always
/// simulates (through the run cache's own warm-up/report memo tiers);
/// the document-level memo is [`run_job`]'s concern. `progress(done,
/// total)` fires per finished simulation, from worker threads.
pub fn execute(exec: &Executor, spec: &SweepSpec, progress: &(dyn Fn(u64, u64) + Sync)) -> Json {
    let mut cache = RunCache::new(exec, spec.config(exec.config));
    let jobs: Vec<(WorkloadRef, Variant)> = spec
        .workload_refs()
        .into_iter()
        .flat_map(|w| spec.variants.iter().map(move |&v| (w, v)))
        .collect();
    cache.run_batch_with(&jobs, progress);
    cache.doc(&spec.figure, &spec.title(), cache.runs_json())
}

/// Serve a spec on `exec`: a memoised finished document when one exists
/// (no simulation at all, counted as a `ckpt_hits` store hit), else
/// [`execute`] it and — when the result is clean and the disk tier is
/// available — memoise the rendered bytes for every later request.
pub fn run_job(
    exec: &Executor,
    spec: &SweepSpec,
    progress: &(dyn Fn(u64, u64) + Sync),
) -> ServedDocument {
    let memo = ckpt::memo_enabled(exec, &spec.config(exec.config));
    let key = spec.key(exec.config);
    if memo {
        if let Some(bytes) = ckpt::document_from_store(exec, key) {
            return ServedDocument {
                bytes,
                from_cache: true,
                clean: true,
            };
        }
    }
    let doc = execute(exec, spec, progress);
    let clean = doc
        .get("failures")
        .and_then(Json::as_arr)
        .is_some_and(<[Json]>::is_empty);
    let bytes = Arc::new(doc.pretty().into_bytes());
    // Only clean documents are memoised: a failure is a property of the
    // run (a panic, a watchdog stall), not of the spec, and must not be
    // replayed to every future client.
    if memo && clean {
        ckpt::document_to_store(exec, key, Arc::clone(&bytes));
    }
    ServedDocument {
        bytes,
        from_cache: false,
        clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys below are computed over this base configuration.
    fn base() -> SimConfig {
        SimConfig::default()
    }

    fn spec_json(body: &str) -> Json {
        Json::parse(body).expect("test body parses")
    }

    #[test]
    fn variant_labels_round_trip() {
        for v in Variant::all() {
            assert_eq!(Variant::parse(&v.label()), Some(v), "label {}", v.label());
        }
        assert_eq!(Variant::parse("SPP-PSA-4MB"), None);
        assert_eq!(Variant::parse(""), None);
    }

    #[test]
    fn spec_parses_sorts_and_dedups() {
        let doc = spec_json(
            r#"{"figure": "fig08", "workloads": ["mcf", "lbm", "mcf"],
                "variants": ["SPP-PSA", "SPP", "SPP-PSA"], "seed": 7}"#,
        );
        let spec = SweepSpec::from_json(&doc).expect("valid spec");
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name).collect();
        assert_eq!(names, ["lbm", "mcf"]);
        let labels: Vec<String> = spec.variants.iter().map(|v| v.label()).collect();
        assert_eq!(labels, ["SPP", "SPP-PSA"]);
        assert_eq!(spec.seed, Some(7));
        assert_eq!(spec.total_jobs(), 4);
        // Permuted but equivalent request: same canonical form, same key.
        let doc2 = spec_json(
            r#"{"figure": "fig08", "workloads": ["lbm", "mcf"],
                "variants": ["SPP", "SPP-PSA"], "seed": 7}"#,
        );
        let spec2 = SweepSpec::from_json(&doc2).expect("valid spec");
        assert_eq!(spec.canonical(), spec2.canonical());
        assert_eq!(spec.key(base()), spec2.key(base()));
    }

    #[test]
    fn prefetchers_field_expands_to_the_policy_matrix() {
        let by_family =
            spec_json(r#"{"figure": "fig16", "workloads": ["lbm"], "prefetchers": ["pangloss"]}"#);
        let spec = SweepSpec::from_json(&by_family).expect("valid spec");
        let labels: Vec<String> = spec.variants.iter().map(|v| v.label()).collect();
        assert_eq!(
            labels,
            [
                "Pangloss",
                "Pangloss-PSA",
                "Pangloss-PSA-2MB",
                "Pangloss-PSA-SD"
            ]
        );
        // Naming the family and listing its variant labels are the same
        // spec: same canonical form, same dedup key.
        let by_labels = spec_json(
            r#"{"figure": "fig16", "workloads": ["lbm"],
                "variants": ["Pangloss", "Pangloss-PSA", "Pangloss-PSA-2MB", "Pangloss-PSA-SD"]}"#,
        );
        let explicit = SweepSpec::from_json(&by_labels).expect("valid spec");
        assert_eq!(spec.canonical(), explicit.canonical());
        assert_eq!(spec.key(base()), explicit.key(base()));
        // Both fields combine, overlaps dedup.
        let both = spec_json(
            r#"{"figure": "fig16", "workloads": ["lbm"],
                "variants": ["DSPatch-Magic-PSA", "Pangloss-PSA"],
                "prefetchers": ["Pangloss"]}"#,
        );
        let combined = SweepSpec::from_json(&both).expect("valid spec");
        let labels: Vec<String> = combined.variants.iter().map(|v| v.label()).collect();
        assert_eq!(
            labels,
            [
                "DSPatch-Magic-PSA",
                "Pangloss",
                "Pangloss-PSA",
                "Pangloss-PSA-2MB",
                "Pangloss-PSA-SD"
            ]
        );
    }

    #[test]
    fn spec_rejections_are_typed() {
        let cases: [(&str, &str); 10] = [
            (r#"[1, 2]"#, "bad_type"),
            (
                r#"{"workloads": ["lbm"], "variants": ["SPP"]}"#,
                "missing_field",
            ),
            (
                r#"{"figure": "fig99", "workloads": ["lbm"], "variants": ["SPP"]}"#,
                "unknown_figure",
            ),
            (
                r#"{"figure": "fig08", "workloads": ["nope"], "variants": ["SPP"]}"#,
                "unknown_workload",
            ),
            (
                r#"{"figure": "fig08", "workloads": ["lbm"], "variants": ["SPP-PSA-9GB"]}"#,
                "unknown_variant",
            ),
            (
                r#"{"figure": "fig08", "workloads": [], "variants": ["SPP"]}"#,
                "empty_list",
            ),
            (
                r#"{"figure": "fig08", "workloads": ["lbm"], "variants": ["SPP"], "seed": -1}"#,
                "bad_type",
            ),
            (
                r#"{"figure": "fig16", "workloads": ["lbm"], "prefetchers": ["SPP", "Panglos"]}"#,
                "unknown_prefetcher",
            ),
            (
                r#"{"figure": "fig16", "workloads": ["lbm"], "prefetchers": "Pangloss"}"#,
                "bad_type",
            ),
            (
                r#"{"figure": "fig16", "workloads": ["lbm"], "prefetchers": []}"#,
                "empty_list",
            ),
        ];
        for (body, kind) in cases {
            let err = SweepSpec::from_json(&spec_json(body)).expect_err(body);
            assert_eq!(err.kind(), kind, "{body}");
        }
        assert_eq!(
            SweepSpec::from_body(b"{not json")
                .expect_err("bad json")
                .kind(),
            "bad_json"
        );
    }

    #[test]
    fn trace_specs_admit_by_content_and_reject_typed() {
        let mut path = std::env::temp_dir();
        path.push(format!("psa_service_trace_{}.psatrace", std::process::id()));
        {
            let spec = catalog::workload("mcf").expect("in catalog");
            let mut gen = psa_traces::TraceGenerator::new(spec, 5);
            let mut w =
                psa_traces::format::TraceWriter::create(&path, spec.name, spec.huge_fraction)
                    .expect("create");
            for _ in 0..500 {
                w.push_instr(&gen.next().expect("infinite")).expect("write");
            }
            w.finish().expect("finish");
        }
        let p = path.to_str().expect("utf-8 path");
        let tref = TraceRef::open(p).expect("verified");

        // Bare-path and pinned-object entries admit the same spec.
        let bare = spec_json(&format!(
            r#"{{"figure": "trace_replay", "traces": ["{p}"], "variants": ["SPP"]}}"#
        ));
        let pinned = spec_json(&format!(
            r#"{{"figure": "trace_replay",
                 "traces": [{{"path": "{p}", "content_hash": "{:016x}"}}],
                 "variants": ["SPP"]}}"#,
            tref.content_hash
        ));
        let a = SweepSpec::from_json(&bare).expect("bare path admits");
        let b = SweepSpec::from_json(&pinned).expect("pinned admits");
        assert_eq!(a.total_jobs(), 1);
        assert!(a.workloads.is_empty(), "traces alone satisfy the spec");
        assert_eq!(a.canonical(), b.canonical(), "dedup is by content hash");
        assert_eq!(a.key(base()), b.key(base()));
        assert_eq!(a.workload_refs()[0].name(), tref.name);

        // A wrong pin is a typed rejection naming both hashes.
        let mispinned = spec_json(&format!(
            r#"{{"figure": "trace_replay",
                 "traces": [{{"path": "{p}", "content_hash": "{:016x}"}}],
                 "variants": ["SPP"]}}"#,
            tref.content_hash ^ 1
        ));
        let err = SweepSpec::from_json(&mispinned).expect_err("wrong pin");
        assert_eq!(err.kind(), "trace_hash_mismatch");
        assert!(err
            .to_string()
            .contains(&format!("{:016x}", tref.content_hash)));

        // A missing file is a typed rejection, and so is a corrupt one.
        let gone = spec_json(
            r#"{"figure": "trace_replay", "traces": ["/nonexistent/x.psatrace"],
                "variants": ["SPP"]}"#,
        );
        let err = SweepSpec::from_json(&gone).expect_err("missing file");
        assert_eq!(err.kind(), "bad_trace");
        let mut bytes = std::fs::read(&path).expect("read");
        let at = bytes.len() - 9;
        bytes[at] ^= 0x40;
        let mut corrupt_path = std::env::temp_dir();
        corrupt_path.push(format!(
            "psa_service_trace_corrupt_{}.psatrace",
            std::process::id()
        ));
        std::fs::write(&corrupt_path, &bytes).expect("write corrupt");
        let cp = corrupt_path.to_str().expect("utf-8 path");
        let doc = spec_json(&format!(
            r#"{{"figure": "trace_replay", "traces": ["{cp}"], "variants": ["SPP"]}}"#
        ));
        let err = SweepSpec::from_json(&doc).expect_err("corrupt file");
        assert_eq!(err.kind(), "bad_trace");

        // Wrong shapes in the traces array are bad_type; a present-but-
        // empty array is empty_list; omitting workloads AND traces is
        // still missing_field.
        for (body, kind) in [
            (
                r#"{"figure": "trace_replay", "traces": [7], "variants": ["SPP"]}"#,
                "bad_type",
            ),
            (
                r#"{"figure": "trace_replay", "traces": [{"content_hash": "ff"}],
                    "variants": ["SPP"]}"#,
                "bad_type",
            ),
            (
                r#"{"figure": "trace_replay", "traces": [], "variants": ["SPP"]}"#,
                "empty_list",
            ),
            (
                r#"{"figure": "trace_replay", "variants": ["SPP"]}"#,
                "missing_field",
            ),
        ] {
            let err = SweepSpec::from_json(&spec_json(body)).expect_err(body);
            assert_eq!(err.kind(), kind, "{body}");
        }

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&corrupt_path);
    }

    #[test]
    fn key_separates_specs_and_configs() {
        let plain = spec_json(r#"{"figure": "fig08", "workloads": ["lbm"], "variants": ["SPP"]}"#);
        let seeded = spec_json(
            r#"{"figure": "fig08", "workloads": ["lbm"], "variants": ["SPP"], "seed": 1}"#,
        );
        let a = SweepSpec::from_json(&plain).unwrap();
        let b = SweepSpec::from_json(&seeded).unwrap();
        assert_ne!(a.key(base()), b.key(base()));
        assert_eq!(
            a.key(base()),
            SweepSpec::from_json(&plain).unwrap().key(base())
        );
        // A different executor budget is a different key.
        assert_ne!(a.key(base()), a.key(base().with_instructions(7)));
    }
}
