//! The census pipeline: from aggregated logs to the paper's tables,
//! figures, and in-text experiments.
//!
//! * [`ingest`] — per-day culling into Teredo / ISATAP / 6to4 / "Other"
//!   (§4.1) and the multi-day [`ingest::Census`] store.
//! * [`routing`] — BGP snapshot + ASN/prefix attribution.
//! * [`tables`] — Table 1 (address characteristics), Table 2 (stability),
//!   Table 3 (dense router prefixes), with paper-style rendering.
//! * [`figures`] — the data series of Figures 2–5.
//! * [`plot`] — ASCII renderings and gnuplot-ready TSV emitters.
//! * [`svg`] — self-contained SVG renderers for MRA plots and CCDFs.
//! * [`experiments`] — §6.1.1 router discovery, the EUI-64 analyses,
//!   §6.2.2 dense WWW clients, §6.2.3 PTR harvest, and the ground-truth
//!   classifier evaluation the synthetic world enables.
//! * [`humane`] — the paper's "318M (95.8%)" number formatting.
//! * [`stream`] — fault-tolerant streaming ingestion of on-disk day
//!   logs: error taxonomy, error budgets, retries, checkpoints/resume.
//! * [`supervisor`] — supervised parallel execution of the analysis
//!   pipeline: panic isolation, stage deadlines, trie node budgets, and
//!   quality-annotated (degraded-mode) results under a run manifest.
//! * [`snapshot`] — immutable published census snapshots: readers never
//!   observe a half-ingested day, never block on ingest.
//! * [`serve`] — the crash-safe, load-shedding census daemon behind
//!   `v6census serve`: bounded HTTP/1.1 query surface, background
//!   incremental ingest, per-day checkpoints as the durable state,
//!   graceful drain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace rules (DESIGN.md §7, checked by tests/lint_rules.rs):
// no panic paths,
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// determinism, durability and lock confinement (lists in clippy.toml),
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// no discarded results, and accountable suppressions.
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![deny(unfulfilled_lint_expectations)]

pub mod experiments;
pub mod figures;
pub mod humane;
pub mod ingest;
pub mod plot;
pub mod routing;
pub mod serve;
pub mod snapshot;
pub mod stream;
pub mod supervisor;
pub mod svg;
pub mod tables;

pub use ingest::{Census, DaySummary};
pub use routing::RoutingTable;
pub use serve::{DrainReport, MetricsReading, ServeConfig, ServeError, ServeHandle};
pub use snapshot::{Snapshot, SnapshotCell};
pub use stream::{IngestConfig, IngestError, IngestReport, StreamIngestor};
pub use supervisor::{
    run_census, PipelineConfig, RunManifest, StageReport, SupervisedRun, SupervisorConfig,
};
