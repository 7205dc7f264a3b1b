//! A deterministic synthetic Internet standing in for the paper's
//! proprietary CDN vantage point.
//!
//! The paper (Plonka & Berger, IMC 2015) analyzed aggregated WWW logs of
//! a global CDN and a traceroute-derived router dataset — both
//! unavailable outside the authors' institution. This crate substitutes
//! a **generative world model** whose archetypes encode the addressing
//! practices the paper documents, so every downstream classifier and
//! experiment exercises the same code paths it would on real data:
//!
//! * [`World`] — ASN population with Zipf-skewed sizes, per-network
//!   [`archetype::Archetype`]s (mobile dynamic-/64 pools, rotating
//!   network IDs, static /48s, DHCPv6-PD broadband, universities,
//!   hosting, a 4 000-ASN tail), BGP allocations and deployment growth
//!   anchored to Table 1's epoch ratios.
//! * [`World::day_log`] — aggregated (address, hits) logs for any day of
//!   the study, as a pure function of `(seed, day)`.
//! * [`router::ProbeSim`] — TTL-limited probe campaigns over a synthetic
//!   router plane with operator-realistic interface numbering (/127
//!   links, packed /112 loopback blocks).
//! * [`rdns::PtrOracle`] — `ip6.arpa` PTR lookups, with ranges
//!   provisioned the way operators actually provision them.
//!
//! Ground truth ([`TrueKind`]) travels with every synthetic address, so
//! classifier quality can be *measured* here, not just argued.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace rules (DESIGN.md §7, checked by tests/lint_rules.rs):
// no panic paths,
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// lock confinement (the list is in clippy.toml),
#![deny(clippy::disallowed_types)]
// no discarded results, and accountable suppressions.
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![deny(unfulfilled_lint_expectations)]

pub mod archetype;
pub mod chaos;
pub mod faults;
pub mod kinds;
pub mod loggen;
pub mod rdns;
pub mod rng;
pub mod router;
pub mod world;

pub use chaos::{ChaosClient, ChaosKind, ChaosOutcome};
pub use faults::{
    AnalysisFault, AnalysisFaultPlan, Fault, FaultInjector, FaultManifest, FaultSpec,
};
pub use kinds::TrueKind;
pub use loggen::{DayLog, LogEntry};
pub use world::{check_scale, growth, Network, World, WorldConfig};
