//! # v6census
//!
//! A from-scratch Rust reproduction of **Plonka & Berger, "Temporal and
//! Spatial Classification of Active IPv6 Addresses" (IMC 2015)** — the
//! classifiers, the measurement pipeline, and (since the paper's CDN logs
//! are proprietary) a deterministic synthetic Internet that exercises the
//! same code paths.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`addr`] — IPv6 address substrate: parsing/formatting, prefixes,
//!   EUI-64, special-use registry, content-based scheme classification.
//! * [`trie`] — Patricia/radix trie (aguri) with the paper's densify
//!   operation, active-aggregate counts, and sorted address sets.
//! * [`core`] — the paper's contribution: temporal (nd-stable) and
//!   spatial (MRA, population CCDF, prefix density) classification.
//! * [`synth`] — the synthetic world: archetypes, CDN logs, router
//!   probes, reverse DNS.
//! * [`census`] — the pipeline: culling, ASN attribution, Tables 1–3,
//!   Figures 2–5, and the in-text experiments.
//!
//! ## Quickstart
//!
//! ```
//! use v6census::prelude::*;
//!
//! // A small synthetic world and one day of CDN logs.
//! let world = World::standard(WorldConfig::tiny(1));
//! let day = Day::from_ymd(2015, 3, 17);
//! let census = Census::run(&world, day - 7, day + 7);
//!
//! // Temporal classification: the paper's 3d-stable (-7d,+7d) class.
//! let stable = census.other_daily().stable_on(day, &StabilityParams::three_day());
//! assert!(stable.len() < census.other_daily().on(day).len());
//!
//! // Spatial classification: 2@/112-dense WWW client prefixes.
//! let dense = DensityClass::at(2, PrefixLen::lit::<112>()).report(&census.other_daily().on(day));
//! assert_eq!(dense.possible_addresses, dense.dense_prefixes as u128 * 65_536);
//! ```
//!
//! See `examples/` for runnable applications and `crates/bench/src/bin/`
//! for the per-table/per-figure reproduction harness.

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

pub use v6census_addr as addr;
pub use v6census_census as census;
pub use v6census_core as core;
pub use v6census_synth as synth;
pub use v6census_trie as trie;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use v6census_addr::{Addr, AddressScheme, Iid, Mac, Prefix, PrefixLen};
    pub use v6census_census::{Census, RoutingTable};
    pub use v6census_core::spatial::{Ccdf, DensityClass, MraCurve, MraResolution};
    pub use v6census_core::temporal::{DailyObservations, Day, StabilityParams};
    pub use v6census_synth::{World, WorldConfig};
    pub use v6census_trie::{AddrSet, PrefixMap, RadixTree};
}
