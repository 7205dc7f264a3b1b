//! Temporal and spatial classification of active IPv6 addresses — the
//! primary contribution of Plonka & Berger, *Temporal and Spatial
//! Classification of Active IPv6 Addresses* (IMC 2015), as a reusable
//! library.
//!
//! # Temporal classification (§5.1)
//!
//! An address (or any prefix derived from it) is **nd-stable** when it is
//! observed active on two days with at least *n−1* intervening days.
//! Classification runs against a reference day inside a sliding window,
//! canonically `(-7d,+7d)`:
//!
//! ```
//! use v6census_core::temporal::{Day, DailyObservations, StabilityParams};
//! use v6census_trie::AddrSet;
//! use v6census_addr::Addr;
//!
//! let mut obs = DailyObservations::new();
//! let d0 = Day::from_ymd(2015, 3, 17);
//! let stable: Addr = "2001:db8::1".parse().unwrap();
//! let ephemeral: Addr = "2001:db8::2".parse().unwrap();
//! obs.record(d0, AddrSet::from_iter([stable, ephemeral]));
//! obs.record(d0 + 3, AddrSet::from_iter([stable]));
//!
//! let params = StabilityParams::nd(3); // 3d-stable (-7d,+7d)
//! let s = obs.stable_on(d0, &params);
//! assert!(s.contains(stable));
//! assert!(!s.contains(ephemeral));
//! assert_eq!(params.label(), "3d-stable (-7d,+7d)");
//! ```
//!
//! # Spatial classification (§5.2)
//!
//! [`spatial::MraCurve`] computes Multi-Resolution Aggregate count ratios
//! γ^k_p = n_{p+k}/n_p at single-bit, nybble, byte, and 16-bit-segment
//! resolution, plus the structural signatures the paper reads off MRA
//! plots; [`spatial::DensityClass`] computes `n@/p-dense` prefixes and the
//! Table 3 style density report; [`spatial::Ccdf`] builds the aggregate
//! population distributions of Figure 3; [`spatial::BoxStats`] the
//! per-segment ratio distributions of Figure 5b.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod daylog;
pub mod quality;
pub mod query;
pub mod spatial;
pub mod temporal;
pub mod vfs;

pub use classify::{ClassifiedAddr, TemporalClass};
pub use quality::{Annotated, Quality};
pub use query::{days_seen, members_in, prefix_profile, PrefixProfile};
pub use temporal::{DailyObservations, Day, StabilityParams};
pub use vfs::{FaultFs, FaultKind, FaultPlan, FaultRule, MemFs, RealFs, Vfs};
