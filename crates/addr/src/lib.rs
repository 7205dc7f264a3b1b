//! IPv6 address substrate for the `v6census` workspace.
//!
//! This crate provides everything the classifiers in `v6census-core` need to
//! know about a single IPv6 address *in isolation*:
//!
//! * [`Addr`] — a `u128`-backed IPv6 address with RFC 4291 text parsing,
//!   RFC 5952 canonical formatting, and bit/nybble/16-bit-segment accessors
//!   (the three "resolutions" of the paper's Multi-Resolution Aggregate
//!   analysis).
//! * [`Prefix`] — an address block `addr/len`, canonicalized so that bits
//!   beyond the prefix length are zero.
//! * [`index`] — the range-typed positions every accessor takes:
//!   [`PrefixLen`] (`0..=128`), [`BitIdx`], [`NybbleIdx`] and [`SegIdx`].
//! * [`Mac`] — a 48-bit IEEE MAC address and the modified EUI-64
//!   encoding/decoding used by SLAAC (RFC 4862 / RFC 4291 §2.5.1).
//! * [`special`] — the registry of special-use prefixes relevant to the
//!   study: Teredo, 6to4, ISATAP interface identifiers, documentation,
//!   link-local, unique-local, multicast, and the global unicast space.
//! * [`scheme`] — content-based classification of an address into the
//!   addressing schemes of §3 of the paper (Teredo / ISATAP / 6to4 /
//!   EUI-64 / embedded IPv4 / low-IID / structured / pseudorandom).
//! * [`malone`] — a reimplementation of the content-only privacy-address
//!   heuristic of Malone (PAM 2008), the baseline the paper's temporal
//!   classifier is contrasted with in §2.
//!
//! The crate is dependency-light and panic-free on arbitrary input: parsers
//! return [`ParseError`], and every accessor takes a range-typed index,
//! so it is total.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Workspace rules (DESIGN.md §7, checked by tests/lint_rules.rs):
// no panic paths,
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// determinism, durability and lock confinement (lists in clippy.toml),
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// cast safety and overflow policy in bit math,
#![deny(clippy::cast_possible_truncation, clippy::arithmetic_side_effects)]
// no discarded results, and accountable suppressions.
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![deny(unfulfilled_lint_expectations)]

mod addr;
pub mod bits;
pub mod cast;
mod error;
mod iid;
pub mod index;
mod mac;
mod prefix;

pub mod malone;
pub mod scheme;
pub mod special;

pub use addr::Addr;
pub use error::ParseError;
pub use iid::{embedded_ipv4, iid_entropy_bits, is_low_iid, Iid};
pub use index::{BitIdx, NybbleIdx, PrefixLen, SegIdx};
pub use mac::Mac;
pub use prefix::Prefix;
pub use scheme::AddressScheme;
