//! Patricia/radix-trie substrate for `v6census`.
//!
//! The paper's spatial machinery (§5.2) rests on one trie, one prefix
//! table and one sort-based path, all provided here:
//!
//! * [`RadixTree`] — a path-compressed binary (Patricia) trie over
//!   `(u128, prefix-length)` keys with per-node counts. This is the
//!   *aguri tree* of Cho et al. (QofIS '01) that §5.2.3 extends: it
//!   supports the classic aguri aggregation-to-a-traffic-percentage
//!   ([`RadixTree::aguri_aggregate`]) and the paper's new **densify**
//!   operation ([`RadixTree::densify`]).
//! * [`PrefixMap`] — a sorted prefix table, built once, answering the
//!   longest-prefix matches of BGP routing-table lookups
//!   ([`PrefixMap::longest_match`]).
//! * [`AddrSet`] / [`aggcount`] — the sort-based fast path of the paper's
//!   footnote 3 (`sort | cut -c1-$((p/4)) | uniq -c`): a compact sorted
//!   address set from which *active aggregate counts* `n_p` for **all**
//!   prefix lengths are derived in a single pass over adjacent
//!   common-prefix lengths, and per-aggregate population counts for the
//!   Kohler-style distribution plots.
//!
//! The trie and the sort-based path compute identical answers: the
//! property tests in this crate assert that equivalence, and the census
//! crate's `tests/spec.rs` checks both against brute-force readings of
//! the paper's definitions.

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

pub mod aggcount;
mod set;
mod tree;

pub use aggcount::{dense_prefixes, dense_prefixes_at, populations, AggregateCounts};
pub use set::AddrSet;
pub use tree::{BudgetedDensify, DensePrefix, PrefixMap, RadixTree};
