//! v6census-lint: in-repo static analysis for the v6census workspace.
//!
//! The workspace ships contracts that `rustc` and clippy cannot see:
//! panic-free library paths, byte-for-byte deterministic product
//! output, lossless bit/nybble casts, a typed error taxonomy, a
//! documented process exit-code mapping, and a crash-consistent
//! durability path, with locks confined to the files that may hold
//! them. This crate enforces them as lexical rules (`L001`–`L009`;
//! L008 and L009 in [`effects`]) over comment- and string-blanked
//! source, the interprocedural `R001` panic-reachability proof over the
//! [`callgraph`], and per-line
//! `// lint: allow(<rule>, reason = "...")` suppression
//! pragmas that are themselves machine-checked (`P000`, `P001`).
//!
//! That the per-address kernels do not allocate per address is not a
//! lint rule: the root package's `tests/allocs.rs` counts their heap
//! allocations on a real synth day.
//!
//! Run it as `cargo run -p lint -- --workspace` (add `--deny all` in
//! CI). Rule scopes live in the checked-in `lint.toml`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod effects;
pub mod engine;
pub mod lexer;
pub mod reach;
pub mod report;
pub mod rules;
pub mod scan;
pub mod symbols;
