//! L008 vfs-bypass and L009 lock-confinement: two token-level rules
//! that pin an effect to the files allowed to have it.
//!
//! **L008** is the durability-path proof: modules whose crash
//! consistency is guaranteed by `core::vfs` (scoped in `lint.toml` to
//! `census::{stream,serve,supervisor,snapshot}` and `synth::loggen`)
//! must not mutate the real filesystem behind the Vfs's back — a raw
//! `std::fs::write`/`rename`/`File::create` there is invisible to the
//! crash-point explorer and voids its guarantees. The mutation-token
//! list is overridable via `[rules.L008] mutation_tokens`.
//!
//! **L009** keeps every lock in a file listed for it: `Mutex`,
//! `RwLock`, `Condvar` and their guard types may be named in non-test
//! code only in the files `lint.toml` lists under `[rules.L009]
//! allowed`. In those files no function returns a guard, so a guard
//! dies inside the call that took it and no two locks nest; a new lock
//! anywhere else is a reviewed edit to that list, not a proof
//! obligation.

use crate::config::Config;
use crate::report::Diagnostic;
use crate::rules::{code_lines, semantic_finding, token_positions, SemanticRule, Workspace};
use crate::scan::ScannedFile;

/// Every `(file, line, token)` where a non-test line of `files` names
/// one of `tokens`, in file, line and token order: the scan L008 and
/// L009 share.
fn token_lines<'a>(
    files: impl Iterator<Item = &'a ScannedFile>,
    tokens: &'a [&'a str],
) -> impl Iterator<Item = (&'a ScannedFile, usize, &'a str)> {
    files.flat_map(move |file| {
        code_lines(file).flat_map(move |(line, code)| {
            tokens
                .iter()
                .filter(move |tok| !token_positions(code, tok).is_empty())
                .map(move |tok| (file, line, *tok))
        })
    })
}

// ---------------------------------------------------------------- L008

/// Raw-filesystem mutation tokens L008 bans in durability-scoped
/// modules. Short `fs::` forms also match fully qualified
/// `std::fs::…` spellings (the boundary check treats `:` as a
/// separator). Overridable via `[rules.L008] mutation_tokens`.
pub const MUTATION_TOKENS: &[&str] = &[
    "fs::write",
    "fs::rename",
    "fs::remove_file",
    "fs::remove_dir_all",
    "fs::create_dir_all",
    "fs::create_dir",
    "fs::copy",
    "fs::hard_link",
    "fs::set_permissions",
    "File::create",
    "OpenOptions::new",
    ".sync_all(",
    ".sync_data(",
];

/// L008 vfs-bypass: durability-scoped modules must route every
/// filesystem mutation through `core::vfs`.
pub struct VfsBypass;

impl SemanticRule for VfsBypass {
    fn id(&self) -> &'static str {
        "L008"
    }
    fn name(&self) -> &'static str {
        "vfs-bypass"
    }
    fn describe(&self) -> &'static str {
        "durability-scoped modules must not mutate the real filesystem directly — route writes/renames/fsyncs through core::vfs"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        let configured = cfg.list("rules.L008", "mutation_tokens");
        let tokens: Vec<&str> = if configured.is_empty() {
            MUTATION_TOKENS.to_vec()
        } else {
            configured.iter().map(String::as_str).collect()
        };
        for (file, line, tok) in token_lines(ws.files.iter(), &tokens) {
            out.push(semantic_finding(
                "L008",
                "vfs-bypass",
                file,
                line,
                format!(
                    "raw filesystem mutation `{}` bypasses core::vfs — crash-point exploration cannot see it; use the module's Vfs handle",
                    tok.trim_end_matches('(')
                ),
                None,
            ));
        }
    }
}

// ---------------------------------------------------------------- L009

/// Lock types L009 confines to the files listed under `[rules.L009]
/// allowed`.
pub const LOCK_TOKENS: &[&str] = &[
    "Mutex",
    "MutexGuard",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Condvar",
];

/// L009 lock-confinement: locks live only in the allowed files.
pub struct LockConfinement;

impl SemanticRule for LockConfinement {
    fn id(&self) -> &'static str {
        "L009"
    }
    fn name(&self) -> &'static str {
        "lock-confinement"
    }
    fn describe(&self) -> &'static str {
        "Mutex, RwLock and Condvar may be named only in the files lint.toml lists under [rules.L009] allowed"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        let allowed = cfg.list("rules.L009", "allowed");
        let files = ws.files.iter().filter(|f| !allowed.contains(&f.rel));
        for (file, line, tok) in token_lines(files, LOCK_TOKENS) {
            out.push(semantic_finding(
                "L009",
                "lock-confinement",
                file,
                line,
                format!(
                    "`{tok}` outside the lock-confined files — use atomics or a channel, or list this file under [rules.L009] allowed in lint.toml"
                ),
                None,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::scan::scan;
    use crate::symbols::SymbolTable;
    use std::path::PathBuf;

    /// Runs `rule` over one file at `rel` under `cfg`.
    fn run(rule: &dyn SemanticRule, rel: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
        let scanned = vec![scan(PathBuf::from(rel), rel.into(), src)];
        let symbols = SymbolTable::build(&scanned);
        let calls = CallGraph::build(&symbols, &scanned);
        let ws = Workspace {
            files: &scanned,
            symbols: &symbols,
            calls: &calls,
        };
        let mut out = Vec::new();
        rule.check(&ws, cfg, &mut out);
        out
    }

    #[test]
    fn vfs_bypass_flags_raw_fs_write() {
        let src = "\
pub fn persist(path: &str, data: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, data)
}
";
        let out = run(&VfsBypass, "crates/x/src/lib.rs", src, &Config::default());
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("fs::write"), "{:?}", out[0]);
    }

    #[test]
    fn lock_confinement_flags_locks_outside_the_allowed_files() {
        let src = "\
use std::sync::{Condvar, Mutex};
use std::sync::atomic::AtomicBool;
/// A Mutex named in a comment is fine.
pub static FLAG: AtomicBool = AtomicBool::new(false);
pub struct Q { state: Mutex<bool>, cv: Condvar }
#[cfg(test)]
mod tests { static T: std::sync::RwLock<u8> = std::sync::RwLock::new(0); }
";
        let out = run(
            &LockConfinement,
            "crates/x/src/lib.rs",
            src,
            &Config::default(),
        );
        let hits: Vec<(usize, &str)> = out
            .iter()
            .map(|d| (d.line, d.message.split('`').nth(1).unwrap_or("")))
            .collect();
        assert_eq!(
            hits,
            [(1, "Mutex"), (1, "Condvar"), (5, "Mutex"), (5, "Condvar")],
            "code lines only, test code exempt: {out:?}"
        );
        let cfg =
            Config::parse("[rules.L009]\nallowed = [\"crates/x/src/lib.rs\"]\n").expect("parses");
        let allowed = run(&LockConfinement, "crates/x/src/lib.rs", src, &cfg);
        assert!(allowed.is_empty(), "{allowed:?}");
    }
}
