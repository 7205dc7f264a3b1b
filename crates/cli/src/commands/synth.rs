//! `v6census synth` — emit one synthetic day of aggregated CDN logs as
//! TSV, for piping into the analysis subcommands. With `--out DIR
//! [--days N]` it instead writes N consecutive day files atomically and
//! durably (temp file + fsync + rename) through the [`Vfs`] layer, so
//! `--fault-fs PLAN` can rehearse emission under injected I/O faults.
//! `--days` without `--out` is a usage error.

#![expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]

use crate::{err, CliError, Flags};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use v6census_core::temporal::Day;
use v6census_core::vfs::{RealFs, Vfs};
use v6census_synth::{World, WorldConfig};

/// Runs the subcommand.
pub fn synth(flags: &Flags) -> Result<String, CliError> {
    let day = flags.get_parsed("day")?;
    let world = World::standard(WorldConfig {
        seed: flags.get_parsed("seed")?,
        scale: flags.get_with("scale", super::scale)?,
    });
    if let Some(dir) = flags.get("out") {
        return emit_files(&world, dir, day, flags);
    }
    // The canonical serialization includes the `# end` integrity trailer
    // that lets `v6census census` prove a file was not truncated.
    Ok(world.day_log(day).to_text())
}

/// The `--out DIR [--days N]` mode: write day files through the Vfs
/// layer (atomic + durable), optionally under a `--fault-fs` plan.
fn emit_files(world: &World, dir: &str, first: Day, flags: &Flags) -> Result<String, CliError> {
    let mut fs: Arc<dyn Vfs> = Arc::new(RealFs);
    let fault = super::census::install_fault_fs(flags, &mut fs)?;
    let written = world
        .emit_day_logs(
            fs.as_ref(),
            Path::new(dir),
            first,
            flags.get_parsed("days")?,
        )
        .map_err(|e| err(format!("emission to {dir} failed: {e}")))?;
    let mut out = String::new();
    for path in &written {
        let _ = writeln!(out, "wrote {}", path.display());
    }
    let _ = writeln!(out, "emitted {} day file(s) to {dir}", written.len());
    if let Some(fault) = fault {
        let _ = writeln!(out, "fault injections: {}", fault.injected());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::disallowed_methods,
        reason = "tests build their fixtures with std::fs and clean up best-effort"
    )]
    use super::*;

    #[test]
    fn emits_parseable_log() {
        let f = Flags::parse(
            "synth",
            &[
                "--scale".into(),
                "0.005".into(),
                "--day".into(),
                "2015-03-17".into(),
            ],
        )
        .unwrap();
        let out = synth(&f).unwrap();
        assert!(out.starts_with("# synthetic day 2015-03-17"));
        let data_lines: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert!(data_lines.len() > 100);
        // Every line round-trips through the weighted parser.
        let (parsed, diag) = crate::input::parse_weighted_lines(&out);
        assert_eq!(diag.total(), 0);
        assert_eq!(parsed.len(), data_lines.len());
        // The integrity trailer is present and consistent.
        let trailer = out.lines().last().unwrap();
        assert!(
            trailer.starts_with("# end "),
            "synth output must end with the integrity trailer, got {trailer:?}"
        );
        assert!(
            trailer.contains(&format!(" {} ", data_lines.len())),
            "{trailer}"
        );
    }

    #[test]
    fn flag_validation() {
        // A `--day` that is no calendar day, a `--scale` that cannot size
        // a world, `--days 0`, `--days` or `--fault-fs` without `--out`
        // and a fault plan that does not parse are refused as the flags
        // parse, usage errors naming the flag.
        for (args, flag) in [
            (&["--day", "17-03"][..], "--day"),
            (&["--day", "2015-13-01"], "--day"),
            (&["--day", "2015-02-30"], "--day"),
            (&["--scale", "-1"], "--scale"),
            (&["--scale", "nan"], "--scale"),
            (&["--days", "0"], "--days"),
            (&["--days", "0", "--out", "x"], "--days"),
            (&["--days", "x", "--out", "x"], "--days"),
            (&["--days", "3"], "--days needs --out"),
            (&["--fault-fs", "enospc"], "--fault-fs needs --out"),
            (&["--fault-fs", "zap", "--out", "x"], "--fault-fs"),
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let e = Flags::parse("synth", &args).unwrap_err();
            assert!(
                e.is_usage() && e.to_string().contains(flag),
                "{args:?}: {e}"
            );
        }
    }

    #[test]
    fn out_mode_writes_day_files() {
        let dir = std::env::temp_dir().join(format!("v6census-synth-out-{}", std::process::id()));
        let f = Flags::parse(
            "synth",
            &[
                "--scale".into(),
                "0.002".into(),
                "--out".into(),
                dir.display().to_string(),
                "--days".into(),
                "3".into(),
            ],
        )
        .unwrap();
        let out = synth(&f).unwrap();
        assert!(out.contains("emitted 3 day file(s)"));
        for day in ["2015-03-17", "2015-03-18", "2015-03-19"] {
            let text = std::fs::read_to_string(dir.join(format!("{day}.log"))).unwrap();
            assert!(text.starts_with(&format!("# synthetic day {day}")));
            assert!(text.lines().last().unwrap().starts_with("# end "));
        }
        // No stale tmp siblings survive a clean emission.
        assert!(std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .all(|e| !e.file_name().to_string_lossy().ends_with(".tmp")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_mode_reports_injected_faults() {
        let dir = std::env::temp_dir().join(format!("v6census-synth-flt-{}", std::process::id()));
        let f = Flags::parse(
            "synth",
            &[
                "--scale".into(),
                "0.002".into(),
                "--out".into(),
                dir.display().to_string(),
                "--fault-fs".into(),
                "enospc@64:.log".into(),
            ],
        )
        .unwrap();
        // ENOSPC mid-write surfaces as a typed CLI error, never a panic,
        // and the atomic write protocol leaves no published file behind.
        assert!(synth(&f).is_err());
        assert!(!dir.join("2015-03-17.log").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
