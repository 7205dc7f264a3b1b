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

use crate::{err, usage, CliError, Flags};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use v6census_core::temporal::Day;
use v6census_core::vfs::{FaultFs, FaultPlan, RealFs, Vfs};
use v6census_synth::{check_scale, World, WorldConfig};

/// Parses `YYYY-MM-DD`.
pub(crate) fn parse_day(s: &str) -> Result<Day, CliError> {
    let mut parts = s.split('-');
    let (Some(ys), Some(ms), Some(ds), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(err(format!("bad --day {s:?}; expected YYYY-MM-DD")));
    };
    let y: i32 = ys.parse().map_err(|_| err("bad year"))?;
    let m: u8 = ms.parse().map_err(|_| err("bad month"))?;
    let d: u8 = ds.parse().map_err(|_| err("bad day"))?;
    Day::try_from_ymd(y, m, d).ok_or_else(|| err(format!("bad --day {s:?}")))
}

/// Runs the subcommand.
pub fn synth(flags: &Flags) -> Result<String, CliError> {
    let day = parse_day(flags.get("day").unwrap_or("2015-03-17"))?;
    let scale = check_scale(flags.get_parsed("scale", 0.02f64)?)
        .map_err(|e| usage(format!("bad --scale: {e}")))?;
    let seed: u64 = flags.get_parsed("seed", 0x76c3_15c3_0001u64)?;
    let days: u32 = flags.get_parsed("days", 1u32)?;
    let out = flags.get("out");
    if out.is_none() && flags.has("days") {
        return Err(usage(
            "--days needs --out DIR; without it synth prints one day",
        ));
    }
    if days == 0 {
        return Err(err("--days must be at least 1"));
    }
    let world = World::standard(WorldConfig { seed, scale });
    if let Some(dir) = out {
        return emit_files(&world, dir, day, days, flags);
    }
    let log = world.day_log(day);
    // The canonical serialization includes the `# end` integrity trailer
    // that lets `v6census census` prove a file was not truncated.
    Ok(log.to_text())
}

/// The `--out DIR [--days N]` mode: write day files through the Vfs
/// layer (atomic + durable), optionally under a `--fault-fs` plan.
fn emit_files(
    world: &World,
    dir: &str,
    first: Day,
    days: u32,
    flags: &Flags,
) -> Result<String, CliError> {
    let mut fs: Arc<dyn Vfs> = Arc::new(RealFs);
    let fault = match flags.get("fault-fs") {
        None => None,
        Some(spec) => {
            let plan =
                FaultPlan::parse(spec).map_err(|e| err(format!("bad --fault-fs plan: {e}")))?;
            let fault = Arc::new(FaultFs::new(fs, plan));
            fs = fault.clone();
            Some(fault)
        }
    };
    let written = world
        .emit_day_logs(fs.as_ref(), Path::new(dir), first, days)
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
        assert!(synth(&Flags::parse("synth", &["--day".into(), "17-03".into()]).unwrap()).is_err());
        assert!(synth(&Flags::parse("synth", &["--scale".into(), "-1".into()]).unwrap()).is_err());
        assert!(synth(&Flags::parse("synth", &["--scale".into(), "nan".into()]).unwrap()).is_err());
        assert!(
            synth(&Flags::parse("synth", &["--day".into(), "2015-13-01".into()]).unwrap()).is_err()
        );
        assert!(
            synth(&Flags::parse("synth", &["--day".into(), "2015-02-30".into()]).unwrap()).is_err()
        );
        assert!(synth(
            &Flags::parse(
                "synth",
                &["--out".into(), "x".into(), "--days".into(), "0".into()]
            )
            .unwrap()
        )
        .is_err());
        // `--days` is checked without `--out` too, where it is a usage
        // error whatever its value.
        for days in ["0", "3", "x"] {
            let got = synth(&Flags::parse("synth", &["--days".into(), days.into()]).unwrap());
            assert!(got.is_err_and(|e| e.is_usage()), "--days {days}");
        }
        assert!(synth(
            &Flags::parse(
                "synth",
                &["--out".into(), "x".into(), "--days".into(), "x".into()]
            )
            .unwrap()
        )
        .is_err_and(|e| e.is_usage()));
        assert!(synth(
            &Flags::parse(
                "synth",
                &[
                    "--out".into(),
                    "x".into(),
                    "--fault-fs".into(),
                    "zap".into()
                ]
            )
            .unwrap()
        )
        .is_err());
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
