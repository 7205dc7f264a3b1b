//! `v6census census` — the full fault-tolerant pipeline over a directory
//! of day-log files, run under the supervised parallel engine: streaming
//! ingestion with an error budget, retries, checkpoints/`--resume`, then
//! Table 1, gap-aware nd-stability, and dense-prefix analysis for a
//! reference day — with panic isolation, stage deadlines, and trie node
//! budgets (`--jobs`, `--stage-deadline`, `--max-trie-nodes`).
//!
//! The output has three sections. The *ingest health* section reports
//! what happened to every file (and legitimately differs between an
//! interrupted-then-resumed run and an uninterrupted one); the *run
//! manifest* section reports what supervision did (wall times make it
//! nondeterministic, unless `--no-timings` strips them); the *analysis*
//! section is a pure function of the ingested days, so a resumed census
//! — or one at a different `--jobs` setting — reproduces it
//! byte-for-byte. With `--no-timings` the *entire* report is
//! byte-stable, which the CI determinism job asserts with `diff`.
//!
//! The command returns its overall [`Quality`]; `main` maps a non-exact
//! run to [`crate::EXIT_DEGRADED`] so scripts can tell a clean census
//! from one that shed work.

#![expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]

use crate::{err, usage, CliError, Flags};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use v6census_census::stream::{DuplicatePolicy, ErrorMode, FileOutcome};
use v6census_census::supervisor::{run_census, PipelineConfig, SupervisedRun, SupervisorConfig};
use v6census_census::IngestConfig;
use v6census_core::quality::Quality;
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{StabilityParams, VerdictQuality};
use v6census_core::vfs::{FaultFs, FaultPlan, Vfs};
use v6census_synth::AnalysisFaultPlan;

/// Builds the [`IngestConfig`] from flags (shared with tests).
pub fn config_from_flags(flags: &Flags) -> Result<IngestConfig, CliError> {
    Ok(IngestConfig {
        max_bad_ratio: flags.get_parsed("max-bad-ratio")?,
        mode: if flags.has("strict") {
            ErrorMode::Strict
        } else {
            ErrorMode::Lenient
        },
        on_duplicate: if flags.has("merge-duplicates") {
            DuplicatePolicy::Merge
        } else {
            DuplicatePolicy::Reject
        },
        checkpoint_dir: flags.get("checkpoint").map(PathBuf::from),
        resume: flags.has("resume"),
        max_days: flags.get_opt("max-days", str::parse)?,
        ..IngestConfig::default()
    })
}

/// Wraps `vfs` in the deterministic fault injector of the `--fault-fs
/// PLAN` debug flag, when given (see [`FaultPlan`] for the plan
/// syntax). Returns the injector handle so the command can report how
/// many faults actually fired. Shared by `census`, `serve` and `synth`.
pub fn install_fault_fs(
    flags: &Flags,
    vfs: &mut Arc<dyn Vfs>,
) -> Result<Option<Arc<FaultFs>>, CliError> {
    let Some(plan) = flags.get_opt("fault-fs", FaultPlan::parse)? else {
        return Ok(None);
    };
    let fault = Arc::new(FaultFs::new(Arc::clone(vfs), plan));
    *vfs = fault.clone();
    Ok(Some(fault))
}

/// Builds the [`SupervisorConfig`] from flags (shared with tests).
pub fn supervisor_from_flags(flags: &Flags) -> Result<SupervisorConfig, CliError> {
    Ok(SupervisorConfig {
        jobs: flags.get_parsed("jobs")?,
        stage_deadline: flags
            .get_opt("stage-deadline", str::parse)?
            .map(Duration::from_millis),
        max_trie_nodes: flags.get_parsed("max-trie-nodes")?,
        faults: flags
            .get_opt("inject", AnalysisFaultPlan::parse)?
            .unwrap_or_else(AnalysisFaultPlan::none),
    })
}

/// Runs the subcommand: ingest the directory under supervision, run the
/// analysis stages, then render health + manifest + analysis sections.
/// Returns the report and the run's overall quality, which `main` maps
/// to the process exit code.
pub fn census(flags: &Flags) -> Result<(String, Quality), CliError> {
    let dir = flags
        .get("dir")
        .map(str::to_string)
        .or_else(|| flags.positional.first().cloned())
        .ok_or_else(|| usage("census requires a log directory (--dir DIR or positional)"))?;
    let params = StabilityParams::nd(flags.get_parsed("n")?);
    let class: DensityClass = flags.get_parsed("class")?;
    let mut cfg = PipelineConfig {
        ingest: config_from_flags(flags)?,
        supervisor: supervisor_from_flags(flags)?,
        params,
        // None: the supervisor defaults to the middle ingested day, so
        // the ±7d window fits.
        reference: flags.get_opt("reference", str::parse)?,
        gap_policy: flags.get_with("gap-policy", super::gap_policy)?,
        dense_n: class.n,
        dense_p: class.p,
    };
    let fault = install_fault_fs(flags, &mut cfg.ingest.vfs)?;
    let run = run_census(std::path::Path::new(&dir), &cfg)
        .map_err(|e| err(format!("ingest failed: {e}")))?;
    let quality = run.overall_quality();
    let timings = !flags.has("no-timings");
    let mut out = render(&run, &params, &class, timings);
    if let Some(fault) = fault {
        let _ = writeln!(out, "fault injections: {}", fault.injected());
    }
    Ok((out, quality))
}

/// Renders the three-section report. Split from [`census`] so tests can
/// drive it with a hand-built run. With `timings` false the manifest is
/// rendered via [`RunManifest::render_stable`], making the whole report
/// a pure function of the ingested data (what `--no-timings` and the CI
/// determinism job rely on).
///
/// [`RunManifest::render_stable`]: v6census_census::supervisor::RunManifest::render_stable
pub fn render(
    run: &SupervisedRun,
    params: &StabilityParams,
    class: &DensityClass,
    timings: bool,
) -> String {
    let report = &run.report;
    let mut out = report.health_report();
    let ingested = report
        .files
        .iter()
        .filter(|f| {
            matches!(
                f.outcome,
                FileOutcome::Ingested | FileOutcome::FromCheckpoint
            )
        })
        .count();
    let _ = writeln!(
        out,
        "files: {} ingested, {} of {} total\n",
        ingested,
        report.files.len() - ingested,
        report.files.len()
    );

    out.push_str(&if timings {
        run.manifest.render()
    } else {
        run.manifest.render_stable()
    });
    out.push('\n');

    out.push_str("==== analysis ====\n");
    let Some(reference) = run.reference else {
        out.push_str("no days ingested; nothing to analyze\n");
        return out;
    };
    let _ = writeln!(out, "reference day: {reference}");
    match &run.table1 {
        None => {
            let _ = writeln!(
                out,
                "reference day {reference} was not ingested; Table 1 skipped"
            );
        }
        Some(t) => match &t.value {
            Some(rendered) => {
                out.push('\n');
                out.push_str(rendered);
                if !t.quality.is_exact() {
                    let _ = writeln!(out, "Table 1{}", t.caveat());
                }
            }
            None => {
                let _ = writeln!(out, "Table 1 unavailable{}", t.caveat());
            }
        },
    }

    let active = report.census.other_daily().on(reference);
    let _ = writeln!(out, "\nstability of Other addresses on {reference}:");
    match run.stability.as_ref().and_then(|s| s.value.as_ref()) {
        None => {
            let caveat = run
                .stability
                .as_ref()
                .map(|s| s.caveat())
                .unwrap_or_default();
            let _ = writeln!(out, "  verdict unavailable{caveat}");
        }
        Some(verdict) => {
            match &verdict.quality {
                VerdictQuality::Complete => {
                    let _ = writeln!(out, "  window fully covered");
                }
                VerdictQuality::Widened {
                    back_extra,
                    fwd_extra,
                } => {
                    let _ = writeln!(
                        out,
                        "  window widened by -{back_extra}d/+{fwd_extra}d to cover ingestion gaps"
                    );
                }
                VerdictQuality::Unknown { missing } => {
                    let days: Vec<String> = missing.iter().map(|d| d.to_string()).collect();
                    let _ = writeln!(
                        out,
                        "  INCONCLUSIVE: window days never ingested: {}",
                        days.join(", ")
                    );
                }
            }
            let stable = verdict.stable.len();
            if active.is_empty() {
                let _ = writeln!(out, "  no active addresses on the reference day");
            } else {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>10} ({:.2}%)\n  {:<16} {:>10} ({:.2}%)",
                    params.label(),
                    stable,
                    100.0 * stable as f64 / active.len() as f64,
                    format!("not {}d-stable", params.n),
                    active.len() - stable,
                    100.0 * (active.len() - stable) as f64 / active.len() as f64,
                );
            }
        }
    }

    if let Some(d) = &run.dense {
        let _ = writeln!(
            out,
            "\n{class} prefixes among Other addresses on {reference}:{}",
            d.caveat()
        );
        if d.value.is_empty() {
            let _ = writeln!(out, "  none");
        }
        for dp in d.value.iter().take(12) {
            let _ = writeln!(out, "  {:<28} {:>10}", dp.prefix.to_string(), dp.count);
        }
        if d.value.len() > 12 {
            let _ = writeln!(out, "  … and {} more", d.value.len() - 12);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_core::temporal::GapPolicy;
    use v6census_synth::AnalysisFault;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(
            "census",
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn fault_fs_flag() {
        let mut cfg = config_from_flags(&flags(&[])).unwrap();
        assert!(install_fault_fs(&flags(&[]), &mut cfg.vfs)
            .unwrap()
            .is_none());
        let fault = install_fault_fs(&flags(&["--fault-fs", "enospc@64:ckpt"]), &mut cfg.vfs)
            .unwrap()
            .expect("valid plan installs the injector");
        assert_eq!(fault.injected(), 0);
        assert!(format!("{:?}", cfg.vfs).contains("FaultFs"));
        let e = Flags::parse("census", &["--fault-fs".into(), "zap".into()]).unwrap_err();
        assert!(e.is_usage() && e.to_string().contains("--fault-fs"), "{e}");
    }

    #[test]
    fn config_parsing() {
        let cfg = config_from_flags(&flags(&[
            "--max-bad-ratio=0.25",
            "--strict",
            "--checkpoint",
            "ckpts",
            "--resume",
            "--max-days",
            "3",
        ]))
        .unwrap();
        assert_eq!(cfg.max_bad_ratio, 0.25);
        assert_eq!(cfg.mode, ErrorMode::Strict);
        assert_eq!(cfg.checkpoint_dir, Some(PathBuf::from("ckpts")));
        assert!(cfg.resume);
        assert_eq!(cfg.max_days, Some(3));
        let cfg = config_from_flags(&flags(&[])).unwrap();
        assert_eq!(cfg.mode, ErrorMode::Lenient);
        assert_eq!(cfg.on_duplicate, DuplicatePolicy::Reject);
    }

    /// Values the ingest flags refuse are usage errors as the flags
    /// parse; `--gap-policy` reads its default when not given.
    #[test]
    fn config_validation() {
        for args in [
            &["--max-bad-ratio", "2"][..],
            &["--max-bad-ratio", "-0.1"],
            &["--resume"],
            &["--max-days", "x"],
            &["--gap-policy", "sometimes"],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let e = Flags::parse("census", &args).unwrap_err();
            assert!(e.is_usage(), "{args:?}: {e}");
        }
        let gap = |args: &[&str]| {
            flags(args)
                .get_with("gap-policy", super::super::gap_policy)
                .unwrap()
        };
        assert!(matches!(gap(&[]), GapPolicy::Widen { .. }));
        assert_eq!(gap(&["--gap-policy=flag"]), GapPolicy::Flag);
        assert_eq!(gap(&["--gap-policy=ignore"]), GapPolicy::AssumeInactive);
    }

    #[test]
    fn supervisor_config_parsing() {
        let cfg = supervisor_from_flags(&flags(&[
            "--jobs=4",
            "--stage-deadline=1500",
            "--max-trie-nodes=4096",
            "--inject=panic:densify/2001,hang:stability:60000",
        ]))
        .unwrap();
        assert_eq!(cfg.jobs, 4);
        assert_eq!(cfg.stage_deadline, Some(Duration::from_millis(1500)));
        assert_eq!(cfg.max_trie_nodes, 4096);
        assert_eq!(cfg.faults.rules().len(), 2);
        assert!(matches!(
            cfg.faults.fault_for("densify/2001"),
            Some(AnalysisFault::PanicShard { .. })
        ));

        let cfg = supervisor_from_flags(&flags(&[])).unwrap();
        assert_eq!(cfg.jobs, 1);
        assert_eq!(cfg.stage_deadline, None);
        assert_eq!(cfg.max_trie_nodes, 0);
        assert!(cfg.faults.is_empty());
    }

    #[test]
    fn supervisor_config_validation() {
        // Each is refused as the flags parse, a usage error naming the
        // flag.
        for arg in [
            "--jobs=0",
            "--jobs=x",
            "--stage-deadline=0",
            "--max-trie-nodes=-1",
            "--inject=warble:x",
        ] {
            let e = Flags::parse("census", &[arg.to_string()]).unwrap_err();
            let flag = arg.split('=').next().unwrap();
            assert!(e.is_usage() && e.to_string().contains(flag), "{e}");
        }
    }

    #[test]
    fn missing_dir_is_an_error() {
        assert!(census(&flags(&[])).is_err());
        let e = census(&flags(&["--dir", "/nonexistent/v6census-test"])).unwrap_err();
        assert!(e.to_string().contains("ingest failed"), "{e}");
    }
}
