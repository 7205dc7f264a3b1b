//! Input parsing shared by the subcommands: address lists and
//! `address hits` weighted lists, read from text lines.

use crate::{err, CliError};
use v6census_addr::Addr;
use v6census_core::daylog::{self, BadReason, Line};
use v6census_trie::AddrSet;

/// Parses one address per line; blank lines and `#` comments are
/// skipped; unparseable lines are counted, not fatal.
pub fn parse_addr_lines(text: &str) -> (Vec<Addr>, usize) {
    let mut addrs = Vec::new();
    let mut bad = 0usize;
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        // Accept an optional trailing column (e.g. hits) after whitespace.
        let first = t.split_whitespace().next().unwrap_or(t);
        match first.parse::<Addr>() {
            Ok(a) => addrs.push(a),
            Err(_) => bad += 1,
        }
    }
    (addrs, bad)
}

/// What `parse_weighted_lines` rejected, by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WeightedDiagnostics {
    /// Lines dropped because the address did not parse.
    pub bad_addrs: usize,
    /// Lines dropped because their hits column was present but
    /// unparseable.
    pub bad_weights: usize,
}

impl WeightedDiagnostics {
    /// Total problem lines.
    pub fn total(&self) -> usize {
        self.bad_addrs + self.bad_weights
    }
}

/// Parses `address<ws>hits` per line into weighted entries with the
/// day-log line parse ([`daylog::parse_line`]), so its policy is the
/// census's: no hits column means weight 1, and a line whose address or
/// *present* hits column (`2001:db8::1 banana`) does not parse is
/// dropped and counted by cause.
pub fn parse_weighted_lines(text: &str) -> (Vec<(Addr, u64)>, WeightedDiagnostics) {
    let mut out = Vec::new();
    let mut diag = WeightedDiagnostics::default();
    for line in text.lines() {
        match daylog::parse_line(line) {
            Line::Entry(addr, hits) => out.push((addr, hits)),
            Line::Bad(BadReason::Addr) => diag.bad_addrs += 1,
            Line::Bad(BadReason::Hits) => diag.bad_weights += 1,
            Line::Blank | Line::Comment(_) => {}
        }
    }
    (out, diag)
}

/// Parses addresses into a set, failing when nothing parses.
pub fn addr_set(text: &str) -> Result<(AddrSet, usize), CliError> {
    let (addrs, bad) = parse_addr_lines(text);
    if addrs.is_empty() {
        return Err(err("no parseable IPv6 addresses in input"));
    }
    Ok((AddrSet::from_iter(addrs), bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_skips() {
        let text = "# comment\n2001:db8::1\n\nnot-an-addr\n2001:db8::2 42\n";
        let (addrs, bad) = parse_addr_lines(text);
        assert_eq!(addrs.len(), 2);
        assert_eq!(bad, 1);
        let (weighted, diag) = parse_weighted_lines(text);
        assert_eq!(diag.bad_addrs, 1);
        assert_eq!(diag.bad_weights, 0);
        assert_eq!(weighted[0], ("2001:db8::1".parse().unwrap(), 1));
        assert_eq!(weighted[1], ("2001:db8::2".parse().unwrap(), 42));
    }

    #[test]
    fn malformed_hits_column_is_counted_not_silent() {
        let text = "2001:db8::1 banana\n2001:db8::2 42\n2001:db8::3\n";
        let (weighted, diag) = parse_weighted_lines(text);
        assert_eq!(diag.bad_addrs, 0);
        assert_eq!(diag.bad_weights, 1, "present-but-bad hits must be reported");
        assert_eq!(diag.total(), 1);
        // The bad-weight line is dropped, as census drops it.
        assert_eq!(weighted.len(), 2);
        assert_eq!(weighted[0], ("2001:db8::2".parse().unwrap(), 42));
        assert_eq!(weighted[1], ("2001:db8::3".parse().unwrap(), 1));
    }

    /// Every fault that still writes a file, read three ways: the codec,
    /// the CLI's weighted reader, and the stream ingestor. They keep the
    /// same entries and reject the same lines for the same reasons.
    #[test]
    fn one_bad_line_policy_at_every_entry_point() {
        use std::collections::BTreeMap;
        use std::path::{Path, PathBuf};
        use std::sync::Arc;
        use v6census_census::stream::{
            checkpoint_path, load_checkpoint, FileOutcome, IngestConfig, IngestError,
            StreamIngestor,
        };
        use v6census_census::Census;
        use v6census_core::vfs::MemFs;
        use v6census_synth::faults::day_file_name;
        use v6census_synth::world::epochs;
        use v6census_synth::{Fault, FaultInjector, World, WorldConfig};

        let log = World::standard(WorldConfig {
            seed: 3,
            scale: 0.002,
        })
        .day_log(epochs::mar2015());
        let clean = log.to_text();
        let path = PathBuf::from("/logs").join(day_file_name(log.day));
        let ckpts = Path::new("/ckpt");
        for fault in [
            Fault::CorruptLines { count: 6 },
            Fault::Truncate { keep_pct: 60 },
            Fault::DuplicateDay,
            Fault::ShiftHeaderDay { offset: 1 },
            Fault::OversizedPrefixBlob { addrs: 50 },
        ] {
            let text = FaultInjector::new(11)
                .apply(log.day, &clean, &fault)
                .unwrap();
            let mut entries = Vec::new();
            let codec = daylog::read(text.as_bytes(), &mut entries).unwrap();
            let mut by_reason: BTreeMap<&str, usize> = BTreeMap::new();
            for b in &codec.bad {
                *by_reason.entry(b.reason.label()).or_default() += 1;
            }

            let (weighted, diag) = parse_weighted_lines(&text);
            assert_eq!(weighted, entries, "{fault}");
            let addr_label = BadReason::Addr.label();
            let hits_label = BadReason::Hits.label();
            let count = |label| by_reason.get(label).copied().unwrap_or(0);
            assert_eq!(diag.bad_addrs, count(addr_label), "{fault}");
            assert_eq!(diag.bad_weights, count(hits_label), "{fault}");

            let fs = Arc::new(MemFs::from_durable(
                BTreeMap::from([(path.clone(), text.into_bytes())]),
                Default::default(),
            ));
            let ingestor = StreamIngestor::new(IngestConfig {
                max_bad_ratio: 0.5,
                checkpoint_dir: Some(ckpts.to_path_buf()),
                vfs: fs.clone(),
                ..IngestConfig::default()
            });
            let parsed = ingestor.parse_file(&path).unwrap();
            let report = ingestor
                .commit_parsed(parsed, &mut Census::new_empty(), &mut Vec::new())
                .unwrap();
            let mut stream_reasons: BTreeMap<&str, usize> = BTreeMap::new();
            for e in &report.errors {
                if let IngestError::BadLine { reason, .. } = e {
                    *stream_reasons.entry(reason.as_str()).or_default() += 1;
                }
            }
            assert_eq!(stream_reasons, by_reason, "{fault}");
            assert_eq!(report.bad_lines, codec.bad.len(), "{fault}");
            assert_eq!(report.data_lines, codec.data_lines, "{fault}");
            // What the ingestor commits is what it checkpoints.
            match fault {
                Fault::Truncate { .. } | Fault::ShiftHeaderDay { .. } => {
                    assert_eq!(report.outcome, FileOutcome::Failed, "{fault}")
                }
                _ => {
                    assert_eq!(report.outcome, FileOutcome::Ingested, "{fault}");
                    let mut kept = Vec::new();
                    load_checkpoint(fs.as_ref(), &checkpoint_path(ckpts, log.day), &mut kept)
                        .unwrap();
                    assert_eq!(kept, entries, "{fault}");
                }
            }
            if let Fault::CorruptLines { .. } = fault {
                assert!(
                    count(addr_label) > 0 && count(hits_label) > 0,
                    "{by_reason:?}"
                );
            }
        }
    }

    #[test]
    fn addr_set_requires_input() {
        assert!(addr_set("garbage\n").is_err());
        let (set, bad) = addr_set("2001:db8::1\n2001:db8::1\n").unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(bad, 0);
    }
}
