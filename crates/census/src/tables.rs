//! The paper's numeric tables, computed from a census.

use crate::humane::{count_pct, si};
use crate::ingest::{Census, DaySummary};
use v6census_addr::PrefixLen;
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, StabilityParams};
use v6census_trie::AddrSet;

// ---------------------------------------------------------------------------
// Table 1: address characteristics per day / per week
// ---------------------------------------------------------------------------

/// One column of Table 1 (one epoch, daily or weekly granularity).
#[derive(Clone, Debug)]
pub struct Table1Column {
    /// Column header (e.g. "Mar 17, 2015").
    pub label: String,
    /// Teredo addresses.
    pub teredo: u64,
    /// ISATAP addresses.
    pub isatap: u64,
    /// 6to4 addresses.
    pub sixtofour: u64,
    /// "Other" (native-transport) addresses.
    pub other: u64,
    /// Active /64s among Other.
    pub other_64s: u64,
    /// EUI-64 addresses among Other.
    pub eui64: u64,
    /// Unique MACs behind them.
    pub eui64_macs: u64,
}

impl Table1Column {
    /// Builds a column from a (daily or weekly) summary.
    pub fn from_summary(label: String, s: &DaySummary) -> Table1Column {
        Table1Column {
            label,
            teredo: s.teredo.len() as u64,
            isatap: s.isatap.len() as u64,
            sixtofour: s.sixtofour.len() as u64,
            other: s.other.len() as u64,
            other_64s: s.other_64s().len() as u64,
            eui64: s.eui64.len() as u64,
            eui64_macs: s.eui64_macs.len() as u64,
        }
    }

    /// Total active addresses (percentage base).
    pub fn total(&self) -> u64 {
        self.teredo + self.isatap + self.sixtofour + self.other
    }

    /// Average addresses per active /64.
    pub fn addrs_per_64(&self) -> f64 {
        if self.other_64s == 0 {
            0.0
        } else {
            self.other as f64 / self.other_64s as f64
        }
    }
}

/// A full Table 1 (several epoch columns at one granularity).
#[derive(Clone, Debug)]
pub struct Table1 {
    /// "per day" or "per week".
    pub granularity: &'static str,
    /// The epoch columns.
    pub columns: Vec<Table1Column>,
}

impl Table1 {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let w = 22usize;
        out.push_str(&format!(
            "{:<22}{}\n",
            "Characteristic",
            self.columns
                .iter()
                .map(|c| format!("{:>24}", c.label))
                .collect::<String>()
        ));
        let mut row = |name: &str, f: &dyn Fn(&Table1Column) -> String| {
            out.push_str(&format!(
                "{:<w$}{}\n",
                name,
                self.columns
                    .iter()
                    .map(|c| format!("{:>24}", f(c)))
                    .collect::<String>()
            ));
        };
        row("Teredo addresses", &|c| {
            count_pct(c.teredo as u128, c.total() as u128)
        });
        row("ISATAP addresses", &|c| {
            count_pct(c.isatap as u128, c.total() as u128)
        });
        row("6to4 addresses", &|c| {
            count_pct(c.sixtofour as u128, c.total() as u128)
        });
        row("Other addresses", &|c| {
            count_pct(c.other as u128, c.total() as u128)
        });
        row("Other /64 prefixes", &|c| si(c.other_64s as u128));
        row("ave. addrs per /64", &|c| {
            format!("{:.2}", c.addrs_per_64())
        });
        row("EUI-64 addr (!6to4)", &|c| {
            count_pct(c.eui64 as u128, c.total() as u128)
        });
        row("EUI-64 IIDs (MACs)", &|c| si(c.eui64_macs as u128));
        out
    }
}

// ---------------------------------------------------------------------------
// Table 2: stability
// ---------------------------------------------------------------------------

/// One column of Table 2 (one epoch), for addresses or /64s, daily or
/// weekly.
#[derive(Clone, Debug)]
pub struct Table2Column {
    /// Column header.
    pub label: String,
    /// nd-stable count (n from the params used).
    pub stable: u64,
    /// Complement within the observed actives.
    pub not_stable: u64,
    /// 6m-stable (-6m) count, when an earlier epoch is available.
    pub six_month: Option<u64>,
    /// 1y-stable (-1y) count, when a year-earlier epoch is available.
    pub one_year: Option<u64>,
}

impl Table2Column {
    /// Percentage base: active count for this column.
    pub fn total(&self) -> u64 {
        self.stable + self.not_stable
    }
}

/// A full Table 2 pane (2a, 2b, 2c or 2d).
#[derive(Clone, Debug)]
pub struct Table2 {
    /// Pane caption, e.g. "Stability of IPv6 addresses per day".
    pub caption: String,
    /// The stability parameters used for the nd-stable row.
    pub params: StabilityParams,
    /// Epoch columns.
    pub columns: Vec<Table2Column>,
}

/// Inputs describing one epoch for Table 2: the reference day (daily
/// panes) or the first day of the reference week (weekly panes).
#[derive(Clone, Copy, Debug)]
pub struct EpochSpec {
    /// Column header.
    pub label: &'static str,
    /// Reference day (or first day of the reference week).
    pub reference: Day,
}

impl Table2 {
    /// Computes a *daily* stability pane (Table 2a with `obs` = address
    /// observations; Table 2b with /64 observations) over the given
    /// epochs, using `params` for the nd-stable row.
    ///
    /// `obs` must contain the ±window days around every epoch reference.
    pub fn daily(
        caption: &str,
        obs: &v6census_core::temporal::DailyObservations,
        epochs: &[EpochSpec],
        params: StabilityParams,
    ) -> Table2 {
        let mut columns = Vec::new();
        for (i, e) in epochs.iter().enumerate() {
            let stable = obs.stable_on(e.reference, &params);
            let active = obs.on(e.reference);
            let six_month = i.checked_sub(1).map(|j| {
                obs.epoch_stable([e.reference], [epochs[j].reference])
                    .stable
                    .len() as u64
            });
            let one_year = i.checked_sub(2).map(|j| {
                obs.epoch_stable([e.reference], [epochs[j].reference])
                    .stable
                    .len() as u64
            });
            columns.push(Table2Column {
                label: e.label.to_string(),
                stable: stable.len() as u64,
                not_stable: (active.len() - stable.len()) as u64,
                six_month,
                one_year,
            });
        }
        Table2 {
            caption: caption.to_string(),
            params,
            columns,
        }
    }

    /// Computes a *weekly* stability pane (Table 2c/2d): per-reference-day
    /// nd-stable sets unioned over each epoch's week, and cross-epoch
    /// week-vs-week stability.
    pub fn weekly(
        caption: &str,
        obs: &v6census_core::temporal::DailyObservations,
        epochs: &[EpochSpec],
        params: StabilityParams,
    ) -> Table2 {
        let week = |d: Day| d.range_inclusive(d + 6);
        let mut columns = Vec::new();
        for (i, e) in epochs.iter().enumerate() {
            let w = obs.stable_over_week(e.reference, &params);
            let six_month = i.checked_sub(1).map(|j| {
                obs.epoch_stable(week(e.reference), week(epochs[j].reference))
                    .stable
                    .len() as u64
            });
            let one_year = i.checked_sub(2).map(|j| {
                obs.epoch_stable(week(e.reference), week(epochs[j].reference))
                    .stable
                    .len() as u64
            });
            columns.push(Table2Column {
                label: e.label.to_string(),
                stable: w.stable.len() as u64,
                not_stable: w.not_stable.len() as u64,
                six_month,
                one_year,
            });
        }
        Table2 {
            caption: caption.to_string(),
            params,
            columns,
        }
    }

    /// Renders the pane in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.caption);
        let hdr: String = self
            .columns
            .iter()
            .map(|c| format!("{:>24}", c.label))
            .collect();
        out.push_str(&format!("{:<22}{}\n", "class", hdr));
        let n = self.params.n;
        let mut row = |name: String, f: &dyn Fn(&Table2Column) -> String| {
            out.push_str(&format!(
                "{:<22}{}\n",
                name,
                self.columns
                    .iter()
                    .map(|c| format!("{:>24}", f(c)))
                    .collect::<String>()
            ));
        };
        row(format!("{n}d-stable"), &|c| {
            count_pct(c.stable as u128, c.total() as u128)
        });
        row(format!("not {n}d-stable"), &|c| {
            count_pct(c.not_stable as u128, c.total() as u128)
        });
        row("6m-stable (-6m)".to_string(), &|c| match c.six_month {
            Some(v) => count_pct(v as u128, c.total() as u128),
            None => String::new(),
        });
        row("1y-stable (-1y)".to_string(), &|c| match c.one_year {
            Some(v) => count_pct(v as u128, c.total() as u128),
            None => String::new(),
        });
        out
    }
}

// ---------------------------------------------------------------------------
// Table 3: dense prefixes
// ---------------------------------------------------------------------------

/// Table 3: density classes applied to a router-address dataset.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// One row per density class, in the paper's order.
    pub rows: Vec<v6census_core::spatial::DensityReport>,
}

/// The twelve density classes of the paper's Table 3, in row order.
pub fn table3_classes() -> Vec<DensityClass> {
    vec![
        DensityClass::at(2, PrefixLen::lit::<124>()),
        DensityClass::at(3, PrefixLen::lit::<120>()),
        DensityClass::at(2, PrefixLen::lit::<120>()),
        DensityClass::at(2, PrefixLen::lit::<116>()),
        DensityClass::at(64, PrefixLen::lit::<112>()),
        DensityClass::at(32, PrefixLen::lit::<112>()),
        DensityClass::at(16, PrefixLen::lit::<112>()),
        DensityClass::at(8, PrefixLen::lit::<112>()),
        DensityClass::at(4, PrefixLen::lit::<112>()),
        DensityClass::at(2, PrefixLen::lit::<112>()),
        DensityClass::at(2, PrefixLen::lit::<108>()),
        DensityClass::at(2, PrefixLen::lit::<104>()),
    ]
}

impl Table3 {
    /// Computes all twelve rows over a router-address set.
    pub fn compute(routers: &AddrSet) -> Table3 {
        Table3 {
            rows: table3_classes()
                .into_iter()
                .map(|c| c.report(routers))
                .collect(),
        }
    }

    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14}{:>10}{:>12}{:>14}{:>16}\n",
            "Density", "Dense", "Router", "Possible", "Address"
        ));
        out.push_str(&format!(
            "{:<14}{:>10}{:>12}{:>14}{:>16}\n",
            "Class", "Prefixes", "Addresses", "Addresses", "Density"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14}{:>10}{:>12}{:>14}{:>16.10}\n",
                format!("{} @ /{}", r.class.n, r.class.p),
                si(r.dense_prefixes as u128),
                si(r.covered_addresses as u128),
                si(r.possible_addresses),
                r.density(),
            ));
        }
        out
    }
}

/// Convenience: build both Table 1 granularities from a census. Epochs
/// whose reference day was never ingested are skipped in the daily
/// table (the weekly table tolerates gaps via `week_summary`).
pub fn table1(census: &Census, epochs: &[EpochSpec]) -> (Table1, Table1) {
    let daily = Table1 {
        granularity: "per day",
        columns: epochs
            .iter()
            .filter_map(|e| {
                let s = census.summary(e.reference)?;
                Some(Table1Column::from_summary(e.label.to_string(), s))
            })
            .collect(),
    };
    let weekly = Table1 {
        granularity: "per week",
        columns: epochs
            .iter()
            .map(|e| {
                let s = census.week_summary(e.reference);
                Table1Column::from_summary(format!("{} (wk)", e.label), &s)
            })
            .collect(),
    };
    (daily, weekly)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_core::temporal::DailyObservations;
    use v6census_synth::{world::epochs, World, WorldConfig};

    #[test]
    fn table1_columns_add_up() {
        let w = World::standard(WorldConfig::tiny(19));
        let d = epochs::mar2015();
        let c = Census::run(&w, d, d + 6);
        let spec = [EpochSpec {
            label: "Mar 17, 2015",
            reference: d,
        }];
        let (daily, weekly) = table1(&c, &spec);
        let dc = &daily.columns[0];
        let wc = &weekly.columns[0];
        assert!(wc.other > dc.other, "weekly must exceed daily");
        assert!(dc.addrs_per_64() >= 1.0);
        assert!(wc.addrs_per_64() > dc.addrs_per_64());
        let rendered = daily.render();
        assert!(rendered.contains("Other addresses"));
        assert!(rendered.contains('%'));
    }

    #[test]
    fn table2_daily_columns() {
        let mut obs = DailyObservations::new();
        let d = Day::from_ymd(2015, 3, 17);
        let e = Day::from_ymd(2014, 9, 17);
        let mk = |names: &[&str]| {
            v6census_trie::AddrSet::from_iter(
                names
                    .iter()
                    .map(|s| s.parse::<v6census_addr::Addr>().unwrap()),
            )
        };
        obs.record(e, mk(&["2001:db8::1", "2001:db8::5"]));
        obs.record(d, mk(&["2001:db8::1", "2001:db8::2"]));
        obs.record(d + 3, mk(&["2001:db8::1"]));
        let t = Table2::daily(
            "Stability of IPv6 addresses per day",
            &obs,
            &[
                EpochSpec {
                    label: "Sep 17, 2014",
                    reference: e,
                },
                EpochSpec {
                    label: "Mar 17, 2015",
                    reference: d,
                },
            ],
            StabilityParams::three_day(),
        );
        assert_eq!(t.columns.len(), 2);
        let c = &t.columns[1];
        assert_eq!(c.stable, 1); // ::1 seen on d and d+3
        assert_eq!(c.not_stable, 1);
        assert_eq!(c.six_month, Some(1)); // ::1 in common with e
        assert_eq!(c.one_year, None);
        let r = t.render();
        assert!(r.contains("3d-stable"));
        assert!(r.contains("6m-stable (-6m)"));
    }

    #[test]
    fn table3_rows_are_ordered_like_paper() {
        let classes = table3_classes();
        assert_eq!(classes.len(), 12);
        assert_eq!(classes[0].to_string(), "2@/124-dense");
        assert_eq!(classes[9].to_string(), "2@/112-dense");
        assert_eq!(classes[11].to_string(), "2@/104-dense");
    }

    #[test]
    fn table3_computes_and_renders() {
        let addrs: Vec<v6census_addr::Addr> = (0..64u128)
            .map(|i| v6census_addr::Addr((0x2604_0001u128 << 96) | i))
            .collect();
        let set = AddrSet::from_iter(addrs);
        let t = Table3::compute(&set);
        assert_eq!(t.rows.len(), 12);
        // 64 sequential addrs form dense prefixes at every class.
        let row_2_112 = &t.rows[9];
        assert_eq!(row_2_112.dense_prefixes, 1);
        assert_eq!(row_2_112.covered_addresses, 64);
        let rendered = t.render();
        assert!(rendered.contains("2 @ /124"));
        assert!(rendered.contains("Density"));
    }
}
