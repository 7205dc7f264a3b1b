//! The analysis half of `repro_all` — Table 1a/b, Table 2a–d, Figures 3,
//! 4a/b and 5a/5b/5c, and a 2@/112 dense-prefix pass — each product under
//! its own span, for the table and figure layers of a traced run.

use v6census_census::figures::{
    AsnDistributionFigure, MraFigure, PopulationFigure, SegmentRatioFigure, StabilityFigure,
};
use v6census_census::plot::{ascii_ccdf, tsv_ccdf, tsv_mra, tsv_stability};
use v6census_census::tables::{table1, EpochSpec, Table2};
use v6census_census::{Census, RoutingTable};
use v6census_core::temporal::{Day, StabilityParams};
use v6census_trie::{dense_prefixes_at, AddrSet};

use crate::util::{Digest, Trace};

/// Days ingested per epoch: reference−7 ..= reference+13, the shape of
/// the bench crate's `Snapshot::build`.
pub fn epoch_days(reference: Day) -> impl Iterator<Item = Day> {
    (reference - 7).range_inclusive(reference + 13)
}

/// What the products are computed from.
pub struct Inputs {
    /// The census.
    pub census: Census,
    /// Routing table for ASN attribution.
    pub rt: RoutingTable,
    /// Table columns.
    pub specs: Vec<EpochSpec>,
    /// First day of the week Figures 3–5 cover.
    pub week: Day,
}

/// Computes and renders every product into `digest`, each inside a span.
/// The census holds one epoch, so Figure 5a's six-month-stable series is
/// empty.
pub fn products(inp: &Inputs, trace: &mut Trace, digest: &mut Digest) {
    let c = &inp.census;
    let params = StabilityParams::three_day();
    trace.span("tables.table1", |_| {
        let (daily, weekly) = table1(c, &inp.specs);
        digest.add_str(&daily.render());
        digest.add_str(&weekly.render());
    });
    trace.span("tables.table2", |_| {
        for (caption, obs) in [
            ("(a)/(c) addresses", c.other_daily()),
            ("(b)/(d) /64 prefixes", c.other64_daily()),
        ] {
            digest.add_str(&Table2::daily(caption, obs, &inp.specs, params).render());
            digest.add_str(&Table2::weekly(caption, obs, &inp.specs, params).render());
        }
    });
    let days = || inp.week.range_inclusive(inp.week + 6);
    let week_set = trace.span("census.week_union", |_| c.other_over(days()));
    trace.span("figures.fig3", |_| {
        let fig = PopulationFigure::figure3(&week_set);
        digest.add_str(&ascii_ccdf(&fig));
        digest.add_str(&tsv_ccdf(&fig));
    });
    trace.span("figures.fig4", |_| {
        for obs in [c.other_daily(), c.other64_daily()] {
            let fig = StabilityFigure::of(obs, inp.week, inp.week + 6);
            digest.add_str(&tsv_stability(&fig));
        }
    });
    trace.span("figures.fig5", |t| {
        let eui_week = c.eui64_over(days());
        let f5a = AsnDistributionFigure::figure5a(&inp.rt, &week_set, &eui_week, &AddrSet::new());
        digest.add_str(&format!("{} active ASNs", f5a.active_asns));
        digest.add_str(&tsv_ccdf(&PopulationFigure { series: f5a.series }));
        let f5b = SegmentRatioFigure::figure5b(&inp.rt, &week_set, 20);
        for (p, stats) in &f5b.boxes {
            digest.add_str(&format!("{p} {stats}"));
        }
        let f5c = t.span("spatial.mra", |_| MraFigure::of("(5c) all", &week_set));
        digest.add_str(&tsv_mra(&f5c));
    });
    trace.span("trie.dense_2_112", |_| {
        let dense = dense_prefixes_at(&c.other_daily().on(inp.week), 2, 112);
        let covered: u64 = dense.iter().map(|d| d.count).sum();
        digest.add_str(&format!("{} dense {covered} covered", dense.len()));
    });
}
