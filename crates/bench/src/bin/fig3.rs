//! Regenerates **Figure 3**: aggregate population CCDFs for the March
//! 2015 week — 32/48/112-aggregates of addresses and 32/48-aggregates of
//! /64s.

use v6census_addr::PrefixLen;
use v6census_bench::{Opts, Snapshot};
use v6census_census::figures::PopulationFigure;
use v6census_census::plot::{ascii_ccdf, tsv_ccdf};
use v6census_synth::world::epochs;

fn main() {
    let opts = Opts::parse();
    eprintln!("[fig3] building March 2015 week at scale {}…", opts.scale);
    let snap = Snapshot::build_mar2015(&opts);
    let d = epochs::mar2015();
    let week = snap.census.other_over(d.range_inclusive(d + 6));
    eprintln!(
        "[fig3] {} addrs, {} /64s in the week",
        week.len(),
        week.map_prefix(PrefixLen::lit::<64>()).len()
    );
    let fig = PopulationFigure::figure3(&week);
    opts.emit("fig3_population_ccdf.txt", &ascii_ccdf(&fig));
    opts.emit("fig3_population_ccdf.tsv", &tsv_ccdf(&fig));
}
