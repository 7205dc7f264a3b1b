//! Terminal and file renderers for the paper's figures: ASCII plots for
//! quick inspection, TSV for gnuplot-grade reproduction.

use crate::figures::{MraFigure, PopulationFigure, StabilityFigure};
use std::fmt::Write as _;
use v6census_addr::PrefixLen;
use v6census_core::spatial::MraResolution;

/// Renders an MRA figure as an ASCII plot: x = prefix length 0..128,
/// y = aggregate count ratio on a log2 scale (1 to 65536), one glyph per
/// resolution (`.` bits, `o` nybbles, `#` 16-bit segments), matching the
/// paper's axes.
pub fn ascii_mra(fig: &MraFigure) -> String {
    const WIDTH: usize = 64; // 2 bits per column
    const HEIGHT: usize = 17; // log2 ratio 0..=16
    let mut grid = vec![vec![' '; WIDTH + 1]; HEIGHT];
    let mut put = |p: PrefixLen, ratio: f64, glyph: char| {
        let x = (usize::from(p) * WIDTH) / 128;
        let y = ratio.max(1.0).log2().round() as usize;
        let y = HEIGHT - 1 - y.min(HEIGHT - 1);
        // Don't let coarse glyphs obscure finer ones already placed.
        if grid[y][x] == ' ' {
            grid[y][x] = glyph;
        }
    };
    for (res, curve) in &fig.curves {
        let glyph = match res {
            MraResolution::SingleBit => '.',
            MraResolution::Nybble => 'o',
            MraResolution::Byte => '+',
            MraResolution::Segment16 => '#',
        };
        for &(p, r) in curve {
            put(p, r, glyph);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — {} addrs (common prefix /{})",
        fig.title, fig.total, fig.common_prefix
    );
    for (i, row) in grid.iter().enumerate() {
        let label = 1u64 << (HEIGHT - 1 - i);
        let _ = writeln!(out, "{label:>6} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "       +{}", "-".repeat(WIDTH + 1));
    let _ = writeln!(
        out,
        "        0       16      32      48      64      80      96      112     128"
    );
    let _ = writeln!(
        out,
        "        [# 16-bit segments, o 4-bit segments, . single bits]"
    );
    out
}

/// Emits an MRA figure as TSV: `p  gamma16  gamma4  gamma1` per row
/// (empty cells where a resolution has no point at p).
pub fn tsv_mra(fig: &MraFigure) -> String {
    let mut out = String::from("# prefix_len\tgamma16\tgamma4\tgamma1\n");
    let col = |res: MraResolution, p: PrefixLen| -> String {
        fig.curve(res)
            .and_then(|c| c.iter().find(|&&(q, _)| q == p))
            .map(|&(_, r)| format!("{r:.6}"))
            .unwrap_or_default()
    };
    for p in PrefixLen::all().take(128) {
        let g16 = col(MraResolution::Segment16, p);
        let g4 = col(MraResolution::Nybble, p);
        let g1 = col(MraResolution::SingleBit, p);
        if !(g16.is_empty() && g4.is_empty() && g1.is_empty()) {
            let _ = writeln!(out, "{p}\t{g16}\t{g4}\t{g1}");
        }
    }
    out
}

/// Renders a CCDF family as an ASCII log-log plot.
pub fn ascii_ccdf(fig: &PopulationFigure) -> String {
    const WIDTH: usize = 60;
    const HEIGHT: usize = 13; // decades 10^0 .. 10^-6 at half steps
    let max_x: f64 = fig
        .series
        .iter()
        .map(|(_, c)| c.max() as f64)
        .fold(1.0, f64::max);
    let mut grid = vec![vec![' '; WIDTH + 1]; HEIGHT];
    for (i, (_, ccdf)) in fig.series.iter().enumerate() {
        let glyph = char::from(b'a' + (i as u8 % 26));
        for (x, prop) in ccdf.steps() {
            if prop <= 0.0 {
                continue;
            }
            let fx = (x as f64).max(1.0).log10() / max_x.log10().max(1e-9);
            let gx = ((fx * WIDTH as f64).round() as usize).min(WIDTH);
            let fy = (-prop.log10()).clamp(0.0, 6.0) / 6.0;
            let gy = ((fy * (HEIGHT - 1) as f64).round() as usize).min(HEIGHT - 1);
            if grid[gy][gx] == ' ' {
                grid[gy][gx] = glyph;
            }
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let exp = -(i as f64) * 6.0 / (HEIGHT - 1) as f64;
        let _ = writeln!(out, "1e{exp:>5.1} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "        +{}", "-".repeat(WIDTH + 1));
    let _ = writeln!(out, "         1 .. {max_x:.0} (log scale)");
    for (i, (label, _)) in fig.series.iter().enumerate() {
        let glyph = char::from(b'a' + (i as u8 % 26));
        let _ = writeln!(out, "         {glyph} = {label}");
    }
    out
}

/// Emits a CCDF family as TSV: `series  x  proportion`.
pub fn tsv_ccdf(fig: &PopulationFigure) -> String {
    let mut out = String::from("# series\tx\tproportion\n");
    for (label, ccdf) in &fig.series {
        for (x, p) in ccdf.steps() {
            let _ = writeln!(out, "{label}\t{x}\t{p:.9}");
        }
    }
    out
}

/// Emits a stability figure (Figure 4) as TSV:
/// `day  active  overlap_refA  overlap_refB`.
pub fn tsv_stability(fig: &StabilityFigure) -> String {
    let mut out = format!(
        "# day\tactive\toverlap_{}\toverlap_{}\n",
        fig.references.0, fig.references.1
    );
    for i in 0..fig.days.len() {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            fig.days[i].md_label(),
            fig.active[i],
            fig.ref_a[i],
            fig.ref_b[i]
        );
    }
    out
}

/// Renders a stability figure as an ASCII bar series.
pub fn ascii_stability(fig: &StabilityFigure) -> String {
    const WIDTH: usize = 50;
    let max = fig.active.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "active per day (█), ∩ {} (▒), ∩ {} (░)",
        fig.references.0.md_label(),
        fig.references.1.md_label()
    );
    for i in 0..fig.days.len() {
        let bars = |v: usize| (v * WIDTH) / max;
        let _ = writeln!(
            out,
            "{} |{:<width$}| {}",
            fig.days[i].md_label(),
            format!("{}{}", "█".repeat(bars(fig.active[i])), ""),
            fig.active[i],
            width = WIDTH
        );
        let _ = writeln!(
            out,
            "       |{:<width$}| a:{} b:{}",
            format!(
                "{}{}",
                "▒".repeat(bars(fig.ref_a[i])),
                "░".repeat(bars(fig.ref_b[i]).saturating_sub(bars(fig.ref_a[i])))
            ),
            fig.ref_a[i],
            fig.ref_b[i],
            width = WIDTH
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{MraFigure, PopulationFigure};
    use v6census_addr::Addr;
    use v6census_core::spatial::Ccdf;
    use v6census_core::temporal::{DailyObservations, Day};
    use v6census_trie::AddrSet;

    fn sample_set() -> AddrSet {
        AddrSet::from_iter((0..64u128).map(|i| Addr((0x2001_0db8u128 << 96) | (i << 64) | (i * 7))))
    }

    #[test]
    fn ascii_mra_contains_axes_and_glyphs() {
        let fig = MraFigure::of("test", &sample_set());
        let s = ascii_mra(&fig);
        assert!(s.contains("test — 64 addrs"));
        assert!(s.contains('#'));
        assert!(s.contains('.'));
        assert!(s.contains("128"));
    }

    #[test]
    fn tsv_mra_rows_parse_back() {
        let fig = MraFigure::of("test", &sample_set());
        let tsv = tsv_mra(&fig);
        let mut rows = 0;
        for line in tsv.lines().skip(1) {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 4);
            let p: u8 = cols[0].parse().unwrap();
            assert!(p < 128);
            rows += 1;
        }
        assert_eq!(rows, 128, "every bit position has a gamma1 value");
    }

    #[test]
    fn ccdf_renders() {
        let fig = PopulationFigure {
            series: vec![
                ("a-series".into(), Ccdf::new(vec![1, 2, 3, 100])),
                ("b-series".into(), Ccdf::new(vec![5, 5, 5])),
            ],
        };
        let s = ascii_ccdf(&fig);
        assert!(s.contains("a = a-series"));
        let tsv = tsv_ccdf(&fig);
        assert!(tsv.lines().count() > 4);
    }

    #[test]
    fn stability_renders() {
        let mut obs = DailyObservations::new();
        let d = Day::from_ymd(2015, 3, 17);
        let set = AddrSet::from_iter([Addr(1), Addr(2)]);
        obs.record(d, set.clone());
        obs.record(d + 1, set);
        let fig = crate::figures::StabilityFigure::of(&obs, d, d + 1);
        let tsv = tsv_stability(&fig);
        assert!(tsv.contains("Mar-17"));
        let ascii = ascii_stability(&fig);
        assert!(ascii.contains("Mar-18"));
    }
}
