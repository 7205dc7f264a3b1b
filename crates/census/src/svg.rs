//! Self-contained SVG renderers for the paper's figures — no external
//! plotting dependency, suitable for embedding in reports.
//!
//! The visual conventions follow the paper: MRA plots use a log₂ y-axis
//! from 1 to 65536 over prefix length 0..128 with one polyline per
//! resolution; CCDFs are log-log.

#![allow(clippy::write_with_newline)] // SVG templates end lines deliberately

use crate::figures::{MraFigure, PopulationFigure};
use std::fmt::Write as _;
use v6census_core::spatial::MraResolution;

const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 420.0;
const MARGIN_L: f64 = 60.0;
const MARGIN_B: f64 = 40.0;
const MARGIN_T: f64 = 30.0;
const MARGIN_R: f64 = 20.0;

fn plot_w() -> f64 {
    WIDTH - MARGIN_L - MARGIN_R
}
fn plot_h() -> f64 {
    HEIGHT - MARGIN_T - MARGIN_B
}

fn svg_header(title: &str) -> String {
    format!(
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">
<rect width="100%" height="100%" fill="white"/>
<text x="{}" y="18" font-family="sans-serif" font-size="13" text-anchor="middle">{}</text>
"##,
        WIDTH / 2.0,
        xml_escape(title)
    )
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn polyline(points: &[(f64, f64)], color: &str, dash: &str) -> String {
    let mut d = String::new();
    for (x, y) in points {
        let _ = write!(d, "{x:.1},{y:.1} ");
    }
    format!(
        r##"<polyline fill="none" stroke="{color}" stroke-width="1.5"{} points="{d}"/>
"##,
        if dash.is_empty() {
            String::new()
        } else {
            format!(r##" stroke-dasharray="{dash}""##)
        }
    )
}

/// Renders an MRA figure as an SVG document (log₂ ratio axis 1..65536,
/// prefix length axis 0..128, one curve per resolution).
pub fn svg_mra(fig: &MraFigure) -> String {
    let mut out = svg_header(&format!("{} — {} addrs", fig.title, fig.total));

    // Axes and gridlines.
    for k in 0..=16u32 {
        let y = MARGIN_T + plot_h() * (1.0 - k as f64 / 16.0);
        let _ = write!(
            out,
            r##"<line x1="{MARGIN_L}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#eeeeee"/>
"##,
            WIDTH - MARGIN_R
        );
        if k % 4 == 0 {
            let _ = write!(
                out,
                r##"<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="10" text-anchor="end">{}</text>
"##,
                MARGIN_L - 6.0,
                y + 3.0,
                1u64 << k
            );
        }
    }
    for p in (0..=128u32).step_by(16) {
        let x = MARGIN_L + plot_w() * p as f64 / 128.0;
        let _ = write!(
            out,
            r##"<line x1="{x:.1}" y1="{MARGIN_T}" x2="{x:.1}" y2="{:.1}" stroke="#eeeeee"/>
<text x="{x:.1}" y="{:.1}" font-family="sans-serif" font-size="10" text-anchor="middle">{p}</text>
"##,
            HEIGHT - MARGIN_B,
            HEIGHT - MARGIN_B + 14.0
        );
    }

    // Curves in the paper's styling: 16-bit dashed red, 4-bit black,
    // single-bit blue.
    for (res, curve) in &fig.curves {
        let (color, dash) = match res {
            MraResolution::Segment16 => ("#cc2222", "6,3"),
            MraResolution::Nybble => ("#222222", ""),
            MraResolution::Byte => ("#22aa22", "2,2"),
            MraResolution::SingleBit => ("#2244cc", ""),
        };
        let points: Vec<(f64, f64)> = curve
            .iter()
            .map(|&(p, r)| {
                let x = MARGIN_L + plot_w() * f64::from(p.get()) / 128.0;
                let y = MARGIN_T + plot_h() * (1.0 - r.max(1.0).log2() / 16.0);
                (x, y)
            })
            .collect();
        out.push_str(&polyline(&points, color, dash));
    }

    // Legend.
    let mut ly = MARGIN_T + 12.0;
    for (res, _) in &fig.curves {
        let color = match res {
            MraResolution::Segment16 => "#cc2222",
            MraResolution::Nybble => "#222222",
            MraResolution::Byte => "#22aa22",
            MraResolution::SingleBit => "#2244cc",
        };
        let _ = write!(
            out,
            r##"<rect x="{:.1}" y="{:.1}" width="12" height="3" fill="{color}"/>
<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="10">{}</text>
"##,
            MARGIN_L + 10.0,
            ly - 3.0,
            MARGIN_L + 28.0,
            ly + 1.0,
            res.label()
        );
        ly += 14.0;
    }
    out.push_str("</svg>\n");
    out
}

/// Renders a CCDF family as a log-log SVG document.
pub fn svg_ccdf(title: &str, fig: &PopulationFigure) -> String {
    let mut out = svg_header(title);
    let max_x = fig
        .series
        .iter()
        .map(|(_, c)| c.max())
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let decades_x = max_x.log10().ceil().max(1.0);
    let decades_y = 6.0;

    for d in 0..=decades_x as u32 {
        let x = MARGIN_L + plot_w() * d as f64 / decades_x;
        let _ = write!(
            out,
            r##"<line x1="{x:.1}" y1="{MARGIN_T}" x2="{x:.1}" y2="{:.1}" stroke="#eeeeee"/>
<text x="{x:.1}" y="{:.1}" font-family="sans-serif" font-size="10" text-anchor="middle">1e{d}</text>
"##,
            HEIGHT - MARGIN_B,
            HEIGHT - MARGIN_B + 14.0
        );
    }
    for d in 0..=decades_y as u32 {
        let y = MARGIN_T + plot_h() * d as f64 / decades_y;
        let _ = write!(
            out,
            r##"<line x1="{MARGIN_L}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#eeeeee"/>
<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="10" text-anchor="end">1e-{d}</text>
"##,
            WIDTH - MARGIN_R,
            MARGIN_L - 6.0,
            y + 3.0
        );
    }

    const COLORS: [&str; 6] = [
        "#cc2222", "#2244cc", "#228833", "#aa22aa", "#d08020", "#222222",
    ];
    let mut ly = MARGIN_T + 12.0;
    for (i, (label, ccdf)) in fig.series.iter().enumerate() {
        let color = COLORS[i % COLORS.len()];
        let points: Vec<(f64, f64)> = ccdf
            .steps()
            .into_iter()
            .filter(|&(_, prop)| prop > 0.0)
            .map(|(x, prop)| {
                let fx = (x.max(1) as f64).log10() / decades_x;
                let fy = (-prop.log10()).clamp(0.0, decades_y) / decades_y;
                (MARGIN_L + plot_w() * fx, MARGIN_T + plot_h() * fy)
            })
            .collect();
        out.push_str(&polyline(&points, color, ""));
        let _ = write!(
            out,
            r##"<rect x="{:.1}" y="{:.1}" width="12" height="3" fill="{color}"/>
<text x="{:.1}" y="{:.1}" font-family="sans-serif" font-size="10">{}</text>
"##,
            MARGIN_L + 10.0,
            ly - 3.0,
            MARGIN_L + 28.0,
            ly + 1.0,
            xml_escape(label)
        );
        ly += 14.0;
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_addr::Addr;
    use v6census_core::spatial::Ccdf;
    use v6census_trie::AddrSet;

    fn sample_fig() -> MraFigure {
        let set = AddrSet::from_iter(
            (0..256u128).map(|i| Addr((0x2001_0db8u128 << 96) | (i << 64) | (i * 3))),
        );
        MraFigure::of("test & demo", &set)
    }

    #[test]
    fn mra_svg_is_wellformed() {
        let svg = svg_mra(&sample_fig());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 3, "one per resolution");
        // Title is escaped.
        assert!(svg.contains("test &amp; demo"));
        // Y-axis labels include the extremes of the paper's axis.
        assert!(svg.contains(">1<") || svg.contains(">1</text>"));
        assert!(svg.contains("65536"));
    }

    #[test]
    fn ccdf_svg_is_wellformed() {
        let fig = PopulationFigure {
            series: vec![
                ("series <a>".into(), Ccdf::new(vec![1, 2, 3, 50, 1000])),
                ("b".into(), Ccdf::new(vec![5, 5, 7])),
            ],
        };
        let svg = svg_ccdf("ccdf", &fig);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("series &lt;a&gt;"));
    }

    #[test]
    fn curves_stay_inside_the_canvas() {
        let svg = svg_mra(&sample_fig());
        for points in svg
            .split("points=\"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
        {
            for pair in points.split_whitespace() {
                let (x, y) = pair.split_once(',').unwrap();
                let x: f64 = x.parse().unwrap();
                let y: f64 = y.parse().unwrap();
                assert!((0.0..=WIDTH).contains(&x), "x {x}");
                assert!((0.0..=HEIGHT).contains(&y), "y {y}");
            }
        }
    }
}
