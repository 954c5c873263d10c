//! Table/series formatting shared by all figure harnesses.

/// One measured point of a latency/bandwidth sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Message (or argument) size in bytes.
    pub size: usize,
    /// One-way latency in microseconds (round-trip / 2), or full
    /// round-trip for RPC figures (stated per figure).
    pub latency_us: f64,
    /// Delivered bandwidth in MB/s (user bytes / time).
    pub bandwidth_mbs: f64,
}

/// A named series of points (one curve of a paper figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label, matching the paper's legend (e.g. "DU-0copy").
    pub label: String,
    /// Measured points in size order.
    pub points: Vec<Point>,
}

impl Series {
    /// Measure one point per [`paper_sizes`] entry.
    pub fn sweep(label: impl Into<String>, point: impl FnMut(usize) -> Point) -> Series {
        Series {
            label: label.into(),
            points: paper_sizes().into_iter().map(point).collect(),
        }
    }

    /// Latency at a given size, if measured.
    pub fn latency_at(&self, size: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.size == size)
            .map(|p| p.latency_us)
    }

    /// Bandwidth at a given size, if measured.
    pub fn bandwidth_at(&self, size: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.size == size)
            .map(|p| p.bandwidth_mbs)
    }

    /// The maximum bandwidth across the sweep.
    pub fn peak_bandwidth(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.bandwidth_mbs)
            .fold(0.0, f64::max)
    }
}

/// Render a figure's series as two aligned text tables (latency for small
/// sizes, bandwidth for the full sweep), in the spirit of the paper's
/// paired graphs.
pub fn render_figure(title: &str, series: &[Series], latency_cutoff: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n\n"));

    out.push_str(&format!("{:<12}", "bytes"));
    for s in series {
        out.push_str(&format!("{:>14}", format!("{} us", s.label)));
    }
    out.push('\n');
    if let Some(first) = series.first() {
        for p in &first.points {
            if p.size > latency_cutoff {
                continue;
            }
            out.push_str(&format!("{:<12}", p.size));
            for s in series {
                match s.latency_at(p.size) {
                    Some(l) => out.push_str(&format!("{l:>14.2}")),
                    None => out.push_str(&format!("{:>14}", "-")),
                }
            }
            out.push('\n');
        }
    }

    out.push('\n');
    out.push_str(&format!("{:<12}", "bytes"));
    for s in series {
        out.push_str(&format!("{:>14}", format!("{} MB/s", s.label)));
    }
    out.push('\n');
    if let Some(first) = series.first() {
        for p in &first.points {
            out.push_str(&format!("{:<12}", p.size));
            for s in series {
                match s.bandwidth_at(p.size) {
                    Some(b) => out.push_str(&format!("{b:>14.2}")),
                    None => out.push_str(&format!("{:>14}", "-")),
                }
            }
            out.push('\n');
        }
    }
    out
}

/// The message sizes the paper's figures sweep: 4–64 bytes for the
/// latency graphs, up to 10 KB for bandwidth.
pub fn paper_sizes() -> Vec<usize> {
    let mut v: Vec<usize> = vec![4, 8, 16, 24, 32, 40, 48, 56, 64];
    v.extend([
        128, 256, 512, 1024, 2048, 3072, 4096, 5120, 6144, 7168, 8192, 9216, 10240,
    ]);
    v
}

/// Sizes for the latency-only graphs.
pub const LATENCY_CUTOFF: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        Series {
            label: "DU-0copy".into(),
            points: vec![
                Point {
                    size: 4,
                    latency_us: 7.6,
                    bandwidth_mbs: 0.5,
                },
                Point {
                    size: 10240,
                    latency_us: 440.0,
                    bandwidth_mbs: 23.1,
                },
            ],
        }
    }

    #[test]
    fn series_lookups() {
        let s = sample();
        assert_eq!(s.latency_at(4), Some(7.6));
        assert_eq!(s.bandwidth_at(10240), Some(23.1));
        assert_eq!(s.latency_at(99), None);
        assert!((s.peak_bandwidth() - 23.1).abs() < 1e-9);
    }

    #[test]
    fn render_contains_labels_and_values() {
        let out = render_figure("Figure 3", &[sample()], 64);
        assert!(out.contains("Figure 3"));
        assert!(out.contains("DU-0copy us"));
        assert!(out.contains("7.60"));
        assert!(out.contains("23.10"));
        // 10240 exceeds the latency cutoff: appears once (bandwidth table).
        assert_eq!(out.matches("10240").count(), 1);
    }

    #[test]
    fn paper_sizes_are_sorted_and_bounded() {
        let v = paper_sizes();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*v.first().unwrap(), 4);
        assert_eq!(*v.last().unwrap(), 10240);
    }
}
