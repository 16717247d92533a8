//! ASCII rendering of experiment results in the paper's table layouts.

use crate::degradation::{outcome, FaultSweepRow};
use crate::experiment::{GroupMatrix, ScaleRow, SparsifiedRow, StructureRow};
use lts_partition::comm::{format_bytes, VolumeRow};

/// Renders a generic table: header row + data rows, columns padded.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let render_row = |cells: &[String]| -> String {
        let mut line = String::from("|");
        for (i, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = cells.get(i).unwrap_or(&empty);
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let sep = {
        let mut line = String::from("|");
        for w in &widths {
            line.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        line
    };
    let mut out = String::new();
    out.push_str(&render_row(&header_cells));
    out.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push('\n');
        out.push_str(&render_row(row));
    }
    out
}

/// Table I layout.
pub fn render_table1(rows: &[VolumeRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let layers: Vec<String> = r
                .layers
                .iter()
                .map(|(name, bytes)| format!("{name}={}", format_bytes(*bytes)))
                .collect();
            vec![r.network.clone(), layers.join("  "), format_bytes(r.total())]
        })
        .collect();
    render_table(&["Network", "Per-layer data moving size", "Total"], &data)
}

/// Table III layout.
pub fn render_table3(rows: &[StructureRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{}-{}-{}", r.kernels[0], r.kernels[1], r.kernels[2]),
                r.groups.to_string(),
                format!("{:.3}", r.accuracy),
                format!("{:.1}x", r.speedup),
                if r.comm_speedup.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{:.1}x", r.comm_speedup)
                },
                format!("{:.0}%", r.comm_energy_reduction * 100.0),
            ]
        })
        .collect();
    render_table(
        &["ConvNet", "Kernels", "n", "Accu.", "Speedup", "Comm speedup", "Comm energy red."],
        &data,
    )
}

/// Table IV / Table VI layout. A row whose accuracy missed the tolerance
/// (see [`SparsifiedRow::within_tolerance`]) is marked `*` and footnoted.
pub fn render_table4(rows: &[SparsifiedRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.network.clone(),
                r.cores.to_string(),
                format!("{}{}", r.scheme, if r.within_tolerance { "" } else { "*" }),
                format!("{:.2}%", r.accuracy * 100.0),
                format!("{:.0}%", r.traffic_rate * 100.0),
                format!("{:.2}x", r.speedup),
                format!("{:.0}%", r.energy_reduction * 100.0),
            ]
        })
        .collect();
    let mut table = render_table(
        &["Network", "Cores", "Type", "Accu.", "NoC traffic rate", "System speedup", "Energy red."],
        &data,
    );
    if rows.iter().any(|r| !r.within_tolerance) {
        table.push_str(
            "\n* no λ kept accuracy within tolerance of the baseline; the row is the most \
             accurate run",
        );
    }
    table
}

/// Table V / Fig. 8 layout.
pub fn render_table5(rows: &[ScaleRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.cores.to_string(),
                r.cores.to_string(),
                format!("{:.3}", r.accuracy),
                format!("{:.1}x", r.speedup),
                if r.comm_speedup.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{:.1}x", r.comm_speedup)
                },
                format!("{:.0}%", r.comm_energy_reduction * 100.0),
            ]
        })
        .collect();
    render_table(&["Cores", "n", "Accu.", "Speedup", "Comm speedup", "Comm energy red."], &data)
}

/// Degradation-sweep layout: one row per (strategy, fault rate, dead
/// set) cell. Cells that did not complete show their outcome in place
/// of measurements.
pub fn render_fault_sweep(rows: &[FaultSweepRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let dead = if r.dead_cores.is_empty() {
                "-".to_string()
            } else {
                r.dead_cores.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
            };
            let (latency, energy) = if r.outcome == outcome::OK {
                (format!("{:.3}x", r.latency_vs_healthy), format!("{:.3}x", r.energy_vs_healthy))
            } else {
                ("-".to_string(), "-".to_string())
            };
            vec![
                r.strategy.clone(),
                format!("{:.0e}", r.fault_rate),
                dead,
                r.survivors.to_string(),
                r.outcome.clone(),
                latency,
                energy,
                r.retransmitted_packets.to_string(),
                format!("{:.1}%", r.lost_output_fraction * 100.0),
            ]
        })
        .collect();
    render_table(
        &[
            "Strategy",
            "Drop rate",
            "Dead cores",
            "Surv.",
            "Outcome",
            "Latency",
            "Energy",
            "Retx",
            "Lost out.",
        ],
        &data,
    )
}

/// Fig. 6(b)-style rendering: `#` for surviving groups, `.` for pruned,
/// with row/column core indices.
pub fn render_group_matrix(m: &GroupMatrix) -> String {
    let mut out = format!(
        "{} / {}: surviving weight groups ({} cores, {:.0}% pruned)\n",
        m.network,
        m.layer,
        m.cores,
        m.zero_fraction() * 100.0
    );
    out.push_str("     consumer core ->\n");
    out.push_str("     ");
    for c in 0..m.cores {
        out.push_str(&format!("{c:>3}"));
    }
    out.push('\n');
    for p in 0..m.cores {
        out.push_str(&format!("p{p:>3} "));
        for c in 0..m.cores {
            let n = m.norms[p * m.cores + c];
            let glyph = if n == 0.0 {
                "  ."
            } else if p == c {
                "  D"
            } else {
                "  #"
            };
            out.push_str(glyph);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_pads_columns() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["xxx".into(), "y".into()], vec!["z".into(), "wwwww".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines the same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("bbbb"));
    }

    #[test]
    fn group_matrix_rendering_marks_diagonal_and_pruned() {
        let m = GroupMatrix {
            network: "MLP".into(),
            layer: "ip2".into(),
            cores: 2,
            norms: vec![1.0, 0.0, 0.5, 2.0],
        };
        let s = render_group_matrix(&m);
        assert!(s.contains('D'));
        assert!(s.contains('.'));
        assert!(s.contains('#'));
        assert!(s.contains("25% pruned"));
    }

    #[test]
    fn table1_rendering_formats_layer_volumes() {
        let rows = vec![VolumeRow {
            network: "LeNet".into(),
            layers: vec![("conv2".into(), 86_400), ("ip1".into(), 24_000)],
        }];
        let s = render_table1(&rows);
        assert!(s.contains("LeNet"));
        assert!(s.contains("conv2=84K"));
        assert!(s.contains("108K")); // total
    }

    #[test]
    fn table3_and_table5_render_infinite_comm_speedup() {
        let row = StructureRow {
            name: "Parallel#2".into(),
            kernels: [64, 128, 256],
            groups: 16,
            accuracy: 0.94,
            speedup: 3.4,
            comm_speedup: f64::INFINITY,
            comm_energy_reduction: 0.9,
            total_energy_reduction: 0.5,
        };
        let s = render_table3(&[row]);
        assert!(s.contains("inf"));
        assert!(s.contains("3.4x"));
        let srow = ScaleRow {
            cores: 32,
            accuracy: 0.72,
            speedup: 6.9,
            comm_energy_reduction: 0.56,
            comm_speedup: f64::INFINITY,
        };
        let s5 = render_table5(&[srow]);
        assert!(s5.contains("6.9x"));
        assert!(s5.contains("inf"));
    }

    #[test]
    fn table4_rendering_includes_percentages() {
        let rows = vec![SparsifiedRow {
            network: "MLP".into(),
            cores: 16,
            scheme: "SS_Mask".into(),
            accuracy: 0.9836,
            traffic_rate: 0.11,
            speedup: 1.59,
            energy_reduction: 0.81,
            within_tolerance: true,
        }];
        let s = render_table4(&rows);
        assert!(s.contains("98.36%"));
        assert!(s.contains("11%"));
        assert!(s.contains("1.59x"));
        assert!(s.contains("81%"));
        assert!(!s.contains('*'), "{s}");

        let fallback = SparsifiedRow { within_tolerance: false, ..rows[0].clone() };
        let s = render_table4(&[fallback]);
        assert!(s.contains("| SS_Mask* |"), "{s}");
        assert!(s.contains("* no λ kept accuracy within tolerance"), "{s}");
    }
}
