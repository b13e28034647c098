use std::fmt;

/// One column of the Table 4 processor comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Design name ("This work", "Tianjic", "TPU (redesigned)").
    pub design: String,
    /// Design type ("SNN" / "ANN").
    pub kind: String,
    /// Process node label.
    pub process: String,
    /// Supply voltage, V.
    pub voltage: f32,
    /// Area, mm².
    pub area_mm2: f32,
    /// Clock, MHz.
    pub frequency_mhz: u32,
    /// PEs (MACs for the TPU).
    pub pes: usize,
    /// Peak throughput, GSOP/s or GMAC/s.
    pub peak_gops: f32,
    /// Power, mW.
    pub power_mw: f32,
    /// Per-dataset results. `None` entries render as "-" (Tianjic reports
    /// CIFAR-10 only).
    pub datasets: Vec<DatasetRow>,
}

/// One dataset's result row: (dataset, accuracy %, energy µJ, fps).
pub type DatasetRow = (String, Option<f32>, Option<f64>, Option<f64>);

/// A renderable Table 4.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComparisonTable {
    /// Table columns.
    pub rows: Vec<ComparisonRow>,
}

impl ComparisonTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a design column.
    pub fn push(&mut self, row: ComparisonRow) {
        self.rows.push(row);
    }

    /// The quoted Tianjic column of Table 4 (measured numbers from the
    /// paper; Tianjic is a comparison citation, not a system under test).
    pub fn tianjic_quoted() -> ComparisonRow {
        ComparisonRow {
            design: "Tianjic [10]".into(),
            kind: "SNN".into(),
            process: "28 nm".into(),
            voltage: 0.85,
            area_mm2: 14.44,
            frequency_mhz: 300,
            pes: 2496,
            peak_gops: 683.2,
            power_mw: 950.0,
            datasets: vec![
                ("CIFAR10".into(), Some(89.5), Some(129.0), Some(46827.0)),
                ("CIFAR100".into(), None, None, None),
                ("Tiny-ImageNet".into(), None, None, None),
            ],
        }
    }
}

impl fmt::Display for ComparisonTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_opt_f32 = |v: Option<f32>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
        let fmt_opt_f64 = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
        writeln!(
            f,
            "{:<24} {:>8} {:>10} {:>8} {:>6} {:>10} {:>10} {:>9}",
            "Design", "Type", "Area mm2", "MHz", "PEs", "GOP/s", "Power mW", "Voltage"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<24} {:>8} {:>10.4} {:>8} {:>6} {:>10.1} {:>10.1} {:>9.2}",
                row.design,
                row.kind,
                row.area_mm2,
                row.frequency_mhz,
                row.pes,
                row.peak_gops,
                row.power_mw,
                row.voltage
            )?;
            for (name, acc, uj, fps) in &row.datasets {
                writeln!(
                    f,
                    "    {:<20} acc {:>6} %   energy {:>9} uJ   {:>9} fps",
                    name,
                    fmt_opt_f32(*acc),
                    fmt_opt_f64(*uj),
                    fmt_opt_f64(*fps)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tianjic_column_matches_paper() {
        let t = ComparisonTable::tianjic_quoted();
        assert_eq!(t.pes, 2496);
        assert_eq!(t.datasets[0].1, Some(89.5));
        assert_eq!(t.datasets[1].1, None);
    }

    #[test]
    fn display_renders_dashes_for_missing() {
        let mut table = ComparisonTable::new();
        table.push(ComparisonTable::tianjic_quoted());
        let s = table.to_string();
        assert!(s.contains("Tianjic"));
        assert!(s.contains('-'));
    }
}
