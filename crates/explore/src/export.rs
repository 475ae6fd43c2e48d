//! JSON and CSV export of swept series.
//!
//! The series types carry serde derives so that swapping the vendored
//! offline serde stub for the real crates makes them `serde_json`-ready
//! unchanged; the writers here are small hand-rolled serializers because the
//! stub intentionally provides no runtime (de)serialization. Both formats
//! are plain text aimed at plotting scripts (matplotlib, gnuplot,
//! spreadsheets).

use std::fs;
use std::io;
use std::path::Path;

use crate::executor::SweepSeries;

/// Serializes series as a JSON array, one object per series with its points
/// inline. Each series carries its platform label; each point carries its
/// full per-FPGA budget (the per-class fractions plus the bandwidth cap)
/// next to the scalar `resource_constraint` key. Non-finite floats (never
/// produced by a healthy sweep) map to `null` to keep the output standard
/// JSON.
pub fn series_to_json(series: &[SweepSeries]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in series.iter().enumerate() {
        out.push_str("  {");
        out.push_str(&format!(
            "\"case\": {}, \"platform\": {}, \"num_fpgas\": {}, \"backend\": {}, \"points\": [",
            json_string(&s.case),
            json_string(&s.platform),
            s.num_fpgas,
            json_string(&s.backend)
        ));
        for (j, p) in s.points.iter().enumerate() {
            let fraction = p.budget.resource_fraction();
            out.push_str(&format!(
                "\n    {{\"resource_constraint\": {}, \
                 \"budget\": {{\"lut\": {}, \"ff\": {}, \"bram\": {}, \"dsp\": {}, \
                 \"bandwidth\": {}}}, \
                 \"initiation_interval_ms\": {}, \
                 \"average_utilization\": {}, \"spreading\": {}, \"solve_seconds\": {}, \
                 \"relaxation_gap\": {}, \"bb_nodes\": {}, \"dropped_cus\": {}, \
                 \"warm_start\": {}, \"barrier_iterations\": {}, \
                 \"factorizations\": {}, \"simplex_pivots\": {}, \
                 \"moved_cus\": {}, \"migration_cost\": {}}}",
                json_f64(p.resource_constraint),
                json_f64(fraction.lut),
                json_f64(fraction.ff),
                json_f64(fraction.bram),
                json_f64(fraction.dsp),
                json_f64(p.budget.bandwidth_fraction()),
                json_f64(p.initiation_interval_ms),
                json_f64(p.average_utilization),
                json_f64(p.spreading),
                json_f64(p.solve_seconds),
                json_f64(p.relaxation_gap),
                p.bb_nodes,
                p.dropped_cus,
                json_string(p.warm_start.provenance()),
                p.barrier_iterations,
                p.factorizations,
                p.simplex_pivots,
                p.moved_cus,
                json_f64(p.migration_cost)
            ));
            if j + 1 < s.points.len() {
                out.push(',');
            }
        }
        if s.points.is_empty() {
            out.push(']');
        } else {
            out.push_str("\n  ]");
        }
        out.push('}');
        if i + 1 < series.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// Serializes series as CSV with one row per point:
/// `case,platform,num_fpgas,backend,resource_constraint,lut_budget,ff_budget,bram_budget,dsp_budget,bandwidth_budget,initiation_interval_ms,average_utilization,spreading,solve_seconds,relaxation_gap,bb_nodes,dropped_cus,warm_start,barrier_iterations,factorizations,simplex_pivots,moved_cus,migration_cost`.
///
/// The trailing diagnostic columns (relative relaxation gap,
/// branch-and-bound nodes, dropped CUs, warm-start provenance, the
/// machine-independent effort counters, and the reallocation movement
/// metrics) are additive: everything before them is byte-identical to the
/// pre-diagnostics format.
pub fn series_to_csv(series: &[SweepSeries]) -> String {
    let mut out = String::from(
        "case,platform,num_fpgas,backend,resource_constraint,\
         lut_budget,ff_budget,bram_budget,dsp_budget,bandwidth_budget,\
         initiation_interval_ms,average_utilization,spreading,solve_seconds,\
         relaxation_gap,bb_nodes,dropped_cus,warm_start,\
         barrier_iterations,factorizations,simplex_pivots,\
         moved_cus,migration_cost\n",
    );
    for s in series {
        for p in &s.points {
            let fraction = p.budget.resource_fraction();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                csv_field(&s.case),
                csv_field(&s.platform),
                s.num_fpgas,
                csv_field(&s.backend),
                p.resource_constraint,
                fraction.lut,
                fraction.ff,
                fraction.bram,
                fraction.dsp,
                p.budget.bandwidth_fraction(),
                p.initiation_interval_ms,
                p.average_utilization,
                p.spreading,
                p.solve_seconds,
                p.relaxation_gap,
                p.bb_nodes,
                p.dropped_cus,
                p.warm_start.provenance(),
                p.barrier_iterations,
                p.factorizations,
                p.simplex_pivots,
                p.moved_cus,
                p.migration_cost
            ));
        }
    }
    out
}

/// Writes [`series_to_json`] output to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_json(path: impl AsRef<Path>, series: &[SweepSeries]) -> io::Result<()> {
    fs::write(path, series_to_json(series))
}

/// Writes [`series_to_csv`] output to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csv(path: impl AsRef<Path>, series: &[SweepSeries]) -> io::Result<()> {
    fs::write(path, series_to_csv(series))
}

/// JSON string literal with the escapes required by RFC 8259.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values become `null`.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// CSV field, quoted (with doubled inner quotes) only when necessary.
pub(crate) fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepPoint;
    use mfa_alloc::solver::WarmStartReport;

    use mfa_platform::{ResourceBudget, ResourceVec};

    fn sample() -> Vec<SweepSeries> {
        vec![
            SweepSeries {
                case: "Alex-16 on 2 FPGAs".into(),
                platform: "2 FPGAs".into(),
                num_fpgas: 2,
                backend: "GP+A".into(),
                points: vec![
                    SweepPoint {
                        resource_constraint: 0.55,
                        budget: ResourceBudget::uniform(0.55),
                        initiation_interval_ms: 1.7,
                        average_utilization: 0.52,
                        spreading: 6.0,
                        solve_seconds: 0.01,
                        relaxation_gap: 0.0625,
                        bb_nodes: 12,
                        barrier_iterations: 0,
                        factorizations: 0,
                        simplex_pivots: 31,
                        dropped_cus: 0,
                        moved_cus: 0,
                        migration_cost: 0.0,
                        warm_start: WarmStartReport::default(),
                    },
                    SweepPoint {
                        resource_constraint: 0.9,
                        budget: ResourceBudget::new(ResourceVec::new(0.9, 0.9, 0.5, 0.7), 0.8),
                        initiation_interval_ms: 1.06,
                        average_utilization: 0.5,
                        spreading: 6.5,
                        solve_seconds: 0.02,
                        relaxation_gap: 0.031,
                        bb_nodes: 7,
                        barrier_iterations: 9,
                        factorizations: 48,
                        simplex_pivots: 17,
                        dropped_cus: 1,
                        moved_cus: 4,
                        migration_cost: 2.5,
                        warm_start: WarmStartReport {
                            ii_hint_used: true,
                            dual_hint_used: true,
                            incumbent_used: true,
                        },
                    },
                ],
            },
            SweepSeries {
                case: "odd \"label\", with comma".into(),
                platform: "4×VU9P + 4×KU115".into(),
                num_fpgas: 8,
                backend: "MINLP".into(),
                points: vec![],
            },
        ]
    }

    #[test]
    fn json_has_expected_structure_and_escapes() {
        let json = series_to_json(&sample());
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"case\": \"Alex-16 on 2 FPGAs\""));
        assert!(json.contains("\"platform\": \"2 FPGAs\""));
        assert!(json.contains("\"platform\": \"4×VU9P + 4×KU115\""));
        assert!(json.contains("\"resource_constraint\": 0.55"));
        assert!(json.contains("\"initiation_interval_ms\": 1.7"));
        // The full budget rides along with every point: uniform on the
        // first, per-resource (BRAM 0.5, bandwidth 0.8) on the second.
        assert!(json.contains(
            "\"budget\": {\"lut\": 0.55, \"ff\": 0.55, \"bram\": 0.55, \"dsp\": 0.55, \
             \"bandwidth\": 1}"
        ));
        assert!(json.contains("\"bram\": 0.5, \"dsp\": 0.7, \"bandwidth\": 0.8"));
        assert!(json.contains("\"odd \\\"label\\\", with comma\""));
        // The effort counters and movement metrics ride along with every
        // point.
        assert!(json.contains(
            "\"warm_start\": \"ii+dual+incumbent\", \"barrier_iterations\": 9, \
             \"factorizations\": 48, \"simplex_pivots\": 17, \
             \"moved_cus\": 4, \"migration_cost\": 2.5"
        ));
        // The empty series still appears, with an empty points array.
        assert!(json.contains("\"points\": []"));
        // Balanced brackets/braces — a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_has_a_header_and_one_row_per_point() {
        let csv = series_to_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 points (empty series: no rows)
        assert!(lines[0].starts_with(
            "case,platform,num_fpgas,backend,resource_constraint,\
             lut_budget,ff_budget,bram_budget,dsp_budget,bandwidth_budget"
        ));
        assert!(lines[1].starts_with("Alex-16 on 2 FPGAs,2 FPGAs,2,GP+A,0.55,"));
        assert_eq!(lines[1].split(',').count(), 23);
        // The diagnostics ride at the end of the row, movement metrics last.
        assert!(lines[1].ends_with("0.0625,12,0,cold,0,0,31,0,0"));
        assert!(lines[2].ends_with("0.031,7,1,ii+dual+incumbent,9,48,17,4,2.5"));
        // The per-resource budget point spells out its fractions.
        assert!(lines[2].contains("0.9,0.9,0.5,0.7,0.8"));
    }

    #[test]
    fn csv_quotes_fields_that_need_it() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn non_finite_floats_become_null_in_json() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.25), "1.25");
    }

    #[test]
    fn files_round_trip_through_the_filesystem() {
        let dir = std::env::temp_dir().join("mfa_explore_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("series.json");
        let csv_path = dir.join("series.csv");
        write_json(&json_path, &sample()).unwrap();
        write_csv(&csv_path, &sample()).unwrap();
        assert_eq!(
            std::fs::read_to_string(&json_path).unwrap(),
            series_to_json(&sample())
        );
        assert_eq!(
            std::fs::read_to_string(&csv_path).unwrap(),
            series_to_csv(&sample())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
