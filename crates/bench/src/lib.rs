//! Shared plumbing for the benchmark harness.
//!
//! Every bench target under `benches/` regenerates one table or figure of the
//! paper (printing the rows/series in a paper-shaped layout) and then runs a
//! small Criterion group timing the underlying solver calls. This crate holds
//! the helpers they share: standard solver budgets, sweep runners and plain
//! text table formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mfa_alloc::exact::{ExactMode, ExactOptions};
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::AllocationProblem;
use mfa_explore::{
    run_sweep, CaseSpec, ExecutorOptions, SolverSpec, SweepGrid, SweepPoint, SweepSeries,
};

/// Node/time budget applied to MINLP solves inside benchmark sweeps.
///
/// The paper reports MINLP runtimes from minutes to hours; the benches cap
/// each solve so that the full harness finishes in minutes. The incumbent the
/// solver returns within the budget is reported together with its proven
/// lower bound (see `EXPERIMENTS.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinlpBudget {
    /// Maximum branch-and-bound nodes.
    pub max_nodes: usize,
    /// Wall-clock cap in seconds.
    pub time_limit_seconds: f64,
}

impl MinlpBudget {
    /// Budget for the small AlexNet cases (16–32 integer variables).
    pub fn alexnet() -> Self {
        MinlpBudget {
            max_nodes: 2_000,
            time_limit_seconds: 12.0,
        }
    }

    /// Budget for the VGG case (136 integer variables); deliberately small, as
    /// the paper itself reports hours for exact solves at this size.
    pub fn vgg() -> Self {
        MinlpBudget {
            max_nodes: 200,
            time_limit_seconds: 15.0,
        }
    }

    /// Converts the budget into exact-solver options for the given mode.
    pub fn options(self, mode: ExactMode) -> ExactOptions {
        ExactOptions {
            mode,
            solver: mfa_minlp::SolverOptions::with_budget(self.max_nodes, self.time_limit_seconds),
            symmetry_breaking: true,
        }
    }
}

/// One row of a figure data series: the three methods side by side.
#[derive(Debug, Clone, Copy)]
pub struct MethodComparison {
    /// Per-FPGA resource constraint (fraction).
    pub constraint: f64,
    /// GP+A heuristic result.
    pub gpa: Option<SweepPoint>,
    /// MINLP (β = 0) result.
    pub minlp: Option<SweepPoint>,
    /// MINLP+G result.
    pub minlp_g: Option<SweepPoint>,
}

/// Runs GP+A, MINLP and MINLP+G at each constraint and returns the combined
/// series (the data behind Figs. 3–5).
///
/// The three method series run through the [`mfa_explore`] parallel engine —
/// one grid with three solver backends — so on a multi-core host the exact
/// solves overlap with the heuristic sweep. Points a method cannot realize
/// (infeasible constraints, budget-exhausted MINLP solves) are `None`.
///
/// # Panics
///
/// Panics if the sweep aborts on a non-skippable solver failure; a benchmark
/// harness has no better recovery than reporting it loudly.
pub fn compare_methods(
    problem: &AllocationProblem,
    constraints: &[f64],
    budget: MinlpBudget,
) -> Vec<MethodComparison> {
    let grid = SweepGrid::builder()
        .case(CaseSpec::new("bench", problem.clone()))
        .fpga_counts([problem.num_fpgas()])
        .constraints(constraints.iter().copied())
        .backend(SolverSpec::gpa(GpaOptions::paper_defaults()))
        .backend(SolverSpec::exact(budget.options(ExactMode::IiOnly)))
        .backend(SolverSpec::exact(budget.options(ExactMode::IiAndSpreading)))
        .build()
        .expect("the comparison grid is well-formed");
    let series = run_sweep(&grid, &ExecutorOptions::default()).expect("comparison sweep failed");
    let find = |s: &SweepSeries, constraint: f64| -> Option<SweepPoint> {
        s.points
            .iter()
            .find(|p| (p.resource_constraint - constraint).abs() < 1e-9)
            .copied()
    };
    constraints
        .iter()
        .map(|&constraint| MethodComparison {
            constraint,
            gpa: find(&series[0], constraint),
            minlp: find(&series[1], constraint),
            minlp_g: find(&series[2], constraint),
        })
        .collect()
}

/// Prints a figure-style series table: `II (ms)` and `average resource`
/// columns for each method, one row per constraint.
pub fn print_comparison(title: &str, rows: &[MethodComparison]) {
    println!();
    println!("=== {title}");
    println!(
        "{:>12} | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
        "constraint", "GP+A II", "avg res", "MINLP II", "avg res", "MINLP+G II", "avg res"
    );
    for row in rows {
        let fmt = |p: &Option<SweepPoint>, ii: bool| -> String {
            match p {
                Some(point) => {
                    if ii {
                        format!("{:.3}", point.initiation_interval_ms)
                    } else {
                        format!("{:.1}%", 100.0 * point.average_utilization)
                    }
                }
                None => "-".to_owned(),
            }
        };
        println!(
            "{:>11.0}% | {:>10} {:>10} | {:>10} {:>10} | {:>10} {:>10}",
            row.constraint * 100.0,
            fmt(&row.gpa, true),
            fmt(&row.gpa, false),
            fmt(&row.minlp, true),
            fmt(&row.minlp, false),
            fmt(&row.minlp_g, true),
            fmt(&row.minlp_g, false),
        );
    }
}

/// Prints a paper-style kernel characterization table.
pub fn print_characterization(title: &str, app: &mfa_cnn::Application) {
    println!();
    println!("=== {title}");
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>10}",
        "kernel", "BRAM (%)", "DSP (%)", "BW (%)", "WCET (ms)"
    );
    for k in app.kernels() {
        println!(
            "{:<10} {:>9.2} {:>9.2} {:>7.1} {:>10.3}",
            k.name(),
            100.0 * k.resources().bram,
            100.0 * k.resources().dsp,
            100.0 * k.bandwidth(),
            k.wcet_ms()
        );
    }
    let totals = app.total_resources();
    println!(
        "{:<10} {:>9.2} {:>9.2} {:>7.1} {:>10.2}",
        "SUM",
        100.0 * totals.bram,
        100.0 * totals.dsp,
        100.0 * app.total_bandwidth(),
        app.total_wcet_ms()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfa_alloc::cases::PaperCase;

    #[test]
    fn budgets_convert_to_options() {
        let options = MinlpBudget::alexnet().options(ExactMode::IiOnly);
        assert_eq!(options.solver.max_nodes, 2_000);
        assert!(options.symmetry_breaking);
        let vgg = MinlpBudget::vgg();
        assert!(vgg.max_nodes < MinlpBudget::alexnet().max_nodes);
    }

    #[test]
    fn compare_methods_produces_one_row_per_constraint() {
        let problem = PaperCase::Alex16OnTwoFpgas.problem(0.70).unwrap();
        let rows = compare_methods(
            &problem,
            &[0.70, 0.80],
            MinlpBudget {
                max_nodes: 50,
                time_limit_seconds: 5.0,
            },
        );
        assert_eq!(rows.len(), 2);
        assert!(rows[0].gpa.is_some());
        print_comparison("smoke test", &rows);
        print_characterization("Alex-16", &PaperCase::Alex16OnTwoFpgas.application());
    }
}
