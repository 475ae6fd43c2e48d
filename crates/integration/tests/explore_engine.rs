//! Acceptance tests of the exploration engine (`mfa_explore`) against a
//! reference that solves each point on its own:
//!
//! * cold engine output must match a per-point
//!   [`SolveRequest::solve_point`] loop on the paper's Alex-16 and VGG
//!   cases, ordering included;
//! * skipped points are absent, not fatal, for both heuristic and exact
//!   backends;
//! * the parallel executor must return byte-identical series to the serial
//!   path;
//! * on a multi-core host, sweeping a Fig. 3-sized grid in parallel must not
//!   be slower than sweeping it serially.

use std::num::NonZeroUsize;
use std::time::Instant;

use mfa_alloc::cases::PaperCase;
use mfa_alloc::exact::ExactOptions;
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::greedy::GreedyOptions;
use mfa_alloc::solver::{Backend, SolveRequest};
use mfa_alloc::AllocationProblem;
use mfa_explore::{
    constraint_grid, run_sweep, CaseSpec, ExecutorOptions, SolverSpec, SweepGrid, SweepPoint,
    SweepSeries,
};

/// The reference sweep: every constraint solved on its own, cold and
/// serially, with the request's default (lenient) skip policy; skipped
/// points are absent.
fn reference_sweep(
    problem: &AllocationProblem,
    constraints: &[f64],
    backend: &Backend,
) -> Vec<SweepPoint> {
    constraints
        .iter()
        .filter_map(|&constraint| {
            let instance = problem.with_resource_constraint(constraint);
            SolveRequest::new(&instance)
                .backend(backend.clone())
                .solve_point()
                .expect("no non-skippable solver failure")
                .map(|report| SweepPoint::from_report(&instance, constraint, &report))
        })
        .collect()
}

/// A cold, single-series engine sweep of one paper case.
fn engine_sweep(
    case: PaperCase,
    fpgas: usize,
    constraints: &[f64],
    backend: SolverSpec,
) -> Vec<SweepPoint> {
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(case))
        .fpga_counts([fpgas])
        .constraints(constraints.iter().copied())
        .backend(backend)
        .build()
        .unwrap();
    let options = ExecutorOptions {
        warm_start: false,
        ..ExecutorOptions::default()
    };
    let mut series = run_sweep(&grid, &options).unwrap();
    assert_eq!(series.len(), 1);
    series.remove(0).points
}

/// Wall-clock timing is the only field allowed to differ between runs.
fn zero_timing(mut series: Vec<SweepSeries>) -> Vec<SweepSeries> {
    for s in &mut series {
        for p in &mut s.points {
            p.solve_seconds = 0.0;
        }
    }
    series
}

fn assert_points_match(
    engine: &[mfa_explore::SweepPoint],
    core: &[mfa_explore::SweepPoint],
    label: &str,
) {
    assert_eq!(engine.len(), core.len(), "{label}: series lengths differ");
    for (e, c) in engine.iter().zip(core) {
        assert_eq!(e.resource_constraint, c.resource_constraint, "{label}");
        assert_eq!(
            e.initiation_interval_ms, c.initiation_interval_ms,
            "{label}"
        );
        assert_eq!(e.average_utilization, c.average_utilization, "{label}");
        assert_eq!(e.spreading, c.spreading, "{label}");
    }
}

#[test]
fn engine_matches_core_sweep_gpa_on_alex16() {
    let constraints = constraint_grid(0.55, 0.85, 5).unwrap();
    let options = GpaOptions::fast();
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        .constraints(constraints.iter().copied())
        .backend(SolverSpec::gpa(options.clone()))
        .build()
        .unwrap();
    // Warm starts off: the engine then follows exactly the same solve path
    // as the core sweep, so every metric field must be bit-identical.
    let engine = run_sweep(
        &grid,
        &ExecutorOptions {
            warm_start: false,
            ..ExecutorOptions::default()
        },
    )
    .unwrap();
    let problem = PaperCase::Alex16OnTwoFpgas.problem(0.70).unwrap();
    let core = reference_sweep(&problem, &constraints, &Backend::gpa_with(options));
    assert_points_match(&engine[0].points, &core, "Alex-16 GP+A");
}

#[test]
fn engine_matches_core_sweep_gpa_on_vgg() {
    let constraints = [0.61, 0.70, 0.80];
    let options = GpaOptions::fast();
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::VggOnEightFpgas))
        .fpga_counts([8])
        .constraints(constraints)
        .backend(SolverSpec::gpa(options.clone()))
        .build()
        .unwrap();
    let engine = run_sweep(
        &grid,
        &ExecutorOptions {
            warm_start: false,
            ..ExecutorOptions::default()
        },
    )
    .unwrap();
    let problem = PaperCase::VggOnEightFpgas.problem(0.61).unwrap();
    let core = reference_sweep(&problem, &constraints, &Backend::gpa_with(options));
    assert_points_match(&engine[0].points, &core, "VGG GP+A");
}

#[test]
fn engine_matches_core_sweep_exact_on_alex16() {
    let constraints = [0.70, 0.80];
    let options = ExactOptions::ii_only_with_budget(500, 5.0);
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        .constraints(constraints)
        .backend(SolverSpec::exact(options.clone()))
        .build()
        .unwrap();
    let engine = run_sweep(&grid, &ExecutorOptions::default()).unwrap();
    let problem = PaperCase::Alex16OnTwoFpgas.problem(0.70).unwrap();
    let core = reference_sweep(&problem, &constraints, &Backend::exact_with(options));
    assert_points_match(&engine[0].points, &core, "Alex-16 MINLP");
}

#[test]
fn gpa_sweep_is_monotone_in_the_constraint() {
    let constraints = constraint_grid(0.55, 0.85, 4).unwrap();
    let points = engine_sweep(
        PaperCase::Alex16OnTwoFpgas,
        2,
        &constraints,
        SolverSpec::gpa(GpaOptions::fast()),
    );
    assert!(points.len() >= 3);
    // Looser constraints can only improve (not worsen) the II, up to the
    // small non-monotonicities the greedy step may introduce.
    let first = points.first().unwrap().initiation_interval_ms;
    let last = points.last().unwrap().initiation_interval_ms;
    assert!(last <= first + 1e-9);
    for p in &points {
        assert!(p.average_utilization > 0.0 && p.average_utilization <= 1.0);
        assert!(p.solve_seconds >= 0.0);
        // Warm starts are off: the diagnostics must say the solve was cold.
        assert_eq!(p.warm_start.provenance(), "cold");
        assert!(p.relaxation_gap >= 0.0);
        assert!(p.bb_nodes >= 1);
    }
}

#[test]
fn t_sweep_produces_one_series_per_t() {
    let backend = |t: f64| {
        SolverSpec::gpa_labeled(
            format!("GP+A T={t}"),
            GpaOptions {
                greedy: GreedyOptions::with_t_delta(t, 0.01),
                ..GpaOptions::fast()
            },
        )
    };
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        .constraints(constraint_grid(0.60, 0.80, 3).unwrap())
        .backends([backend(0.0), backend(0.10)])
        .build()
        .unwrap();
    let series = run_sweep(&grid, &ExecutorOptions::default()).unwrap();
    assert_eq!(series.len(), 2);
    assert_eq!(series[0].backend, "GP+A T=0");
    assert_eq!(series[1].backend, "GP+A T=0.1");
    // The paper observes little effect of T; check the curves stay close.
    for (a, b) in series[0].points.iter().zip(&series[1].points) {
        assert!((a.initiation_interval_ms - b.initiation_interval_ms).abs() < 0.5);
    }
}

#[test]
fn exact_sweep_skips_infeasible_points() {
    // 8 % cannot host CONV1 (10.6 % BRAM per CU for Alex-16); 80 % can.
    let points = engine_sweep(
        PaperCase::Alex16OnTwoFpgas,
        2,
        &[0.08, 0.80],
        SolverSpec::exact(ExactOptions::ii_only_with_budget(2_000, 10.0)),
    );
    assert_eq!(points.len(), 1);
    assert!((points[0].resource_constraint - 0.80).abs() < 1e-12);
    assert!(points[0].bb_nodes >= 1);
    assert_eq!(points[0].dropped_cus, 0);
}

#[test]
fn backend_sweeps_cover_the_greedy_fallback_too() {
    // The engine's grid has no greedy axis; the per-point reference does,
    // and `SweepPoint::from_report` must read a greedy report correctly.
    let problem = PaperCase::Alex16OnTwoFpgas.problem(0.70).unwrap();
    let points = reference_sweep(&problem, &[0.65, 0.80], &Backend::greedy());
    assert_eq!(points.len(), 2);
    for p in &points {
        assert_eq!(p.bb_nodes, 0);
        assert!(p.initiation_interval_ms > 0.0);
    }
}

#[test]
fn parallel_series_are_byte_identical_to_serial() {
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .case(CaseSpec::from_paper(PaperCase::VggOnEightFpgas))
        .fpga_counts([2, 8])
        .constraints(constraint_grid(0.58, 0.80, 4).unwrap())
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .build()
        .unwrap();
    let serial = run_sweep(
        &grid,
        &ExecutorOptions {
            chunk_size: 2,
            ..ExecutorOptions::serial()
        },
    )
    .unwrap();
    let parallel = run_sweep(
        &grid,
        &ExecutorOptions {
            num_threads: Some(4),
            chunk_size: 2,
            warm_start: true,
            ..ExecutorOptions::default()
        },
    )
    .unwrap();
    assert_eq!(zero_timing(serial), zero_timing(parallel));
}

#[test]
fn parallel_sweep_is_not_slower_on_multicore() {
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 2 {
        eprintln!("skipping: single-core host cannot demonstrate a speedup");
        return;
    }
    // A Fig. 3-shaped workload: the Alex cases at the paper's FPGA counts
    // over the Fig. 3 constraint axis, GP+A backends only so the point cost
    // is stable enough for a timing comparison.
    let grid = SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .case(CaseSpec::from_paper(PaperCase::Alex32OnFourFpgas))
        .fpga_counts([2, 4])
        .constraints(constraint_grid(0.55, 0.85, 7).unwrap())
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .backend(SolverSpec::gpa_labeled(
            "GP+A/gp",
            GpaOptions::paper_defaults(),
        ))
        .build()
        .unwrap();
    // Warm both paths up once so lazy initialization costs are excluded.
    let _ = run_sweep(&grid, &ExecutorOptions::serial()).unwrap();
    let t0 = Instant::now();
    let serial = run_sweep(&grid, &ExecutorOptions::serial()).unwrap();
    let serial_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let parallel = run_sweep(&grid, &ExecutorOptions::default()).unwrap();
    let parallel_s = t1.elapsed().as_secs_f64();
    assert_eq!(zero_timing(serial), zero_timing(parallel));
    assert!(
        parallel_s <= serial_s * 1.10,
        "parallel sweep ({parallel_s:.3} s) slower than serial ({serial_s:.3} s) on {cores} cores"
    );
}
