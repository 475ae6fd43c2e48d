//! Fig. 3 — AlexNet 16-bit fixed point on 2 FPGAs: II vs resource constraint
//! (a) and II vs average FPGA utilization (b), for GP+A, MINLP and MINLP+G.
//!
//! The three method series run through the `mfa_explore` parallel engine
//! (via `compare_methods`); the Criterion group additionally times the full
//! Fig. 3 GP+A sweep serial vs parallel to track the executor's speedup.

use criterion::{criterion_group, criterion_main, Criterion};

use mfa_alloc::cases::PaperCase;
use mfa_alloc::exact::ExactMode;
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::solver::{Backend, SolveRequest};
use mfa_bench::{compare_methods, print_comparison, MinlpBudget};
use mfa_explore::{constraint_grid, run_sweep, CaseSpec, ExecutorOptions, SolverSpec, SweepGrid};

fn print_fig3() {
    let case = PaperCase::Alex16OnTwoFpgas;
    let problem = case.problem(0.70).expect("feasible");
    let constraints = constraint_grid(0.55, 0.85, 7).expect("valid grid");
    let rows = compare_methods(&problem, &constraints, MinlpBudget::alexnet());
    print_comparison(
        "Fig. 3: Alex-16 on 2 FPGAs — II vs resource constraint / average resource",
        &rows,
    );
}

/// The Fig. 3 constraint grid with a GP+A backend per paper variant — enough
/// independent work to keep several cores busy without MINLP noise.
fn fig3_gpa_grid() -> SweepGrid {
    SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        .constraints(constraint_grid(0.55, 0.85, 7).expect("valid grid"))
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .backend(SolverSpec::gpa_labeled(
            "GP+A/gp",
            GpaOptions::paper_defaults(),
        ))
        .build()
        .expect("the Fig. 3 grid is well-formed")
}

fn bench(c: &mut Criterion) {
    print_fig3();
    let problem = PaperCase::Alex16OnTwoFpgas.problem(0.70).expect("feasible");
    let mut group = c.benchmark_group("fig3_alex16");
    group.sample_size(10);
    group.bench_function("gpa", |b| {
        b.iter(|| {
            SolveRequest::new(&problem)
                .backend(Backend::gpa())
                .solve()
                .expect("solves")
        })
    });
    group.bench_function("minlp_budgeted", |b| {
        b.iter(|| {
            SolveRequest::new(&problem)
                .backend(Backend::exact_with(
                    MinlpBudget {
                        max_nodes: 200,
                        time_limit_seconds: 5.0,
                    }
                    .options(ExactMode::IiOnly),
                ))
                .solve()
                .expect("solves")
        })
    });
    let grid = fig3_gpa_grid();
    group.bench_function("gpa_sweep_serial", |b| {
        b.iter(|| run_sweep(&grid, &ExecutorOptions::serial()).expect("sweep succeeds"))
    });
    group.bench_function("gpa_sweep_parallel", |b| {
        b.iter(|| {
            run_sweep(
                &grid,
                &ExecutorOptions {
                    chunk_size: 2,
                    ..ExecutorOptions::default()
                },
            )
            .expect("sweep succeeds")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
