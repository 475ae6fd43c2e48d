//! Fig. 4 — AlexNet 32-bit floating point on 4 FPGAs: II vs resource
//! constraint (a) and vs average FPGA utilization (b).
//!
//! The method series run through the `mfa_explore` parallel engine via
//! `compare_methods`, overlapping the budgeted MINLP solves with the GP+A
//! sweep on multi-core hosts.

use criterion::{criterion_group, criterion_main, Criterion};

use mfa_alloc::cases::PaperCase;
use mfa_alloc::solver::{Backend, SolveRequest};
use mfa_bench::{compare_methods, print_comparison, MinlpBudget};
use mfa_explore::constraint_grid;

fn print_fig4() {
    let case = PaperCase::Alex32OnFourFpgas;
    let problem = case.problem(0.70).expect("feasible");
    let constraints = constraint_grid(0.65, 0.75, 3).expect("valid grid");
    let rows = compare_methods(&problem, &constraints, MinlpBudget::alexnet());
    print_comparison(
        "Fig. 4: Alex-32 on 4 FPGAs — II vs resource constraint / average resource",
        &rows,
    );
}

fn bench(c: &mut Criterion) {
    print_fig4();
    let problem = PaperCase::Alex32OnFourFpgas
        .problem(0.70)
        .expect("feasible");
    let mut group = c.benchmark_group("fig4_alex32");
    group.sample_size(10);
    group.bench_function("gpa", |b| {
        b.iter(|| {
            SolveRequest::new(&problem)
                .backend(Backend::gpa())
                .solve()
                .expect("solves")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
