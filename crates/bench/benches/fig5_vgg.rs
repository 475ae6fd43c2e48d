//! Fig. 5 — VGG 16-bit fixed point on 8 FPGAs: II vs resource constraint (a)
//! and vs average FPGA utilization (b).
//!
//! The exact MINLP at this size (136 integer variables) took the paper's
//! authors hours with Couenne; here each exact solve gets a small node/time
//! budget and reports its best incumbent (see `EXPERIMENTS.md`). Budgeted
//! solves that exhaust their nodes without an incumbent show up as missing
//! points, and the series run through the `mfa_explore` parallel engine via
//! `compare_methods`.

use criterion::{criterion_group, criterion_main, Criterion};

use mfa_alloc::cases::PaperCase;
use mfa_alloc::solver::{Backend, SolveRequest};
use mfa_bench::{compare_methods, print_comparison, MinlpBudget};
use mfa_explore::constraint_grid;

fn print_fig5() {
    let case = PaperCase::VggOnEightFpgas;
    let problem = case.problem(0.61).expect("feasible");
    let constraints = constraint_grid(0.55, 0.80, 6).expect("valid grid");
    let rows = compare_methods(&problem, &constraints, MinlpBudget::vgg());
    print_comparison(
        "Fig. 5: VGG on 8 FPGAs — II vs resource constraint / average resource",
        &rows,
    );
}

fn bench(c: &mut Criterion) {
    print_fig5();
    let problem = PaperCase::VggOnEightFpgas.problem(0.61).expect("feasible");
    let mut group = c.benchmark_group("fig5_vgg");
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
