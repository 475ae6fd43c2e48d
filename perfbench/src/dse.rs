//! The design-space-exploration workloads: `dse-exact` (the quick paper
//! grids with both MINLP series, checked against the committed goldens) and
//! `dse-gpa` (a dense GP+A-only sweep, checked against a committed digest).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mfa_alloc::cases::PaperCase;
use mfa_alloc::fingerprint::FingerprintHasher;
use mfa_alloc::gp_step::{self, RelaxationBackend};
use mfa_alloc::gpa::GpaOptions;
use mfa_alloc::solver::{Deadline, SolveReport, SolveRequest};
use mfa_alloc::AllocError;
use mfa_explore::{
    export, figures, plan_units, run_sweep, wire, zero_timing, CaseSpec, ExecutorOptions,
    FigureSpec, PlatformSpec, SolverSpec, SweepGrid, SweepSeries,
};
use mfa_platform::{DeviceGroup, FpgaDevice, HeterogeneousPlatform, ResourceBudget};

use crate::report::{self, median, ratio, Outcome, SetupTimer, Tally};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Config;

/// Budget points per case of the `dse-gpa` grid.
const GPA_POINTS_PER_CASE: usize = 200;

/// Relative slack of the II ≥ relaxed-bound check: the bisection relaxation
/// stops within its own tolerance of the continuous optimum.
const BOUND_TOLERANCE: f64 = 1e-6;

/// The `dse-exact` grid swept only in the traced run: its MINLP series take
/// ~20 s of a ~24 s sweep in one call each, too long to repeat within a run
/// (see METRICS.md, "Timed passes").
const TRACED_ONLY_GRID: &str = "fig5";

/// Reference digest of the zero-timed `dse-gpa` exports.
const GPA_DIGEST_FILE: &str = "perfbench/dse_gpa_digest.txt";

const GOLDEN_DIR: &str = "crates/integration/tests/golden";

/// One grid of a workload's pass, with what its output must equal.
struct Grid {
    name: String,
    grid: SweepGrid,
    /// The committed `quick-*` JSON and CSV goldens (`dse-exact` only).
    golden: Option<(String, String)>,
    /// Per series, each budget with the continuous relaxation's II: a lower
    /// bound on the II of any design at that budget (`None` when even the
    /// relaxation is infeasible).
    bounds: Vec<Bounds>,
}

/// Each budget of a series with its relaxed II bound.
type Bounds = Vec<(ResourceBudget, Option<f64>)>;

impl Grid {
    fn new(
        name: String,
        grid: SweepGrid,
        golden: Option<(String, String)>,
    ) -> Result<Grid, String> {
        let bounds = relaxed_bounds(&grid)?;
        Ok(Grid {
            name,
            grid,
            golden,
            bounds,
        })
    }
}

/// Solves the bisection relaxation of every (case, platform, budget) of the
/// grid, independently of the sweep, and lays the bounds out per series.
fn relaxed_bounds(grid: &SweepGrid) -> Result<Vec<Bounds>, String> {
    let mut per_platform = Vec::new();
    for case in grid.cases() {
        for platform in grid.platforms() {
            let mut row = Vec::new();
            for budget in grid.budgets() {
                let problem = case.problem_at(platform, budget);
                let bound = match gp_step::solve(&problem, RelaxationBackend::Bisection) {
                    Ok(relaxation) => Some(relaxation.initiation_interval_ms),
                    Err(AllocError::Infeasible(_)) => None,
                    Err(err) => return Err(format!("relaxation of {}: {err}", case.label())),
                };
                row.push((*problem.budget(), bound));
            }
            per_platform.push(row);
        }
    }
    let backends = grid.backends().len();
    Ok((0..grid.num_series())
        .map(|s| per_platform[s / backends].clone())
        .collect())
}

/// A prepared DSE workload: its grids in the seed's order.
struct Workload {
    grids: Vec<Grid>,
    /// Reference digest of the canonical-order exports (`dse-gpa` only).
    digest: Option<String>,
}

impl Workload {
    /// Every grid (`timed_only` false) or those of the timed passes.
    fn grids(&self, timed_only: bool) -> Vec<&Grid> {
        self.grids
            .iter()
            .filter(|g| !timed_only || g.name != TRACED_ONLY_GRID)
            .collect()
    }
}

fn setup_exact(seed: u64) -> Result<Workload, String> {
    let mut specs: Vec<FigureSpec> =
        figures::paper_figures(true, true).map_err(|e| e.to_string())?;
    specs.push(figures::hetero_smoke().map_err(|e| e.to_string())?);
    let mut grids = Vec::new();
    for spec in specs {
        let read = |ext: &str| {
            let path = format!("{GOLDEN_DIR}/quick-{}.{ext}", spec.name);
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read golden {path}: {e}"))
        };
        let golden = Some((read("json")?, read("csv")?));
        grids.push(Grid::new(spec.name.to_owned(), spec.grid, golden)?);
    }
    Rng::new(seed).shuffle(&mut grids);
    Ok(Workload {
        grids,
        digest: None,
    })
}

/// The `dse-gpa` grids: every paper case on its own platform plus a
/// two-group heterogeneous fleet, each over `GPA_POINTS_PER_CASE`
/// neighbouring constraints, GP+A with the GP relaxation.
fn gpa_grids() -> Result<Vec<Grid>, String> {
    let fleet = HeterogeneousPlatform::new(
        "2×VU9P + 2×KU115",
        vec![
            DeviceGroup::new(FpgaDevice::vu9p(), 2),
            DeviceGroup::new(FpgaDevice::ku115(), 2),
        ],
    );
    let mut cases: Vec<(String, PaperCase, PlatformSpec)> = PaperCase::all()
        .into_iter()
        .map(|c| {
            (
                c.label().to_owned(),
                c,
                PlatformSpec::FpgaCount(c.num_fpgas()),
            )
        })
        .collect();
    cases.push((
        format!("Alex-32 on {}", fleet.name()),
        PaperCase::Alex32OnFourFpgas,
        PlatformSpec::platform(fleet),
    ));
    cases
        .into_iter()
        .map(|(name, case, platform)| {
            let (lo, hi) = case.constraint_range();
            let constraints = (0..GPA_POINTS_PER_CASE)
                .map(|i| lo + (hi - lo) * i as f64 / (GPA_POINTS_PER_CASE - 1) as f64);
            let grid = SweepGrid::builder()
                .case(CaseSpec::from_paper(case))
                .platform(platform)
                .constraints(constraints)
                .backend(SolverSpec::gpa(GpaOptions::paper_defaults()))
                .build()
                .map_err(|e| e.to_string())?;
            Grid::new(name, grid, None)
        })
        .collect()
}

fn setup_gpa(seed: u64) -> Result<Workload, String> {
    let mut grids = gpa_grids()?;
    let digest = std::fs::read_to_string(GPA_DIGEST_FILE)
        .map_err(|e| format!("cannot read {GPA_DIGEST_FILE}: {e}"))?;
    Rng::new(seed).shuffle(&mut grids);
    Ok(Workload {
        grids,
        digest: Some(digest.trim().to_owned()),
    })
}

/// One sweep of the given grids, in the workload's seed order.
struct Pass {
    wall_s: f64,
    /// Series per grid, in the workload's grid order.
    series: Vec<Vec<SweepSeries>>,
}

impl Pass {
    fn points(&self) -> impl Iterator<Item = (&SweepSeries, &mfa_explore::SweepPoint)> {
        self.series
            .iter()
            .flatten()
            .flat_map(|s| s.points.iter().map(move |p| (s, p)))
    }

    fn solved(&self) -> usize {
        self.points().count()
    }

    fn point_latencies_ms(&self) -> Vec<f64> {
        self.points().map(|(_, p)| p.solve_seconds * 1e3).collect()
    }
}

fn sweep_pass(
    grids: &[&Grid],
    options: &ExecutorOptions,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let started = Instant::now();
    let parent = tracer.as_deref_mut().map(|t| t.open("sweep.pass", None));
    let mut series = Vec::with_capacity(grids.len());
    for grid in grids {
        let t0 = Instant::now();
        let out = run_sweep(&grid.grid, options).map_err(|e| format!("{}: {e}", grid.name))?;
        if let Some(t) = tracer.as_deref_mut() {
            t.record("explore.run_sweep", parent, t0, Instant::now());
        }
        series.push(out);
    }
    if let (Some(t), Some(id)) = (tracer, parent) {
        t.close(id);
    }
    Ok(Pass {
        wall_s: started.elapsed().as_secs_f64(),
        series,
    })
}

/// Checks a pass over `grids`: II at or above the relaxed bound at every
/// point, plus the goldens byte for byte (`dse-exact`) or the export digest
/// (`dse-gpa`, whose passes sweep every grid).
fn check_pass(work: &Workload, grids: &[&Grid], pass: &Pass, tally: &mut Tally) {
    let mut zeroed: Vec<(&str, Vec<SweepSeries>)> = grids
        .iter()
        .zip(&pass.series)
        .map(|(g, s)| {
            let mut s = s.clone();
            zero_timing(&mut s);
            (g.name.as_str(), s)
        })
        .collect();
    for (grid, (name, series)) in grids.iter().zip(&zeroed) {
        if let Some((json, csv)) = &grid.golden {
            let ok =
                export::series_to_json(series) == *json && export::series_to_csv(series) == *csv;
            if !ok {
                println!("check failed: {name} differs from its quick-* golden");
            }
            tally.check(ok);
        }
    }
    // II at or above the independently solved relaxed bound, every point.
    for (grid, series) in grids.iter().zip(&pass.series) {
        for (s, bounds) in series.iter().zip(&grid.bounds) {
            for p in &s.points {
                let bound = bounds
                    .iter()
                    .find(|(b, _)| *b == p.budget)
                    .and_then(|(_, b)| *b);
                let ok =
                    bound.is_some_and(|b| p.initiation_interval_ms >= b * (1.0 - BOUND_TOLERANCE));
                if !ok {
                    println!(
                        "check failed: {} {} at {}: II {} below relaxed bound {bound:?}",
                        grid.name, s.backend, p.resource_constraint, p.initiation_interval_ms
                    );
                }
                tally.check(ok);
            }
        }
    }
    if let Some(expected) = &work.digest {
        zeroed.sort_by(|a, b| a.0.cmp(b.0));
        let mut hasher = FingerprintHasher::new();
        for (name, series) in &zeroed {
            hasher.write_str(name);
            hasher.write_str(&export::series_to_json(series));
        }
        let got = hasher.finish().to_hex();
        if got != *expected {
            println!("check failed: dse-gpa export digest {got}, expected {expected}");
        }
        tally.check(got == *expected);
    }
}

pub fn run_exact(config: &Config) -> Result<Outcome, String> {
    run(config, setup_exact)
}

pub fn run_gpa(config: &Config) -> Result<Outcome, String> {
    run(config, setup_gpa)
}

/// The executor as a designer runs it: warm starts on, one thread per core.
fn executor(config: &Config) -> ExecutorOptions {
    ExecutorOptions {
        num_threads: Some(config.threads),
        ..ExecutorOptions::default()
    }
}

fn run(config: &Config, setup: fn(u64) -> Result<Workload, String>) -> Result<Outcome, String> {
    let (work, mut setups) = SetupTimer::start(|_| setup(config.seed), drop)?;
    // The traced run sweeps every grid; the timed passes skip fig5.
    let grids = work.grids(!config.trace);
    let planned: usize = grids.iter().map(|g| g.grid.num_points()).sum();
    println!(
        "set-up: {} grids, {} swept, {planned} planned points, order [{}]",
        work.grids.len(),
        grids.len(),
        grids
            .iter()
            .map(|g| g.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut tally = Tally::default();
    if config.trace {
        return traced(config, &work, &grids, planned, tally);
    }
    let options = executor(config);
    let started = Instant::now();
    let mut passes = Vec::new();
    // Start another pass only while it is expected to end within the run.
    while passes.last().is_none_or(|last: &Pass| {
        started.elapsed().as_secs_f64() + last.wall_s <= config.seconds.as_secs_f64()
    }) {
        let pass = sweep_pass(&grids, &options, None)?;
        check_pass(&work, &grids, &pass, &mut tally);
        println!(
            "pass {}: sweep_wall_s {} ({} points solved)",
            passes.len(),
            pass.wall_s,
            pass.solved()
        );
        passes.push(pass);
        setups.between_passes()?;
    }
    let setup_s = setups.median();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.solved() as f64 / p.wall_s)
        .collect();
    let solved = passes[0].solved();
    report::print_latency(
        "point solve latency (first pass)",
        "ms",
        &passes[0].point_latencies_ms(),
    );
    println!(
        "sweep_wall_s = {} s (median of {} passes)",
        median(&walls),
        passes.len()
    );
    println!(
        "skipped_share = {}",
        ratio((planned - solved) as f64, planned as f64)
    );
    println!("failed_share = {}", tally.failed_share());
    let mut outcome = Outcome::end_to_end(tally);
    outcome.set("setup_s", setup_s);
    outcome.set("wall_s", median(&walls));
    outcome.set("rate_per_s", median(&rates));
    Ok(outcome)
}

/// The case, platform and backend of a grid's series, in the executor's
/// series order: case-major, then platform, then backend.
fn series_parts(grid: &SweepGrid, series: usize) -> (&CaseSpec, &PlatformSpec, &SolverSpec) {
    let platforms = grid.platforms().len();
    let backends = grid.backends().len();
    (
        &grid.cases()[series / (platforms * backends)],
        &grid.platforms()[(series / backends) % platforms],
        &grid.backends()[series % backends],
    )
}

fn is_exact(grid: &SweepGrid, series: usize) -> bool {
    matches!(series_parts(grid, series).2, SolverSpec::Exact { .. })
}

/// Stage sums of the cold replay. Its wall time is the tracer's `cold.pass`
/// span, and its solve count and time are the `alloc.solve` spans.
#[derive(Default)]
pub struct ColdReplay {
    pub relax_s: f64,
    pub search_s: f64,
    pub discretize_s: f64,
    pub greedy_s: f64,
    pub factorizations: usize,
    /// Achieved II per (grid, series, point slot), `None` for skipped points.
    pub ii: Vec<Vec<Vec<Option<f64>>>>,
}

/// The traced run's cold pass: every point of every grid solved with
/// `SolveRequest::solve` and no hints, scheduled as the executor schedules a
/// cold sweep (the same work units, claimed in index order by the same
/// number of threads), with a span around each solve.
pub fn cold_replay(
    grids: &[&SweepGrid],
    threads: usize,
    tracer: &mut Tracer,
) -> Result<ColdReplay, String> {
    let mut out = ColdReplay::default();
    let pass_span = tracer.open("cold.pass", None);
    for g in grids {
        let units =
            plan_units(g, ExecutorOptions::default().chunk_size).map_err(|e| e.to_string())?;
        let next = AtomicUsize::new(0);
        let spans = Mutex::new(Vec::new());
        type PointResult = (usize, usize, Option<SolveReport>);
        let results: Mutex<Vec<PointResult>> = Mutex::new(Vec::new());
        let failure: Mutex<Option<String>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (case, platform, backend) = series_parts(g, unit.series);
                        for slot in unit.start..unit.end {
                            let instance = case.problem_at(platform, &g.budgets()[slot]);
                            let mut request = SolveRequest::new(&instance)
                                .backend(backend.to_backend())
                                .skip_policy(g.skip_policy());
                            if let Some(s) = g.point_deadline_seconds() {
                                match Deadline::within_seconds(s) {
                                    Ok(d) => request = request.deadline(d),
                                    Err(e) => *failure.lock().expect("lock") = Some(e.to_string()),
                                }
                            }
                            let t0 = Instant::now();
                            let result = request.solve_point();
                            let t1 = Instant::now();
                            spans.lock().expect("lock").push((t0, t1));
                            match result {
                                Ok(report) => {
                                    results
                                        .lock()
                                        .expect("lock")
                                        .push((unit.series, slot, report))
                                }
                                Err(e) => *failure.lock().expect("lock") = Some(e.to_string()),
                            }
                        }
                    }
                });
            }
        });
        if let Some(err) = failure.into_inner().expect("lock") {
            return Err(format!("cold replay: {err}"));
        }
        for (t0, t1) in spans.into_inner().expect("lock") {
            tracer.record("alloc.solve", Some(pass_span), t0, t1);
        }
        let mut ii = vec![vec![None; g.budgets().len()]; g.num_series()];
        for (series, slot, report) in results.into_inner().expect("lock") {
            let Some(report) = report else { continue };
            let d = &report.diagnostics;
            out.factorizations += d.factorizations;
            if is_exact(g, series) {
                out.search_s += d.timing.discretization.as_secs_f64();
            } else {
                out.relax_s += d.timing.relaxation.as_secs_f64();
                out.discretize_s += d.timing.discretization.as_secs_f64();
                out.greedy_s += d.timing.allocation.as_secs_f64();
            }
            let (case, platform, _) = series_parts(g, series);
            let instance = case.problem_at(platform, &g.budgets()[slot]);
            ii[series][slot] = Some(report.initiation_interval_ms(&instance));
        }
        out.ii.push(ii);
    }
    tracer.close(pass_span);
    Ok(out)
}

/// The wire codec on a sweep's own results: encodes and decodes every
/// series under `wire.encode` and `wire.decode` spans and checks that the
/// round trip gives the points back. Returns the encoded bytes.
pub fn wire_roundtrip<'a>(
    series: impl IntoIterator<Item = &'a SweepSeries>,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<usize, String> {
    let mut bytes = 0;
    for s in series {
        let points: Vec<_> = s.points.iter().copied().map(Some).collect();
        let t0 = Instant::now();
        let encoded = wire::encode_points(&points).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let decoded = wire::decode_points(&encoded).map_err(|e| e.to_string())?;
        tracer.record("wire.encode", None, t0, t1);
        tracer.record("wire.decode", None, t1, Instant::now());
        bytes += encoded.len();
        tally.check(decoded == points);
    }
    Ok(bytes)
}

fn traced(
    config: &Config,
    work: &Workload,
    grids: &[&Grid],
    planned: usize,
    mut tally: Tally,
) -> Result<Outcome, String> {
    let options = executor(config);
    let untraced = sweep_pass(grids, &options, None)?;
    check_pass(work, grids, &untraced, &mut tally);
    println!("full sweep: sweep_wall_s {} s", untraced.wall_s);
    let mut tracer = Tracer::default();
    let pass = sweep_pass(grids, &options, Some(&mut tracer))?;
    check_pass(work, grids, &pass, &mut tally);

    // Effort counters and warm-start use of the traced (warm) sweep.
    let (mut pivots, mut minlp_nodes, mut disc_nodes, mut barrier, mut fact, mut dropped) =
        (0, 0, 0, 0, 0, 0);
    let (mut warm_points, mut solved, mut busy_s) = (0usize, 0usize, 0.0);
    for (grid, series) in grids.iter().zip(&pass.series) {
        for (idx, s) in series.iter().enumerate() {
            let exact = is_exact(&grid.grid, idx);
            for p in &s.points {
                solved += 1;
                busy_s += p.solve_seconds;
                pivots += p.simplex_pivots;
                barrier += p.barrier_iterations;
                fact += p.factorizations;
                dropped += p.dropped_cus as usize;
                if exact {
                    minlp_nodes += p.bb_nodes;
                } else {
                    disc_nodes += p.bb_nodes;
                }
                let w = &p.warm_start;
                warm_points += usize::from(w.ii_hint_used || w.dual_hint_used || w.incumbent_used);
            }
        }
    }

    let wire_bytes = wire_roundtrip(pass.series.iter().flatten(), &mut tracer, &mut tally)?;

    let sweep_grids: Vec<&SweepGrid> = grids.iter().map(|g| &g.grid).collect();
    let cold = cold_replay(&sweep_grids, config.threads, &mut tracer)?;
    // A warm start never changes an answer: the warm sweep's II equals the
    // cold replay's at every point.
    for ((grid, series), cold_ii) in grids.iter().zip(&pass.series).zip(&cold.ii) {
        for (idx, s) in series.iter().enumerate() {
            let cold_points: Vec<f64> = cold_ii[idx].iter().flatten().copied().collect();
            let warm_points: Vec<f64> = s.points.iter().map(|p| p.initiation_interval_ms).collect();
            let ok = cold_points == warm_points;
            if !ok {
                println!(
                    "check failed: {} series {idx} warm II {warm_points:?} != cold II {cold_points:?}",
                    grid.name
                );
            }
            tally.check(ok);
        }
    }
    tracer.print_summary();

    let mut outcome = Outcome::per_layer(tally);
    outcome.set("trace.overhead_s", pass.wall_s - untraced.wall_s);
    outcome.set("linprog.pivots_reported", pivots as f64);
    outcome.set("minlp.bb_nodes", minlp_nodes as f64);
    outcome.set("minlp.search_s", cold.search_s);
    outcome.set("gp.barrier_iterations", barrier as f64);
    outcome.set("linalg.factorizations", fact as f64);
    outcome.set("gp.relax_s", cold.relax_s);
    outcome.set(
        "gp.us_per_factorization",
        1e6 * ratio(cold.relax_s, cold.factorizations as f64),
    );
    outcome.set("discretize.bb_nodes", disc_nodes as f64);
    outcome.set("discretize_s", cold.discretize_s);
    outcome.set("greedy_s", cold.greedy_s);
    outcome.set("greedy.dropped_cus", dropped as f64);
    outcome.set("alloc.solves", tracer.count("alloc.solve") as f64);
    outcome.set("alloc.solve_s", tracer.total("alloc.solve"));
    outcome.set(
        "explore.busy_share",
        ratio(busy_s, config.threads as f64 * pass.wall_s),
    );
    let warm_share = ratio(warm_points as f64, solved as f64);
    outcome.set("explore.warm_share", warm_share);
    outcome.set(
        "explore.warm_over_cold.factorizations",
        ratio(fact as f64, cold.factorizations as f64),
    );
    outcome.set("explore.cold.factorizations", cold.factorizations as f64);
    let cold_wall_s = tracer.total("cold.pass");
    outcome.set(
        "explore.warm_over_cold.wall",
        ratio(untraced.wall_s, cold_wall_s),
    );
    outcome.set("explore.cold.wall_s", cold_wall_s);
    outcome.set("wire.bytes", wire_bytes as f64);
    outcome.set("wire.encode_s", tracer.total("wire.encode"));
    outcome.set("wire.decode_s", tracer.total("wire.decode"));
    outcome.set("mix.hot_hit_share", warm_share);
    outcome.set(
        "mix.cold_miss_share",
        ratio((solved - warm_points) as f64, solved as f64),
    );
    outcome.set(
        "mix.skipped_share",
        ratio((planned - solved) as f64, planned as f64),
    );
    println!(
        "warm over cold: factorizations {fact} / {} , wall {} s / {} s",
        cold.factorizations, untraced.wall_s, cold_wall_s
    );
    println!("linprog.pivots_reported counts the water-filling LPs only: MINLP node LPs are not in SolveDiagnostics.simplex_pivots");
    Ok(outcome)
}
