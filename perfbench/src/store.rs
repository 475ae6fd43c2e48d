//! The `store-sweep` workload: a large, cheap grid populated by two
//! sweep-worker processes into a loopback store-server, then replayed from
//! it with nothing recomputed.

use std::path::PathBuf;
use std::time::Instant;

use mfa_alloc::cases::PaperCase;
use mfa_alloc::fingerprint::Fingerprint;
use mfa_alloc::gpa::GpaOptions;
use mfa_dispatch::{run_sweep_sharded_stored, DispatchOptions, WorkerSpec};
use mfa_explore::{
    run_sweep_stored, CaseSpec, ExecutorOptions, ExploreError, ResultStore, SolverSpec, StoreEntry,
    SweepGrid, SweepSeries,
};
use mfa_storenet::{RemoteStore, StoreServer};

use crate::report::{self, median, ratio, Outcome, SetupTimer, Tally};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::worker::WorkerProcess;
use crate::Config;

/// Budget points per series: 9 series make the grid 2,250 points.
const POINTS_PER_SERIES: usize = 250;
/// Budget points per work unit, in populate and replay alike. Every unit is
/// one store put, fsynced by the server: with the default 8 points per unit
/// the populate time followed the disk's fsync latency, which moved by half
/// between runs.
const CHUNK_SIZE: usize = 32;
/// Scratch space for the store-server, under the directory the benchmark
/// runs from.
const SCRATCH_DIR: &str = ".perfbench_tmp";

struct Setup {
    server: Option<StoreServer>,
    workers: Vec<WorkerProcess>,
    grid: SweepGrid,
    dir: PathBuf,
}

impl Setup {
    fn addr(&self) -> String {
        self.server
            .as_ref()
            .expect("server runs until teardown")
            .local_addr()
            .to_string()
    }

    fn worker_specs(&self) -> Vec<WorkerSpec> {
        self.workers
            .iter()
            .map(|w| WorkerSpec::Connect {
                addr: w.addr.clone(),
            })
            .collect()
    }

    fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        self.workers.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The grid: the three paper cases × FPGA counts {2, 4, 8} × jittered
/// constraints from 30 % to 90 %, GP+A with the bisection relaxation. The
/// seed jitters the budgets within their grid steps. It does not reorder
/// the axes: the order decides which units the two workers finish last,
/// which moved the populate time by a fifth between seeds.
fn grid(seed: u64) -> Result<SweepGrid, String> {
    let mut rng = Rng::new(seed);
    let step = 0.60 / POINTS_PER_SERIES as f64;
    let constraints: Vec<f64> = (0..POINTS_PER_SERIES)
        .map(|i| 0.30 + step * (i as f64 + 0.25 + 0.5 * rng.unit()))
        .collect();
    SweepGrid::builder()
        .cases(PaperCase::all().into_iter().map(CaseSpec::from_paper))
        .fpga_counts([2, 4, 8])
        .constraints(constraints)
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .build()
        .map_err(|e| e.to_string())
}

fn setup(config: &Config, index: usize) -> Result<Setup, String> {
    let dir = PathBuf::from(SCRATCH_DIR).join(format!("store-{}-{index}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = StoreServer::spawn("127.0.0.1:0", &dir).map_err(|e| e.to_string())?;
    let mut setup = Setup {
        server: Some(server),
        workers: Vec::new(),
        grid: grid(config.seed)?,
        dir,
    };
    for _ in 0..config.threads {
        match WorkerProcess::spawn() {
            Ok(worker) => setup.workers.push(worker),
            Err(err) => {
                setup.teardown();
                return Err(err);
            }
        }
    }
    Ok(setup)
}

/// A `ResultStore` that times every call into the store it wraps.
struct TimingStore<'a> {
    inner: RemoteStore,
    tracer: &'a mut Tracer,
    parent: Option<usize>,
}

impl TimingStore<'_> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut RemoteStore) -> T) -> T {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.tracer.record(name, self.parent, start, Instant::now());
        out
    }
}

impl ResultStore for TimingStore<'_> {
    fn get_many(&mut self, fps: &[Fingerprint]) -> Result<Vec<Option<StoreEntry>>, ExploreError> {
        self.timed("store.get", |s| s.get_many(fps))
    }

    fn get_series(
        &mut self,
        series: &Fingerprint,
    ) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError> {
        self.timed("store.get", |s| s.get_series(series))
    }

    fn snapshot(&mut self) -> Result<Vec<(Fingerprint, StoreEntry)>, ExploreError> {
        self.timed("store.get", |s| s.snapshot())
    }

    fn put(&mut self, entries: Vec<(Fingerprint, StoreEntry)>) -> Result<(), ExploreError> {
        self.timed("store.put", |s| s.put(entries))
    }

    fn corrupt_count(&self) -> usize {
        self.inner.corrupt_count()
    }

    fn version_mismatch_count(&self) -> usize {
        self.inner.version_mismatch_count()
    }
}

struct Pass {
    populate_s: f64,
    replay_s: f64,
    populated: Vec<SweepSeries>,
    units_computed: usize,
}

/// Populates a fresh namespace through the workers, then replays it; checks
/// that the replay computed nothing and equals the populated series.
fn pass(
    setup: &Setup,
    namespace: &str,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let planned = setup.grid.num_points();
    let addr = setup.addr();
    let connect = || RemoteStore::connect(&addr, namespace).map_err(|e| e.to_string());
    let dispatch = DispatchOptions {
        chunk_size: CHUNK_SIZE,
        ..DispatchOptions::default()
    };
    let executor = ExecutorOptions {
        num_threads: Some(setup.workers.len()),
        chunk_size: CHUNK_SIZE,
        ..ExecutorOptions::default()
    };

    let t0 = Instant::now();
    let (populated, report) = match tracer.as_deref_mut() {
        None => run_sweep_sharded_stored(
            &setup.grid,
            &setup.worker_specs(),
            &dispatch,
            &mut connect()?,
        ),
        Some(tracer) => {
            let span = tracer.open("dispatch.populate", None);
            let mut store = TimingStore {
                inner: connect()?,
                tracer,
                parent: Some(span),
            };
            let out =
                run_sweep_sharded_stored(&setup.grid, &setup.worker_specs(), &dispatch, &mut store);
            store.tracer.close(span);
            out
        }
    }
    .map_err(|e| format!("populate: {e}"))?;
    let populate_s = t0.elapsed().as_secs_f64();
    tally.check(report.points_computed == planned && report.points_replayed == 0);

    let t1 = Instant::now();
    let (replayed, replay_report) = match tracer {
        None => run_sweep_stored(&setup.grid, &executor, &mut connect()?),
        Some(tracer) => {
            let span = tracer.open("explore.replay", None);
            let mut store = TimingStore {
                inner: connect()?,
                tracer,
                parent: Some(span),
            };
            let out = run_sweep_stored(&setup.grid, &executor, &mut store);
            store.tracer.close(span);
            out
        }
    }
    .map_err(|e| format!("replay: {e}"))?;
    let replay_s = t1.elapsed().as_secs_f64();
    let ok = replay_report.points_computed == 0 && replayed == populated;
    if !ok {
        println!(
            "check failed: replay computed {} points or differs from the populated series",
            replay_report.points_computed
        );
    }
    tally.check(ok);
    Ok(Pass {
        populate_s,
        replay_s,
        populated,
        units_computed: report.units_computed,
    })
}

fn point_latencies_ms(series: &[SweepSeries]) -> Vec<f64> {
    series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.solve_seconds * 1e3))
        .collect()
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let (setup, mut setups) = SetupTimer::start(|index| setup(config, index), Setup::teardown)?;
    println!(
        "set-up: {} planned points, {} sweep workers",
        setup.grid.num_points(),
        setup.workers.len()
    );
    let result = if config.trace {
        traced(config, &setup)
    } else {
        measured(config, &setup, &mut setups)
    };
    setup.teardown();
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    result
}

fn measured<M, D>(
    config: &Config,
    setup: &Setup,
    setups: &mut SetupTimer<M, D>,
) -> Result<Outcome, String>
where
    M: FnMut(usize) -> Result<Setup, String>,
    D: FnMut(Setup),
{
    let planned = setup.grid.num_points() as f64;
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut passes = Vec::new();
    // Start another pass only while it is expected to end within the run.
    while passes.last().is_none_or(|last: &Pass| {
        started.elapsed().as_secs_f64() + last.populate_s + last.replay_s
            <= config.seconds.as_secs_f64()
    }) {
        let p = pass(setup, &format!("pass-{}", passes.len()), &mut tally, None)?;
        println!(
            "pass {}: populate {} s ({} pts/s), replay {} s ({} pts/s)",
            passes.len(),
            p.populate_s,
            planned / p.populate_s,
            p.replay_s,
            planned / p.replay_s
        );
        passes.push(p);
        setups.between_passes()?;
    }
    let setup_s = setups.median();
    let populate: Vec<f64> = passes.iter().map(|p| p.populate_s).collect();
    let replay_rates: Vec<f64> = passes.iter().map(|p| planned / p.replay_s).collect();
    let solved: usize = passes[0].populated.iter().map(|s| s.points.len()).sum();
    report::print_latency(
        "point solve latency (first pass)",
        "ms",
        &point_latencies_ms(&passes[0].populated),
    );
    println!(
        "store_populate_pts_per_s = {} pts/s",
        planned / median(&populate)
    );
    println!("store_replay_pts_per_s = {} pts/s", median(&replay_rates));
    println!(
        "skipped_share = {}",
        ratio(planned - solved as f64, planned)
    );
    println!("failed_share = {}", tally.failed_share());
    let mut outcome = Outcome::end_to_end(tally);
    outcome.set("setup_s", setup_s);
    outcome.set("wall_s", median(&populate));
    outcome.set("rate_per_s", median(&replay_rates));
    Ok(outcome)
}

fn traced(config: &Config, setup: &Setup) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let planned = setup.grid.num_points();
    let untraced = pass(setup, "untraced", &mut tally, None)?;
    let server = setup.server.as_ref().expect("server runs until teardown");
    let before = server.stats();
    let mut tracer = Tracer::default();
    let traced = pass(setup, "traced", &mut tally, Some(&mut tracer))?;
    let after = server.stats();

    let bytes = crate::dse::wire_roundtrip(&traced.populated, &mut tracer, &mut tally)?;
    let cold = crate::dse::cold_replay(&[&setup.grid], config.threads, &mut tracer)?;
    tracer.print_summary();

    let (mut busy_s, mut fact, mut nodes, mut dropped, mut pivots, mut warm, mut solved) =
        (0.0, 0, 0, 0, 0, 0, 0);
    for p in traced.populated.iter().flat_map(|s| &s.points) {
        solved += 1;
        busy_s += p.solve_seconds;
        fact += p.factorizations;
        nodes += p.bb_nodes;
        dropped += p.dropped_cus as usize;
        pivots += p.simplex_pivots;
        let w = &p.warm_start;
        warm += usize::from(w.ii_hint_used || w.dual_hint_used || w.incumbent_used);
    }
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let mut outcome = Outcome::per_layer(tally);
    outcome.set(
        "trace.overhead_s",
        (traced.populate_s + traced.replay_s) - (untraced.populate_s + untraced.replay_s),
    );
    outcome.set("linprog.pivots_reported", pivots as f64);
    outcome.set("linalg.factorizations", fact as f64);
    outcome.set("gp.relax_s", cold.relax_s);
    outcome.set(
        "gp.us_per_factorization",
        1e6 * ratio(cold.relax_s, cold.factorizations as f64),
    );
    outcome.set("discretize.bb_nodes", nodes as f64);
    outcome.set("discretize_s", cold.discretize_s);
    outcome.set("greedy_s", cold.greedy_s);
    outcome.set("greedy.dropped_cus", dropped as f64);
    outcome.set("alloc.solves", tracer.count("alloc.solve") as f64);
    outcome.set("alloc.solve_s", tracer.total("alloc.solve"));
    outcome.set(
        "explore.busy_share",
        ratio(busy_s, setup.workers.len() as f64 * traced.populate_s),
    );
    outcome.set("explore.warm_share", ratio(warm as f64, solved as f64));
    outcome.set("wire.bytes", bytes as f64);
    outcome.set("wire.encode_s", tracer.total("wire.encode"));
    outcome.set("wire.decode_s", tracer.total("wire.decode"));
    outcome.set("store.get_calls", tracer.count("store.get") as f64);
    outcome.set("store.get_s", tracer.total("store.get"));
    outcome.set("store.put_calls", tracer.count("store.put") as f64);
    outcome.set("store.put_s", tracer.total("store.put"));
    outcome.set("store.hits", hits as f64);
    outcome.set("store.misses", misses as f64);
    outcome.set("store.puts", (after.puts - before.puts) as f64);
    outcome.set("store.corrupt", after.corrupt_entries as f64);
    outcome.set("dispatch.populate_s", tracer.total("dispatch.populate"));
    outcome.set("dispatch.units", traced.units_computed as f64);
    outcome.set(
        "mix.hot_hit_share",
        ratio(hits as f64, (hits + misses) as f64),
    );
    outcome.set(
        "mix.cold_miss_share",
        ratio(misses as f64, (hits + misses) as f64),
    );
    outcome.set(
        "mix.skipped_share",
        ratio((planned - solved) as f64, planned as f64),
    );
    println!(
        "populate {} s, replay {} s; store-server hits {hits} misses {misses}",
        traced.populate_s, traced.replay_s
    );
    Ok(outcome)
}
