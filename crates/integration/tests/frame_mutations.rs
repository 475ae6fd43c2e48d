//! Decoders survive mutated input: every frame of the three JSON-lines
//! protocols (dispatcher ↔ worker, client ↔ allocation daemon, client ↔
//! store-server) is truncated, has bytes deleted and substituted, and each
//! mutant must decode to a frame or a `WireError` — never a panic.
//!
//! The frames cover the handshake/control goldens and the payload-heavy
//! round-trip frames: a `solve` carrying a full problem, a `job` carrying a
//! grid, and `result`/`entries`/`put` frames carrying solved points.

use std::panic::{self, AssertUnwindSafe};

use mfa_alloc::cases::PaperCase;
use mfa_alloc::fingerprint::Fingerprint;
use mfa_alloc::gpa::GpaOptions;
use mfa_dispatch::protocol::{FromWorker, ToWorker};
use mfa_explore::store::{GcReport, StoreEntry};
use mfa_explore::wire::Frame;
use mfa_explore::{compute_unit_hinted, CaseSpec, SolverSpec, SweepGrid, UnitOutput, WorkUnit};
use mfa_platform::ResourceBudget;
use mfa_serve::{BackendKind, FromServe, SolveOutcome, StatsReport, ToServe, PROTOCOL_VERSION};
use mfa_storenet::{FromStore, GetQuery, StoreServerStats, ToStore};

/// Mutation positions sampled per frame. Long frames (a full problem, a
/// grid) are sampled evenly, which keeps the debug-build run cheap while
/// still hitting every structural region of the document.
const POSITIONS_PER_FRAME: usize = 512;

/// Bytes substituted at each sampled position: JSON structure, number
/// syntax, a letter, and a byte that breaks UTF-8.
const SUBSTITUTES: [u8; 9] = [b'"', b'{', b'}', b'[', b',', b':', b'-', b'7', 0xFF];

/// Encodes `frame`, checks it round-trips, then decodes every sampled
/// truncation, deletion and substitution of its line. Truncations must fail
/// (a proper prefix of a JSON object is never a document); no mutant may
/// panic. Returns the number of mutants decoded.
fn assert_mutants_never_panic<F: Frame + PartialEq + std::fmt::Debug>(frame: &F) -> usize {
    let line = frame.encode().expect("sample frames encode");
    assert_eq!(&F::decode(&line).expect("sample frames decode"), frame);
    let bytes = line.as_bytes();
    let stride = bytes.len().div_ceil(POSITIONS_PER_FRAME).max(1);
    let decode = |mutant: Vec<u8>, kind: &str, at: usize| {
        let text = String::from_utf8_lossy(&mutant).into_owned();
        panic::catch_unwind(AssertUnwindSafe(|| F::decode(&text).is_ok()))
            .unwrap_or_else(|_| panic!("decoder panicked on a {kind} at byte {at} of {line}"))
    };
    let mut mutants = 0;
    for at in (0..bytes.len()).step_by(stride) {
        assert!(
            !decode(bytes[..at].to_vec(), "truncation", at),
            "truncation at byte {at} decoded: {line}"
        );
        let mut deleted = bytes.to_vec();
        deleted.remove(at);
        decode(deleted, "deletion", at);
        for &byte in &SUBSTITUTES {
            let mut substituted = bytes.to_vec();
            substituted[at] = byte;
            decode(substituted, "substitution", at);
        }
        mutants += 2 + SUBSTITUTES.len();
    }
    mutants
}

fn grid() -> SweepGrid {
    SweepGrid::builder()
        .case(CaseSpec::from_paper(PaperCase::Alex16OnTwoFpgas))
        .fpga_counts([2])
        // 8 % cannot host CONV1, so the unit carries a skipped point too.
        .constraints([0.08, 0.70])
        .backend(SolverSpec::gpa(GpaOptions::fast()))
        .build()
        .unwrap()
}

/// A solved unit: one skipped and one solved point, with warm states.
fn solved_unit(grid: &SweepGrid) -> UnitOutput {
    let unit = WorkUnit {
        series: 0,
        start: 0,
        end: 2,
    };
    let output = compute_unit_hinted(grid, &unit, true, 8, &[]).unwrap();
    assert!(output.points[0].is_none() && output.points[1].is_some());
    output
}

fn outcome() -> SolveOutcome {
    SolveOutcome {
        ii_ms: 0.1 + 0.2,
        backend: "Greedy".into(),
        degraded_from: Some("GP+A".into()),
        cu_counts: vec![3, 1, 4],
        warm_start: "ii+dual".into(),
        cache_hit: true,
        fingerprint: "9a7be84621861e5523aa1fdb34592dd3".into(),
        barrier_iterations: 17,
        bb_nodes: 23,
        solve_ms: 1.5,
        queue_ms: 0.25,
    }
}

#[test]
fn dispatcher_frames_survive_mutation() {
    let grid = grid();
    let output = solved_unit(&grid);
    let warm = output.warms[1].clone().unwrap();
    let mut mutants = 0;
    for frame in [
        ToWorker::Job {
            protocol: PROTOCOL_VERSION,
            warm_start: true,
            grid: grid.clone(),
        },
        ToWorker::Unit {
            id: 7,
            unit: WorkUnit {
                series: 0,
                start: 0,
                end: 2,
            },
            seeds: vec![(ResourceBudget::uniform(0.7), warm)],
        },
        ToWorker::Shutdown,
    ] {
        mutants += assert_mutants_never_panic(&frame);
    }
    for frame in [
        FromWorker::Ready {
            protocol: PROTOCOL_VERSION,
        },
        FromWorker::Result {
            id: 3,
            points: output.points,
            warms: output.warms,
            warm_from_store: 0,
        },
        FromWorker::SolverError {
            id: 4,
            message: "sweep point failed (…): numerical trouble".into(),
        },
    ] {
        mutants += assert_mutants_never_panic(&frame);
    }
    assert!(mutants > 1_000, "{mutants} mutants");
}

#[test]
fn serve_frames_survive_mutation() {
    let mut mutants = 0;
    for frame in [
        ToServe::Hello {
            protocol: PROTOCOL_VERSION,
        },
        ToServe::Solve {
            id: 42,
            problem: PaperCase::Alex16OnTwoFpgas.problem(0.7).unwrap(),
            backend: BackendKind::GpaFast,
            deadline_seconds: Some(0.1 + 0.2),
            warm: true,
        },
        ToServe::Stats { id: 9 },
        ToServe::Shutdown,
    ] {
        mutants += assert_mutants_never_panic(&frame);
    }
    for frame in [
        FromServe::Ready {
            protocol: PROTOCOL_VERSION,
        },
        FromServe::Report {
            id: 1,
            outcome: outcome(),
        },
        FromServe::Report {
            id: 2,
            outcome: SolveOutcome {
                degraded_from: None,
                ..outcome()
            },
        },
        FromServe::Rejected {
            id: 7,
            queue_depth: 64,
            capacity: 64,
        },
        FromServe::Skipped {
            id: 3,
            reason: "infeasible problem: constraint too tight".into(),
        },
        FromServe::Stats {
            id: 6,
            stats: StatsReport {
                served: 12,
                degraded: 1,
                skipped: 2,
                read_timeouts: 1,
                cache_families: 3,
                cache_hits: 6,
                cache_misses: 6,
                hit_rate: 0.5,
                ..StatsReport::default()
            },
        },
        FromServe::Error {
            id: 0,
            message: "malformed frame".into(),
        },
    ] {
        mutants += assert_mutants_never_panic(&frame);
    }
    assert!(mutants > 1_000, "{mutants} mutants");
}

#[test]
fn store_frames_survive_mutation() {
    let grid = grid();
    let output = solved_unit(&grid);
    let series = Fingerprint::of_parts(1, &["series"]);
    let entry = |slot: usize| StoreEntry {
        series,
        budget: ResourceBudget::uniform(0.7),
        point: output.points[slot],
        warm: output.warms[slot].clone().unwrap_or_default(),
    };
    let fp_a = Fingerprint::of_parts(1, &["a"]);
    let fp_b = Fingerprint::of_parts(1, &["b"]);
    let mut mutants = 0;
    for frame in [
        ToStore::Hello {
            protocol: PROTOCOL_VERSION,
            namespace: Some("fig2".into()),
        },
        ToStore::Hello {
            protocol: PROTOCOL_VERSION,
            namespace: None,
        },
        ToStore::Get {
            id: 1,
            query: GetQuery::Points(vec![fp_a, fp_b]),
        },
        ToStore::Get {
            id: 2,
            query: GetQuery::Series(series),
        },
        ToStore::Get {
            id: 3,
            query: GetQuery::All,
        },
        ToStore::Put {
            id: 4,
            entries: vec![(fp_a, entry(0)), (fp_b, entry(1))],
        },
        ToStore::Stats { id: 5 },
        ToStore::Evict { id: 6 },
        ToStore::Shutdown,
    ] {
        mutants += assert_mutants_never_panic(&frame);
    }
    for frame in [
        FromStore::Ready {
            protocol: PROTOCOL_VERSION,
        },
        FromStore::Entries {
            id: 1,
            entries: vec![Some((fp_b, entry(1))), None, Some((fp_a, entry(0)))],
        },
        FromStore::PutOk { id: 4, appended: 2 },
        FromStore::Stats {
            id: 5,
            stats: StoreServerStats {
                namespaces: 2,
                entries: 34,
                segments: 3,
                hits: 10,
                misses: 4,
                puts: 34,
                ..StoreServerStats::default()
            },
        },
        FromStore::Evicted {
            id: 6,
            report: GcReport {
                segments_folded: 2,
                orphans_removed: 1,
                entries_kept: 30,
                duplicates_folded: 4,
                lines_dropped: 0,
            },
        },
        FromStore::Error {
            id: 0,
            message: "no namespace bound".into(),
        },
    ] {
        mutants += assert_mutants_never_panic(&frame);
    }
    assert!(mutants > 1_000, "{mutants} mutants");
}
