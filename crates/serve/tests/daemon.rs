//! End-to-end tests of the allocation daemon over real TCP sessions:
//! graceful degradation, cross-request warm starts, and bounded admission.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use mfa_alloc::cases::PaperCase;
use mfa_alloc::AllocationProblem;
use mfa_serve::{
    BackendKind, FromServe, ServeClient, ServeHandle, ServeOptions, SolveReply, ToServe,
    PROTOCOL_VERSION,
};

fn alex16(constraint: f64) -> AllocationProblem {
    PaperCase::Alex16OnTwoFpgas.problem(constraint).unwrap()
}

fn spawn(options: ServeOptions) -> (ServeHandle, String) {
    let handle = ServeHandle::spawn("127.0.0.1:0", options).unwrap();
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

#[test]
fn near_exhausted_deadlines_degrade_to_greedy_with_provenance() {
    let (handle, addr) = spawn(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(&addr).unwrap();
    // A zero-second budget is exhausted on arrival: a direct solve would die
    // to DeadlineExceeded, but the daemon must downgrade to the greedy
    // backend and still return a real allocation — with the substitution
    // recorded, not silently passed off as GP+A output.
    let reply = client
        .solve(&alex16(0.70), BackendKind::Gpa, Some(0.0), true)
        .unwrap();
    let outcome = match reply {
        SolveReply::Report(outcome) => outcome,
        other => panic!("expected a degraded report, got {other:?}"),
    };
    assert_eq!(outcome.backend, "Greedy");
    assert_eq!(outcome.degraded_from.as_deref(), Some("GP+A"));
    assert!(outcome.ii_ms.is_finite() && outcome.ii_ms > 0.0);
    assert!(!outcome.cu_counts.is_empty());
    let stats = handle.stats();
    assert_eq!(stats.served, 1);
    assert_eq!(stats.degraded, 1);
    handle.stop();
}

#[test]
fn exhausted_deadlines_yield_a_result_on_every_backend() {
    let (handle, addr) = spawn(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(&addr).unwrap();
    for kind in BackendKind::ALL {
        let reply = client
            .solve(&alex16(0.70), kind, Some(0.0), false)
            .unwrap_or_else(|err| panic!("backend {kind:?} errored: {err}"));
        let outcome = match reply {
            SolveReply::Report(outcome) => outcome,
            other => panic!("backend {kind:?}: expected a report, got {other:?}"),
        };
        // Every starved request lands on the greedy fallback: backends other
        // than greedy record the downgrade, greedy itself just runs with the
        // doomed deadline dropped.
        assert_eq!(outcome.backend, "Greedy", "backend {kind:?}");
        if kind == BackendKind::Greedy {
            assert_eq!(outcome.degraded_from, None);
        } else {
            assert!(outcome.degraded_from.is_some(), "backend {kind:?}");
        }
    }
    assert_eq!(handle.stats().served, 4);
    handle.stop();
}

#[test]
fn repeated_requests_hit_the_fingerprint_cache_and_cut_barrier_effort() {
    let (handle, addr) = spawn(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(&addr).unwrap();
    let problem = alex16(0.70);
    let solve = |client: &mut ServeClient| match client
        .solve(&problem, BackendKind::Gpa, None, true)
        .unwrap()
    {
        SolveReply::Report(outcome) => outcome,
        other => panic!("expected a report, got {other:?}"),
    };
    let cold = solve(&mut client);
    assert!(!cold.cache_hit);
    assert!(
        cold.barrier_iterations > 0,
        "GP relaxation must run barriers"
    );
    let warm = solve(&mut client);
    // The identical request maps to the same family fingerprint and budget,
    // so the second solve re-enters the barrier path from the first solve's
    // dual endpoint: strictly fewer iterations than its cold twin.
    assert_eq!(warm.fingerprint, cold.fingerprint);
    assert!(warm.cache_hit);
    assert!(
        warm.barrier_iterations < cold.barrier_iterations,
        "warm {} vs cold {}",
        warm.barrier_iterations,
        cold.barrier_iterations
    );
    // Same answer either way: warm starts accelerate, never change results.
    assert!((warm.ii_ms - cold.ii_ms).abs() < 1e-9);
    handle.stop();
}

#[test]
fn a_full_queue_rejects_with_typed_backpressure() {
    // Zero workers: admitted requests stay queued forever, so the queue
    // state under test is deterministic.
    let (handle, addr) = spawn(ServeOptions {
        workers: 0,
        queue_capacity: 1,
        ..ServeOptions::default()
    });
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let send = |frame: &ToServe| {
        let mut line = frame.encode().unwrap();
        line.push('\n');
        (&stream).write_all(line.as_bytes()).unwrap();
    };
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        FromServe::decode(line.trim_end()).unwrap()
    };
    send(&ToServe::Hello {
        protocol: PROTOCOL_VERSION,
    });
    assert_eq!(
        read(),
        FromServe::Ready {
            protocol: PROTOCOL_VERSION
        }
    );
    let solve = |id: usize| ToServe::Solve {
        id,
        problem: alex16(0.70),
        backend: BackendKind::Greedy,
        deadline_seconds: None,
        warm: false,
    };
    // First request fills the queue (capacity 1, nobody draining)…
    send(&solve(1));
    // …second must bounce with the observed depth and the capacity.
    send(&solve(2));
    assert_eq!(
        read(),
        FromServe::Rejected {
            id: 2,
            queue_depth: 1,
            capacity: 1,
        }
    );
    assert_eq!(handle.stats().rejected, 1);
    drop(stream);
    handle.stop();
}

#[test]
fn malformed_deadlines_are_request_errors_not_panics() {
    let (handle, addr) = spawn(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(&addr).unwrap();
    // NaN/infinite deadlines never encode (the wire codec rejects them), so
    // the hostile case reaching the daemon is a finite-but-huge budget that
    // would overflow Duration/Instant arithmetic.
    let err = client
        .solve(&alex16(0.70), BackendKind::Greedy, Some(1e19), false)
        .unwrap_err();
    assert!(err.to_string().contains("overflows"), "{err}");
    // The session stays usable after a request-level error reply? No — the
    // daemon answers `error` frames and this client surfaces them as
    // ServeError::Server; the connection itself is still open.
    let reply = client
        .solve(&alex16(0.70), BackendKind::Greedy, Some(5.0), false)
        .unwrap();
    assert!(matches!(reply, SolveReply::Report(_)));
    handle.stop();
}

#[test]
fn infeasible_points_are_skipped_not_errors() {
    let (handle, addr) = spawn(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(&addr).unwrap();
    // A 1% uniform constraint cannot even place one CU per kernel: the
    // daemon's lenient policy answers `skipped` with the solver's reason.
    let reply = client
        .solve(&alex16(0.01), BackendKind::Gpa, None, true)
        .unwrap();
    match reply {
        SolveReply::Skipped { reason } => {
            assert!(!reason.is_empty());
        }
        other => panic!("expected skipped, got {other:?}"),
    }
    assert_eq!(handle.stats().skipped, 1);
    handle.stop();
}

#[test]
fn a_shutdown_frame_stops_the_daemon() {
    let (handle, addr) = spawn(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let client = ServeClient::connect(&addr).unwrap();
    client.shutdown().unwrap();
    // The stop flag flips promptly; stop() then joins cleanly.
    for _ in 0..100 {
        if handle.is_stopped() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(handle.is_stopped());
    handle.stop();
}

#[test]
fn stalled_clients_are_timed_out_and_counted() {
    let (handle, addr) = spawn(ServeOptions {
        workers: 1,
        read_timeout: Some(Duration::from_millis(150)),
        ..ServeOptions::default()
    });
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = ToServe::Hello {
        protocol: PROTOCOL_VERSION,
    }
    .encode()
    .unwrap();
    line.push('\n');
    (&stream).write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(
        FromServe::decode(reply.trim_end()).unwrap(),
        FromServe::Ready {
            protocol: PROTOCOL_VERSION
        }
    );
    // Half a frame, then silence: the daemon must reclaim the reader thread
    // instead of waiting forever, answering a typed timeout error first.
    (&stream).write_all(b"{\"type\":\"solve\",\"id\":").unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    match FromServe::decode(reply.trim_end()).unwrap() {
        FromServe::Error { message, .. } => {
            assert!(message.contains("timed out"), "{message}");
        }
        other => panic!("expected a timeout error frame, got {other:?}"),
    }
    // The dropped connection is counted, and the daemon still serves others.
    assert_eq!(handle.stats().read_timeouts, 1);
    let mut client = ServeClient::connect(&addr).unwrap();
    let reply = client
        .solve(&alex16(0.70), BackendKind::Greedy, None, false)
        .unwrap();
    assert!(matches!(reply, SolveReply::Report(_)));
    handle.stop();
}

#[test]
fn pending_replies_hold_off_the_read_timeout() {
    // Zero workers: the admitted request is never answered, standing in for
    // a queue-wait + solve that outlasts any number of timeout windows.
    let (handle, addr) = spawn(ServeOptions {
        workers: 0,
        read_timeout: Some(Duration::from_millis(100)),
        ..ServeOptions::default()
    });
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let send = |frame: &ToServe| {
        let mut line = frame.encode().unwrap();
        line.push('\n');
        (&stream).write_all(line.as_bytes()).unwrap();
    };
    let mut read = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        FromServe::decode(line.trim_end()).unwrap()
    };
    send(&ToServe::Hello {
        protocol: PROTOCOL_VERSION,
    });
    assert_eq!(
        read(),
        FromServe::Ready {
            protocol: PROTOCOL_VERSION
        }
    );
    send(&ToServe::Solve {
        id: 1,
        problem: alex16(0.70),
        backend: BackendKind::Greedy,
        deadline_seconds: None,
        warm: false,
    });
    // The client now blocks on its own reply for several timeout windows.
    // The daemon must keep the connection: the reader is waiting on the
    // solve, not on a stalled client.
    std::thread::sleep(Duration::from_millis(400));
    // Proof of life: the same connection still answers frames, and no
    // timeout drop was counted.
    send(&ToServe::Stats { id: 2 });
    match read() {
        FromServe::Stats { id, .. } => assert_eq!(id, 2),
        other => panic!("expected a stats reply on the live connection, got {other:?}"),
    }
    assert_eq!(handle.stats().read_timeouts, 0);
    drop(stream);
    handle.stop();
}

#[test]
fn stats_frames_report_the_cache_hit_rate() {
    let (handle, addr) = spawn(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(&addr).unwrap();
    let solve = |client: &mut ServeClient| match client
        .solve(&alex16(0.70), BackendKind::Gpa, None, true)
        .unwrap()
    {
        SolveReply::Report(outcome) => outcome,
        other => panic!("expected a report, got {other:?}"),
    };
    assert!(!solve(&mut client).cache_hit);
    assert!(solve(&mut client).cache_hit);
    let stats = client.stats().unwrap();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.cache_families, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert!((stats.hit_rate - 0.5).abs() < 1e-12, "{}", stats.hit_rate);
    assert_eq!(stats.read_timeouts, 0);
    // The in-process accessor answers the same payload.
    assert_eq!(handle.stats_report(), stats);
    handle.stop();
}

fn spill_temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mfa-serve-spill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn gpa_outcome(client: &mut ServeClient, constraint: f64) -> mfa_serve::SolveOutcome {
    match client
        .solve(&alex16(constraint), BackendKind::Gpa, None, true)
        .unwrap()
    {
        SolveReply::Report(outcome) => outcome,
        other => panic!("expected a report, got {other:?}"),
    }
}

#[test]
fn a_restarted_daemon_warms_from_its_spill_directory() {
    let dir = spill_temp_dir("restart");
    let options = || ServeOptions {
        workers: 1,
        spill: Some(dir.display().to_string()),
        ..ServeOptions::default()
    };
    // First daemon lifetime: one cold solve, spilled on record.
    let (handle, addr) = spawn(options());
    let mut client = ServeClient::connect(&addr).unwrap();
    let cold = gpa_outcome(&mut client, 0.70);
    assert!(!cold.cache_hit);
    assert!(cold.barrier_iterations > 0);
    handle.stop();

    // Second lifetime, fresh process state, same spill dir: the repeated
    // request re-enters the barrier from the spilled dual endpoint — a
    // cache hit with strictly fewer iterations than the cold solve, not a
    // second cold start. (Barrier iterations are machine-independent effort,
    // so "strictly fewer" is a stable contract.)
    let (handle, addr) = spawn(options());
    let mut client = ServeClient::connect(&addr).unwrap();
    let warm = gpa_outcome(&mut client, 0.70);
    assert_eq!(warm.fingerprint, cold.fingerprint);
    assert!(warm.cache_hit, "restart-warm lookup must hit the spill");
    assert!(
        warm.barrier_iterations < cold.barrier_iterations,
        "warm {} vs cold {}",
        warm.barrier_iterations,
        cold.barrier_iterations
    );
    assert!((warm.ii_ms - cold.ii_ms).abs() < 1e-9);
    handle.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn daemons_sharing_a_store_server_see_each_others_families() {
    let root = spill_temp_dir("shared");
    let store = mfa_storenet::StoreServer::spawn("127.0.0.1:0", root.clone()).unwrap();
    let spill = format!("tcp://{}", store.local_addr());
    let options = || ServeOptions {
        workers: 1,
        spill: Some(spill.clone()),
        ..ServeOptions::default()
    };
    let (first, first_addr) = spawn(options());
    let (second, second_addr) = spawn(options());

    // Daemon one pays the cold solve and spills it to the store-server…
    let mut client = ServeClient::connect(&first_addr).unwrap();
    let cold = gpa_outcome(&mut client, 0.70);
    assert!(!cold.cache_hit);

    // …so daemon two — which never saw this family — warms from it.
    let mut client = ServeClient::connect(&second_addr).unwrap();
    let warm = gpa_outcome(&mut client, 0.70);
    assert_eq!(warm.fingerprint, cold.fingerprint);
    assert!(
        warm.cache_hit,
        "the shared store must seed the second daemon"
    );
    assert!(
        warm.barrier_iterations < cold.barrier_iterations,
        "warm {} vs cold {}",
        warm.barrier_iterations,
        cold.barrier_iterations
    );
    assert!((warm.ii_ms - cold.ii_ms).abs() < 1e-9);

    first.stop();
    second.stop();
    store.stop();
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn oversized_frames_are_refused_and_counted() {
    let (handle, addr) = spawn(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut stream = TcpStream::connect(&addr).unwrap();
    // A daemon without the cap would wait for more bytes: fail, not hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // A peer streaming bytes without a newline must not grow the daemon's
    // memory without limit: one byte past the cap it answers a typed error
    // and drops the connection.
    let chunk = vec![b'x'; 1 << 20];
    let mut left = mfa_dispatch::daemon::MAX_FRAME_BYTES + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        stream.write_all(&chunk[..n]).unwrap();
        left -= n;
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match FromServe::decode(reply.trim_end()).unwrap() {
        FromServe::Error { id, message } => {
            assert_eq!(id, 0);
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected an oversized-frame error, got {other:?}"),
    }
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).unwrap(), 0, "expected EOF");
    assert_eq!(handle.stats().decode_errors, 1);
    // A fresh connection is still served.
    let mut client = ServeClient::connect(&addr).unwrap();
    let reply = client
        .solve(&alex16(0.70), BackendKind::Greedy, None, false)
        .unwrap();
    assert!(matches!(reply, SolveReply::Report(_)));
    handle.stop();
}
