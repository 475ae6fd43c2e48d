//! The JSON-lines session protocol between allocation clients and the
//! `serve` daemon.
//!
//! Every frame is one compact JSON object on one `\n`-terminated line with a
//! `"type"` tag, exactly like the sweep dispatcher's frames
//! ([`mfa_dispatch::protocol`]); the two frame families share one version
//! constant ([`PROTOCOL_VERSION`]) so any incompatible change to either is a
//! single bump visible to every JSON-lines peer in the workspace. Framing
//! ([`wire::Frame`], [`wire::write_frame`]), field readers and payload codecs come
//! from [`mfa_explore::wire`], so floats round-trip bit-for-bit and NaNs are
//! rejected at the edge.
//!
//! Session shape (the client is always the initiator):
//!
//! ```text
//! client → daemon   {"type":"hello","protocol":5}
//! daemon → client   {"type":"ready","protocol":5}
//! client → daemon   {"type":"solve","id":1,"backend":"gpa","warm":true,
//!                    "deadline_seconds":0.25,"problem":{…}}     (repeated)
//! daemon → client   {"type":"report","id":1,"outcome":{…}}      (success)
//!                   {"type":"rejected","id":2,"queue_depth":64,
//!                    "capacity":64}                             (queue full)
//!                   {"type":"skipped","id":3,"reason":"…"}      (no solution)
//!                   {"type":"error","id":4,"message":"…"}       (bad request)
//! client → daemon   {"type":"stats","id":5}
//! daemon → client   {"type":"stats","id":5,"served":…,"hit_rate":…}
//! client → daemon   {"type":"shutdown"}
//! ```
//!
//! Replies carry the request's `id` because the daemon solves admitted
//! requests on a worker pool: replies to one connection may interleave out
//! of submission order when several requests are in flight.

use mfa_alloc::AllocationProblem;
use mfa_explore::json::Json;
use mfa_explore::wire::{
    self, bool_field, f64_field, field, num, parse_line, str_field, type_tag, usize_field,
    WireError,
};

/// Solver backend selection carried by `solve` frames: the four entries of
/// the built-in [`Backend`](mfa_alloc::Backend) registry, each with its
/// default options. Wire labels are lowercase and stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// [`mfa_alloc::Backend::gpa`] — the paper's GP+A heuristic.
    Gpa,
    /// [`mfa_alloc::Backend::gpa_fast`] — GP+A with the bisection relaxation.
    GpaFast,
    /// [`mfa_alloc::Backend::greedy`] — the cheap serving fallback.
    Greedy,
    /// [`mfa_alloc::Backend::exact`] — the exact MINLP.
    Exact,
}

impl BackendKind {
    /// Every backend kind, in wire-label order (useful for sweeping tests
    /// and CLI help text).
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Gpa,
        BackendKind::GpaFast,
        BackendKind::Greedy,
        BackendKind::Exact,
    ];

    /// The stable lowercase label used on the wire and by the CLIs.
    pub fn wire_label(self) -> &'static str {
        match self {
            BackendKind::Gpa => "gpa",
            BackendKind::GpaFast => "gpa-fast",
            BackendKind::Greedy => "greedy",
            BackendKind::Exact => "exact",
        }
    }

    /// Parses a [`wire_label`](Self::wire_label).
    pub fn from_wire_label(label: &str) -> Option<Self> {
        match label {
            "gpa" => Some(BackendKind::Gpa),
            "gpa-fast" => Some(BackendKind::GpaFast),
            "greedy" => Some(BackendKind::Greedy),
            "exact" => Some(BackendKind::Exact),
            _ => None,
        }
    }

    /// Resolves the kind to the registry [`Backend`](mfa_alloc::Backend)
    /// with its default options.
    pub fn backend(self) -> mfa_alloc::Backend {
        match self {
            BackendKind::Gpa => mfa_alloc::Backend::gpa(),
            BackendKind::GpaFast => mfa_alloc::Backend::gpa_fast(),
            BackendKind::Greedy => mfa_alloc::Backend::greedy(),
            BackendKind::Exact => mfa_alloc::Backend::exact(),
        }
    }
}

/// The result payload of a `report` frame: the solved allocation's headline
/// metrics plus full serving provenance — which backend actually ran,
/// whether the daemon degraded the request, and what the warm-start cache
/// contributed.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Achieved initiation interval in milliseconds.
    pub ii_ms: f64,
    /// Name of the backend that served the request (the *substituted*
    /// backend when the daemon degraded).
    pub backend: String,
    /// Label of the originally requested backend when the daemon downgraded
    /// the request to a cheaper one (deadline-aware graceful degradation);
    /// `None` when the request ran as asked.
    pub degraded_from: Option<String>,
    /// Final integer CU counts per kernel.
    pub cu_counts: Vec<u32>,
    /// Warm-start provenance label of the solve (see
    /// [`mfa_alloc::solver::WarmStartReport::provenance`]).
    pub warm_start: String,
    /// `true` when the daemon's fingerprint-keyed cache supplied a
    /// warm-start hint for this solve.
    pub cache_hit: bool,
    /// Hex digest of the request's cache family (problem content with the
    /// budget erased, plus the served backend label).
    pub fingerprint: String,
    /// Interior-point barrier iterations spent (machine-independent effort).
    pub barrier_iterations: usize,
    /// Branch-and-bound nodes visited.
    pub bb_nodes: usize,
    /// Wall-clock milliseconds the solve itself took.
    pub solve_ms: f64,
    /// Wall-clock milliseconds the request waited in the admission queue.
    pub queue_ms: f64,
}

/// The payload of a daemon `stats` reply: the serving counters plus the
/// warm-start cache's effectiveness, so operators can watch the hit rate a
/// shared spill store buys without scraping the daemon's exit line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsReport {
    /// Requests answered with a report frame.
    pub served: usize,
    /// Served requests that ran on a downgraded backend.
    pub degraded: usize,
    /// Requests refused at admission because the queue was full.
    pub rejected: usize,
    /// Requests answered as skipped (no solution under the lenient policy).
    pub skipped: usize,
    /// Client lines that failed to decode.
    pub decode_errors: usize,
    /// Connections dropped by the per-request read timeout.
    pub read_timeouts: usize,
    /// Request families currently held by the warm-start cache.
    pub cache_families: usize,
    /// Cache lookups answered with a warm start.
    pub cache_hits: usize,
    /// Cache lookups answered empty.
    pub cache_misses: usize,
    /// Families evicted by the cache's LRU policy.
    pub cache_evictions: usize,
    /// `cache_hits / (cache_hits + cache_misses)`, `0.0` before any lookup.
    pub hit_rate: f64,
}

/// A frame sent from a client to the daemon.
//
// `Solve` dwarfs the other variants because it carries the full problem —
// but solve frames *are* the traffic, so boxing would add an allocation to
// the common case to slim the rare ones.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ToServe {
    /// Opens a session; the daemon answers with [`FromServe::Ready`] or
    /// closes the connection on version skew.
    Hello {
        /// Protocol version of the client.
        protocol: usize,
    },
    /// One allocation request.
    Solve {
        /// Client-chosen request id, echoed on the reply.
        id: usize,
        /// The full allocation problem (kernels, platform, budget, weights).
        problem: AllocationProblem,
        /// Which registry backend to run.
        backend: BackendKind,
        /// Wall-clock budget in seconds, measured from admission. `None`
        /// runs without a deadline.
        deadline_seconds: Option<f64>,
        /// Whether the daemon may warm-start this solve from its
        /// fingerprint-keyed cache (and record the result back into it).
        warm: bool,
    },
    /// Asks for the daemon's serving and cache counters.
    Stats {
        /// Client-chosen request id, echoed on the reply.
        id: usize,
    },
    /// Stops the daemon (all connections, not just this session).
    Shutdown,
}

/// A frame sent from the daemon to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum FromServe {
    /// Acknowledges [`ToServe::Hello`].
    Ready {
        /// Protocol version of the daemon.
        protocol: usize,
    },
    /// A solved request.
    Report {
        /// Request id being answered.
        id: usize,
        /// The result payload.
        outcome: SolveOutcome,
    },
    /// The admission queue was full; the request was not solved. The client
    /// may retry after backing off.
    Rejected {
        /// Request id being answered.
        id: usize,
        /// Queue occupancy observed at rejection time.
        queue_depth: usize,
        /// The daemon's configured queue capacity.
        capacity: usize,
    },
    /// The problem has no solution at this point (infeasible constraint,
    /// unplaceable discretization) under the daemon's lenient skip policy.
    Skipped {
        /// Request id being answered.
        id: usize,
        /// Display form of the underlying solver error.
        reason: String,
    },
    /// Answers a [`ToServe::Stats`].
    Stats {
        /// Request id being answered.
        id: usize,
        /// The counters.
        stats: StatsReport,
    },
    /// The request itself was broken (malformed deadline, non-skippable
    /// solver failure).
    Error {
        /// Request id being answered (0 when the frame could not be decoded
        /// far enough to learn it).
        id: usize,
        /// What went wrong.
        message: String,
    },
}

/// Protocol version of the serve session frames — shared with the sweep
/// dispatcher (see [`mfa_dispatch::protocol::PROTOCOL_VERSION`], which
/// documents the version history).
pub use mfa_dispatch::protocol::PROTOCOL_VERSION;

fn outcome_to_json(outcome: &SolveOutcome) -> Result<Json, WireError> {
    let degraded_from = match &outcome.degraded_from {
        Some(label) => Json::str(label.as_str()),
        None => Json::Null,
    };
    Ok(Json::obj(vec![
        ("ii_ms", num("ii_ms", outcome.ii_ms)?),
        ("backend", Json::str(outcome.backend.as_str())),
        ("degraded_from", degraded_from),
        (
            "cu_counts",
            Json::Arr(
                outcome
                    .cu_counts
                    .iter()
                    .map(|&n| Json::Num(f64::from(n)))
                    .collect(),
            ),
        ),
        ("warm_start", Json::str(outcome.warm_start.as_str())),
        ("cache_hit", Json::Bool(outcome.cache_hit)),
        ("fingerprint", Json::str(outcome.fingerprint.as_str())),
        (
            "barrier_iterations",
            Json::Num(outcome.barrier_iterations as f64),
        ),
        ("bb_nodes", Json::Num(outcome.bb_nodes as f64)),
        ("solve_ms", num("solve_ms", outcome.solve_ms)?),
        ("queue_ms", num("queue_ms", outcome.queue_ms)?),
    ]))
}

fn outcome_from_json(doc: &Json) -> Result<SolveOutcome, WireError> {
    let degraded_from = match field(doc, "degraded_from")? {
        Json::Null => None,
        other => Some(
            other
                .as_str()
                .ok_or_else(|| {
                    WireError::Schema("'degraded_from' must be a string or null".into())
                })?
                .to_owned(),
        ),
    };
    let cu_counts = wire::arr_field(doc, "cu_counts")?
        .iter()
        .map(|item| {
            let raw = item
                .as_f64()
                .ok_or_else(|| WireError::Schema("cu_counts entries must be numbers".into()))?;
            if raw < 0.0 || raw.fract() != 0.0 || raw > f64::from(u32::MAX) {
                return Err(WireError::Invalid(format!(
                    "cu_counts entry {raw} is not a u32"
                )));
            }
            Ok(raw as u32)
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(SolveOutcome {
        ii_ms: f64_field(doc, "ii_ms")?,
        backend: str_field(doc, "backend")?.to_owned(),
        degraded_from,
        cu_counts,
        warm_start: str_field(doc, "warm_start")?.to_owned(),
        cache_hit: bool_field(doc, "cache_hit")?,
        fingerprint: str_field(doc, "fingerprint")?.to_owned(),
        barrier_iterations: usize_field(doc, "barrier_iterations")?,
        bb_nodes: usize_field(doc, "bb_nodes")?,
        solve_ms: f64_field(doc, "solve_ms")?,
        queue_ms: f64_field(doc, "queue_ms")?,
    })
}

impl ToServe {
    /// Encodes the frame as one JSON line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::NonFinite`] when the problem or deadline carries
    /// a NaN/infinite float.
    pub fn encode(&self) -> Result<String, WireError> {
        let doc = match self {
            ToServe::Hello { protocol } => Json::obj(vec![
                ("type", Json::str("hello")),
                ("protocol", Json::Num(*protocol as f64)),
            ]),
            ToServe::Solve {
                id,
                problem,
                backend,
                deadline_seconds,
                warm,
            } => {
                let deadline = match deadline_seconds {
                    Some(seconds) => num("deadline_seconds", *seconds)?,
                    None => Json::Null,
                };
                Json::obj(vec![
                    ("type", Json::str("solve")),
                    ("id", Json::Num(*id as f64)),
                    ("backend", Json::str(backend.wire_label())),
                    ("warm", Json::Bool(*warm)),
                    ("deadline_seconds", deadline),
                    ("problem", wire::problem_to_json(problem)?),
                ])
            }
            ToServe::Stats { id } => Json::obj(vec![
                ("type", Json::str("stats")),
                ("id", Json::Num(*id as f64)),
            ]),
            ToServe::Shutdown => Json::obj(vec![("type", Json::str("shutdown"))]),
        };
        Ok(doc.to_string())
    }

    /// Decodes one client→daemon line.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, unknown frame types, or
    /// invalid payloads.
    pub fn decode(line: &str) -> Result<ToServe, WireError> {
        let doc = parse_line(line)?;
        match type_tag(&doc)? {
            "hello" => Ok(ToServe::Hello {
                protocol: usize_field(&doc, "protocol")?,
            }),
            "solve" => {
                let backend = str_field(&doc, "backend")?;
                let backend = BackendKind::from_wire_label(backend).ok_or_else(|| {
                    WireError::Schema(format!("unknown backend kind '{backend}'"))
                })?;
                let deadline_seconds = match field(&doc, "deadline_seconds")? {
                    Json::Null => None,
                    other => Some(other.as_f64().ok_or_else(|| {
                        WireError::Schema("'deadline_seconds' must be a number or null".into())
                    })?),
                };
                Ok(ToServe::Solve {
                    id: usize_field(&doc, "id")?,
                    problem: wire::problem_from_json(field(&doc, "problem")?)?,
                    backend,
                    deadline_seconds,
                    warm: bool_field(&doc, "warm")?,
                })
            }
            "stats" => Ok(ToServe::Stats {
                id: usize_field(&doc, "id")?,
            }),
            "shutdown" => Ok(ToServe::Shutdown),
            other => Err(WireError::Schema(format!(
                "unknown client frame type '{other}'"
            ))),
        }
    }
}

impl FromServe {
    /// Encodes the frame as one JSON line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::NonFinite`] when the outcome carries a
    /// NaN/infinite float.
    pub fn encode(&self) -> Result<String, WireError> {
        let doc = match self {
            FromServe::Ready { protocol } => Json::obj(vec![
                ("type", Json::str("ready")),
                ("protocol", Json::Num(*protocol as f64)),
            ]),
            FromServe::Report { id, outcome } => Json::obj(vec![
                ("type", Json::str("report")),
                ("id", Json::Num(*id as f64)),
                ("outcome", outcome_to_json(outcome)?),
            ]),
            FromServe::Rejected {
                id,
                queue_depth,
                capacity,
            } => Json::obj(vec![
                ("type", Json::str("rejected")),
                ("id", Json::Num(*id as f64)),
                ("queue_depth", Json::Num(*queue_depth as f64)),
                ("capacity", Json::Num(*capacity as f64)),
            ]),
            FromServe::Skipped { id, reason } => Json::obj(vec![
                ("type", Json::str("skipped")),
                ("id", Json::Num(*id as f64)),
                ("reason", Json::str(reason.as_str())),
            ]),
            FromServe::Stats { id, stats } => Json::obj(vec![
                ("type", Json::str("stats")),
                ("id", Json::Num(*id as f64)),
                ("served", Json::Num(stats.served as f64)),
                ("degraded", Json::Num(stats.degraded as f64)),
                ("rejected", Json::Num(stats.rejected as f64)),
                ("skipped", Json::Num(stats.skipped as f64)),
                ("decode_errors", Json::Num(stats.decode_errors as f64)),
                ("read_timeouts", Json::Num(stats.read_timeouts as f64)),
                ("cache_families", Json::Num(stats.cache_families as f64)),
                ("cache_hits", Json::Num(stats.cache_hits as f64)),
                ("cache_misses", Json::Num(stats.cache_misses as f64)),
                ("cache_evictions", Json::Num(stats.cache_evictions as f64)),
                ("hit_rate", num("hit_rate", stats.hit_rate)?),
            ]),
            FromServe::Error { id, message } => Json::obj(vec![
                ("type", Json::str("error")),
                ("id", Json::Num(*id as f64)),
                ("message", Json::str(message.as_str())),
            ]),
        };
        Ok(doc.to_string())
    }

    /// Decodes one daemon→client line.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed JSON, unknown frame types, or
    /// invalid payloads — a client treats any of these as a broken session.
    pub fn decode(line: &str) -> Result<FromServe, WireError> {
        let doc = parse_line(line)?;
        match type_tag(&doc)? {
            "ready" => Ok(FromServe::Ready {
                protocol: usize_field(&doc, "protocol")?,
            }),
            "report" => Ok(FromServe::Report {
                id: usize_field(&doc, "id")?,
                outcome: outcome_from_json(field(&doc, "outcome")?)?,
            }),
            "rejected" => Ok(FromServe::Rejected {
                id: usize_field(&doc, "id")?,
                queue_depth: usize_field(&doc, "queue_depth")?,
                capacity: usize_field(&doc, "capacity")?,
            }),
            "skipped" => Ok(FromServe::Skipped {
                id: usize_field(&doc, "id")?,
                reason: str_field(&doc, "reason")?.to_owned(),
            }),
            "stats" => Ok(FromServe::Stats {
                id: usize_field(&doc, "id")?,
                stats: StatsReport {
                    served: usize_field(&doc, "served")?,
                    degraded: usize_field(&doc, "degraded")?,
                    rejected: usize_field(&doc, "rejected")?,
                    skipped: usize_field(&doc, "skipped")?,
                    decode_errors: usize_field(&doc, "decode_errors")?,
                    read_timeouts: usize_field(&doc, "read_timeouts")?,
                    cache_families: usize_field(&doc, "cache_families")?,
                    cache_hits: usize_field(&doc, "cache_hits")?,
                    cache_misses: usize_field(&doc, "cache_misses")?,
                    cache_evictions: usize_field(&doc, "cache_evictions")?,
                    hit_rate: f64_field(&doc, "hit_rate")?,
                },
            }),
            "error" => Ok(FromServe::Error {
                id: usize_field(&doc, "id")?,
                message: str_field(&doc, "message")?.to_owned(),
            }),
            other => Err(WireError::Schema(format!(
                "unknown daemon frame type '{other}'"
            ))),
        }
    }
}

mfa_explore::impl_frame!(ToServe, FromServe);

#[cfg(test)]
mod tests {
    use super::*;
    use mfa_alloc::cases::PaperCase;

    fn sample_outcome() -> SolveOutcome {
        SolveOutcome {
            // 0.1 + 0.2 has a long binary expansion: exercises the
            // shortest-round-trip float path, not just tidy literals.
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
    fn handshake_frames_match_their_goldens_exactly() {
        // The v5 handshake bytes are the protocol's stable surface: any
        // drift here is an incompatible change and must bump the shared
        // PROTOCOL_VERSION.
        assert_eq!(
            ToServe::Hello {
                protocol: PROTOCOL_VERSION
            }
            .encode()
            .unwrap(),
            r#"{"type":"hello","protocol":5}"#
        );
        assert_eq!(
            FromServe::Ready {
                protocol: PROTOCOL_VERSION
            }
            .encode()
            .unwrap(),
            r#"{"type":"ready","protocol":5}"#
        );
        assert_eq!(
            ToServe::Shutdown.encode().unwrap(),
            r#"{"type":"shutdown"}"#
        );
    }

    #[test]
    fn reply_frames_match_their_goldens_exactly() {
        assert_eq!(
            FromServe::Rejected {
                id: 7,
                queue_depth: 64,
                capacity: 64,
            }
            .encode()
            .unwrap(),
            r#"{"type":"rejected","id":7,"queue_depth":64,"capacity":64}"#
        );
        assert_eq!(
            FromServe::Skipped {
                id: 3,
                reason: "infeasible problem: constraint too tight".into(),
            }
            .encode()
            .unwrap(),
            r#"{"type":"skipped","id":3,"reason":"infeasible problem: constraint too tight"}"#
        );
        assert_eq!(
            ToServe::Stats { id: 6 }.encode().unwrap(),
            r#"{"type":"stats","id":6}"#
        );
        assert_eq!(
            FromServe::Stats {
                id: 6,
                stats: StatsReport {
                    served: 12,
                    degraded: 1,
                    rejected: 0,
                    skipped: 2,
                    decode_errors: 0,
                    read_timeouts: 1,
                    cache_families: 3,
                    cache_hits: 6,
                    cache_misses: 6,
                    cache_evictions: 0,
                    hit_rate: 0.5,
                },
            }
            .encode()
            .unwrap(),
            concat!(
                r#"{"type":"stats","id":6,"served":12,"degraded":1,"rejected":0,"#,
                r#""skipped":2,"decode_errors":0,"read_timeouts":1,"cache_families":3,"#,
                r#""cache_hits":6,"cache_misses":6,"cache_evictions":0,"hit_rate":0.5}"#
            )
        );
        let report = FromServe::Report {
            id: 1,
            outcome: sample_outcome(),
        }
        .encode()
        .unwrap();
        assert_eq!(
            report,
            concat!(
                r#"{"type":"report","id":1,"outcome":{"ii_ms":0.30000000000000004,"#,
                r#""backend":"Greedy","degraded_from":"GP+A","cu_counts":[3,1,4],"#,
                r#""warm_start":"ii+dual","cache_hit":true,"#,
                r#""fingerprint":"9a7be84621861e5523aa1fdb34592dd3","#,
                r#""barrier_iterations":17,"bb_nodes":23,"solve_ms":1.5,"queue_ms":0.25}}"#
            )
        );
    }

    #[test]
    fn frames_round_trip_exactly() {
        let problem = PaperCase::Alex16OnTwoFpgas.problem(0.7).unwrap();
        let to = [
            ToServe::Hello {
                protocol: PROTOCOL_VERSION,
            },
            ToServe::Solve {
                id: 42,
                problem,
                backend: BackendKind::GpaFast,
                deadline_seconds: Some(0.1 + 0.2),
                warm: true,
            },
            ToServe::Stats { id: 9 },
            ToServe::Shutdown,
        ];
        for frame in to {
            let line = frame.encode().unwrap();
            assert!(!line.contains('\n'), "frames must be single-line");
            assert_eq!(ToServe::decode(&line).unwrap(), frame);
        }
        let from = [
            FromServe::Ready {
                protocol: PROTOCOL_VERSION,
            },
            FromServe::Report {
                id: 1,
                outcome: sample_outcome(),
            },
            FromServe::Report {
                id: 2,
                outcome: SolveOutcome {
                    degraded_from: None,
                    cache_hit: false,
                    ..sample_outcome()
                },
            },
            FromServe::Rejected {
                id: 9,
                queue_depth: 3,
                capacity: 4,
            },
            FromServe::Skipped {
                id: 5,
                reason: "greedy allocation failed".into(),
            },
            FromServe::Stats {
                id: 9,
                stats: StatsReport {
                    served: 4,
                    hit_rate: 0.75,
                    ..StatsReport::default()
                },
            },
            FromServe::Error {
                id: 0,
                message: "malformed frame".into(),
            },
        ];
        for frame in from {
            let line = frame.encode().unwrap();
            assert!(!line.contains('\n'), "frames must be single-line");
            assert_eq!(FromServe::decode(&line).unwrap(), frame);
        }
    }

    #[test]
    fn backend_kind_labels_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_wire_label(kind.wire_label()), Some(kind));
        }
        assert_eq!(BackendKind::from_wire_label("quantum"), None);
        // The registry mapping reaches every built-in backend.
        assert_eq!(BackendKind::Gpa.backend().label(), "GP+A");
        assert_eq!(BackendKind::Greedy.backend().label(), "Greedy");
    }

    #[test]
    fn garbage_lines_are_rejected_not_fatal() {
        for bad in [
            "",
            "not json",
            "{\"type\":\"solve\",\"id\":",
            "{\"id\":1}",
            "{\"type\":\"warp\"}",
            "{\"type\":\"solve\",\"id\":1}",
            "{\"type\":\"solve\",\"id\":1,\"backend\":\"quantum\"}",
            "{\"type\":\"report\",\"id\":1}",
            "[1,2,3]",
        ] {
            assert!(ToServe::decode(bad).is_err(), "{bad:?}");
            assert!(FromServe::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn non_finite_outcomes_are_rejected_on_encode() {
        let mut outcome = sample_outcome();
        outcome.ii_ms = f64::NAN;
        assert!(matches!(
            FromServe::Report { id: 1, outcome }.encode(),
            Err(WireError::NonFinite("ii_ms"))
        ));
        assert!(matches!(
            ToServe::Solve {
                id: 1,
                problem: PaperCase::Alex16OnTwoFpgas.problem(0.7).unwrap(),
                backend: BackendKind::Gpa,
                deadline_seconds: Some(f64::INFINITY),
                warm: false,
            }
            .encode(),
            Err(WireError::NonFinite("deadline_seconds"))
        ));
    }
}
