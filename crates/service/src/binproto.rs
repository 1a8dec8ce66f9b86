//! The binary edge codec: decodes `AFWIRE01` frames (via
//! `arrayflow-wire`) onto the one request model and encodes the
//! service's answers back into response frames — the same dispatch,
//! worker pool, counters and error taxonomy as the JSON edge.
//!
//! Analyze and custom frames may carry a client-precomputed fingerprint:
//! the **fingerprint-first fast path** probes the memo cache (and,
//! through it, the persistent tier) *before* any parse or normalize work;
//! on a hit the stored report encoding ships back directly, and the
//! request never touches the worker pool.

use std::sync::Arc;

use arrayflow_engine::{BatchResult, DeltaReport, LoopReport, QueryStats};
use arrayflow_ir::Fingerprint;
use arrayflow_store::codec::{decode_report, encode_report};
use arrayflow_wire::encode_frame;
use arrayflow_wire::proto::{
    strip_deadline, AnalyzeOk, DeltaOk, LoopEntry, Request, Response, SessionOk,
};

use crate::proto::{ErrorKind, ServiceError};
use crate::server::Decoded;
use crate::service::Answer;

/// [`ErrorKind`] as a single wire byte. Stable protocol values: new kinds
/// append, existing bytes never renumber. Byte 2 is reserved: it was a
/// retired `timeout` kind and decodes as an unknown kind.
pub fn kind_byte(kind: ErrorKind) -> u8 {
    match kind {
        ErrorKind::Parse => 0,
        ErrorKind::Analysis => 1,
        ErrorKind::Overloaded => 3,
        ErrorKind::Protocol => 4,
        ErrorKind::SessionLost => 5,
        ErrorKind::Cancelled => 6,
    }
}

/// Inverse of [`kind_byte`]; `None` for bytes from a newer server.
pub fn kind_from_byte(b: u8) -> Option<ErrorKind> {
    Some(match b {
        0 => ErrorKind::Parse,
        1 => ErrorKind::Analysis,
        3 => ErrorKind::Overloaded,
        4 => ErrorKind::Protocol,
        5 => ErrorKind::SessionLost,
        6 => ErrorKind::Cancelled,
        _ => return None,
    })
}

/// Decodes one request frame: strips the deadline prefix (framing, not
/// request content — a prefix that fails to decode is hostile by
/// definition), then decodes the request.
pub(crate) fn decode_request(tag: u8, payload: &[u8]) -> Decoded {
    let protocol = |message: String| ServiceError::new(ErrorKind::Protocol, message);
    let (tag, budget_ms, offset) =
        strip_deadline(tag, payload).map_err(|e| protocol(format!("bad deadline prefix: {e}")))?;
    let req = Request::decode(tag, &payload[offset..])
        .map_err(|e| protocol(format!("bad frame: {e}")))?;
    Ok((req, budget_ms))
}

/// Encodes one outcome as the response frame to request `id`.
pub(crate) fn response_frame(id: u64, outcome: Result<Answer, ServiceError>) -> Vec<u8> {
    let text = |text: String| Response::Text { id, text };
    let resp = match outcome {
        Err(e) => Response::Err {
            id,
            kind: kind_byte(e.kind),
            message: e.message,
        },
        Ok(Answer::Text(t)) => text(t.into()),
        Ok(Answer::Object(json)) => text(json.encode()),
        // Binary metrics ship the Prometheus exposition directly — the
        // form a scraper wants, with no JSON wrapper to unpick.
        Ok(Answer::Metrics(exposition)) => text(exposition),
        Ok(Answer::Loops(r)) => Response::Analyze(AnalyzeOk {
            id,
            loops: r
                .loops
                .iter()
                .map(|l| LoopEntry {
                    fingerprint: l.fingerprint.0.to_le_bytes(),
                    report: encode_report(&l.report),
                })
                .collect(),
            cache_hits: r.stats.cache_hits,
            cache_misses: r.stats.cache_misses,
            solver_passes: r.stats.solver_passes,
            node_visits: r.stats.node_visits,
        }),
        Ok(Answer::Session(session, report)) => Response::Session(SessionOk {
            id,
            session,
            fingerprint: report.fingerprint.0.to_le_bytes(),
            report: encode_report(&report),
        }),
        Ok(Answer::Delta(d)) => Response::Delta(DeltaOk {
            id,
            session: d.session,
            fingerprint: d.fingerprint.0.to_le_bytes(),
            report: encode_report(&d.report),
            fallback: d.fallback,
            dirty_columns: d.dirty_columns as u64,
            total_columns: d.total_columns as u64,
        }),
    };
    encode_frame(resp.tag(), &resp.encode_payload())
}

/// The inverse of [`response_frame`] for a node's answer: what the router's
/// JSON edge renders a forwarded response from, decoding the report
/// bytes back into reports.
pub(crate) fn answer_of(tag: u8, payload: &[u8]) -> Result<Answer, ServiceError> {
    let report = |bytes: &[u8]| {
        decode_report(bytes).map(Arc::new).map_err(|e| {
            ServiceError::new(
                ErrorKind::Protocol,
                format!("node sent an undecodable report: {e}"),
            )
        })
    };
    match Response::decode(tag, payload) {
        Ok(Response::Analyze(ok)) => Ok(Answer::Loops(BatchResult {
            index: 0,
            loops: ok
                .loops
                .iter()
                .map(|l| {
                    Ok(LoopReport {
                        fingerprint: Fingerprint(u128::from_le_bytes(l.fingerprint)),
                        report: report(&l.report)?,
                    })
                })
                .collect::<Result<_, ServiceError>>()?,
            error: None,
            stats: QueryStats {
                cache_hits: ok.cache_hits,
                cache_misses: ok.cache_misses,
                solver_passes: ok.solver_passes,
                node_visits: ok.node_visits,
                micros: 0,
            },
        })),
        Ok(Response::Session(ok)) => Ok(Answer::Session(ok.session, report(&ok.report)?)),
        Ok(Response::Delta(ok)) => Ok(Answer::Delta(DeltaReport {
            session: ok.session,
            fingerprint: Fingerprint(u128::from_le_bytes(ok.fingerprint)),
            report: report(&ok.report)?,
            fallback: ok.fallback,
            dirty_columns: ok.dirty_columns as usize,
            total_columns: ok.total_columns as usize,
        })),
        Ok(Response::Err { kind, message, .. }) => Err(ServiceError::new(
            kind_from_byte(kind).unwrap_or(ErrorKind::Protocol),
            message,
        )),
        _ => Err(ServiceError::new(
            ErrorKind::Protocol,
            "node sent an unexpected response",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Edge, Frame, FrameHandler};
    use crate::service::{Service, ServiceConfig};
    use arrayflow_engine::{CustomSpec, ProblemSet, CANNED};
    use arrayflow_wire::proto::{AnalyzeRequest, CustomRequest};

    const SRC: &str = "do i = 1, 100 A[i+2] := A[i] + x; end";

    fn svc() -> Arc<Service> {
        Service::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        })
        .unwrap()
    }

    /// Answers one frame in process, as a connection's frames are
    /// answered: the response frame's bytes.
    fn binary_sync(svc: &Arc<Service>, tag: u8, payload: &[u8]) -> Vec<u8> {
        svc.handle_frame(Frame::Binary(tag, payload))
    }

    #[test]
    fn ping_round_trips() {
        let svc = svc();
        let req = Request::Ping { id: 9 };
        let out = binary_sync(&svc, req.tag(), &req.encode_payload());
        let resp = decode_response_frame(&out);
        assert_eq!(
            resp,
            Response::Text {
                id: 9,
                text: "pong".into()
            }
        );
    }

    #[test]
    fn analyze_by_source_then_fingerprint_hit_is_byte_identical() {
        let svc = svc();
        let req = Request::Analyze(AnalyzeRequest {
            id: 1,
            fingerprint: None,
            problems: None,
            distance_bound: None,
            source: Some(SRC.as_bytes().to_vec()),
        });
        let full = decode_response_frame(&binary_sync(&svc, req.tag(), &req.encode_payload()));
        let Response::Analyze(full) = full else {
            panic!("expected analyze response, got {full:?}");
        };
        assert_eq!(full.loops.len(), 1);

        // Probe by the fingerprint the full analysis reported.
        let probe = Request::Analyze(AnalyzeRequest {
            id: 2,
            fingerprint: Some(full.loops[0].fingerprint),
            problems: None,
            distance_bound: None,
            source: None,
        });
        let hit = decode_response_frame(&binary_sync(&svc, probe.tag(), &probe.encode_payload()));
        let Response::Analyze(hit) = hit else {
            panic!("expected analyze response, got {hit:?}");
        };
        assert_eq!(hit.cache_hits, 1);
        assert_eq!(
            hit.loops[0].report, full.loops[0].report,
            "report bytes moved"
        );
        let hits = svc.registry().snapshot();
        let hits = hits.value("arrayflow_fingerprint_fast_hits_total", &[]);
        assert_eq!(hits, Some(1));
    }

    #[test]
    fn unknown_fingerprint_without_source_is_an_analysis_error() {
        let svc = svc();
        let probe = Request::Analyze(AnalyzeRequest {
            id: 3,
            fingerprint: Some([7; 16]),
            problems: None,
            distance_bound: None,
            source: None,
        });
        let resp = decode_response_frame(&binary_sync(&svc, probe.tag(), &probe.encode_payload()));
        let Response::Err { id, kind, .. } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(id, 3);
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Analysis));
        let misses = svc.registry().snapshot();
        let misses = misses.value("arrayflow_fingerprint_misses_total", &[]);
        assert_eq!(misses, Some(1));
    }

    #[test]
    fn custom_by_source_then_fingerprint_hit_is_byte_identical() {
        let svc = svc();
        // Live elements — gen uses, kill defs, backward, may — has no
        // canned equivalent, so this exercises the true custom path.
        let spec = 0b11_0110;
        let req = Request::Custom(CustomRequest {
            id: 1,
            spec,
            fingerprint: None,
            distance_bound: None,
            source: Some(SRC.as_bytes().to_vec()),
        });
        let full = decode_response_frame(&binary_sync(&svc, req.tag(), &req.encode_payload()));
        let Response::Analyze(full) = full else {
            panic!("expected analyze response, got {full:?}");
        };
        assert_eq!(full.loops.len(), 1);

        let probe = Request::Custom(CustomRequest {
            id: 2,
            spec,
            fingerprint: Some(full.loops[0].fingerprint),
            distance_bound: None,
            source: None,
        });
        let hit = decode_response_frame(&binary_sync(&svc, probe.tag(), &probe.encode_payload()));
        let Response::Analyze(hit) = hit else {
            panic!("expected analyze response, got {hit:?}");
        };
        assert_eq!(hit.cache_hits, 1);
        assert_eq!(
            hit.loops[0].report, full.loops[0].report,
            "custom report bytes moved"
        );

        // A different spec over the same fingerprint is a distinct cache
        // entry — it must miss, not serve the wrong problem's answer.
        let other = Request::Custom(CustomRequest {
            id: 3,
            spec: 0b01_0110,
            fingerprint: Some(full.loops[0].fingerprint),
            distance_bound: None,
            source: None,
        });
        let miss = decode_response_frame(&binary_sync(&svc, other.tag(), &other.encode_payload()));
        let Response::Err { kind, .. } = miss else {
            panic!("expected a miss error, got {miss:?}");
        };
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Analysis));
    }

    #[test]
    fn custom_delegates_canned_specs_to_the_shared_cache_entry() {
        let svc = svc();
        // gen defs + kill defs, forward, must — exactly must-reaching.
        let req = Request::Custom(CustomRequest {
            id: 1,
            spec: CANNED[0].1.bits(),
            fingerprint: None,
            distance_bound: None,
            source: Some(SRC.as_bytes().to_vec()),
        });
        let full = decode_response_frame(&binary_sync(&svc, req.tag(), &req.encode_payload()));
        let Response::Analyze(full) = full else {
            panic!("expected analyze response, got {full:?}");
        };

        // The canned verb probing the reaching-only selection by
        // fingerprint must hit the entry the custom solve populated.
        let reaching_only = ProblemSet {
            reaching: true,
            ..ProblemSet::NONE
        };
        let probe = Request::Analyze(AnalyzeRequest {
            id: 2,
            fingerprint: Some(full.loops[0].fingerprint),
            problems: Some(reaching_only.bits()),
            distance_bound: None,
            source: None,
        });
        let hit = decode_response_frame(&binary_sync(&svc, probe.tag(), &probe.encode_payload()));
        let Response::Analyze(hit) = hit else {
            panic!("expected analyze response, got {hit:?}");
        };
        assert_eq!(hit.cache_hits, 1);
        assert_eq!(
            hit.loops[0].report, full.loops[0].report,
            "delegated custom report must be byte-identical to the canned one"
        );
    }

    #[test]
    fn bad_custom_spec_or_distance_is_a_protocol_error() {
        let svc = svc();
        // An empty-G spec byte is rejected by the wire decoder before the
        // service sees a request — tampering with the encoded payload
        // exercises that path end to end.
        let good = Request::Custom(CustomRequest {
            id: 1,
            spec: CANNED[0].1.bits(),
            fingerprint: None,
            distance_bound: None,
            source: Some(SRC.as_bytes().to_vec()),
        });
        let mut payload = good.encode_payload();
        payload[1] = 0; // the spec byte sits right after the 1-byte id
        let resp = decode_response_frame(&binary_sync(&svc, good.tag(), &payload));
        let Response::Err { kind, .. } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Protocol));

        // An absurd distance bound passes framing but fails validation.
        let req = Request::Custom(CustomRequest {
            id: 2,
            spec: CANNED[0].1.bits(),
            fingerprint: None,
            distance_bound: Some(CustomSpec::MAX_DISTANCE_BOUND + 1),
            source: Some(SRC.as_bytes().to_vec()),
        });
        let resp = decode_response_frame(&binary_sync(&svc, req.tag(), &req.encode_payload()));
        let Response::Err { id, kind, .. } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(id, 2);
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Protocol));
    }

    #[test]
    fn the_canned_verb_caps_the_distance_bound_too() {
        let svc = svc();
        let analyze = |id, distance_bound| {
            let req = Request::Analyze(AnalyzeRequest {
                id,
                fingerprint: None,
                problems: None,
                distance_bound: Some(distance_bound),
                source: Some(SRC.as_bytes().to_vec()),
            });
            decode_response_frame(&binary_sync(&svc, req.tag(), &req.encode_payload()))
        };
        let resp = analyze(1, CustomSpec::MAX_DISTANCE_BOUND + 1);
        let Response::Err { id, kind, .. } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(id, 1);
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Protocol));
        let at_cap = analyze(2, CustomSpec::MAX_DISTANCE_BOUND);
        assert!(matches!(at_cap, Response::Analyze(_)), "{at_cap:?}");
    }

    #[test]
    fn oversized_counts_in_its_own_counter_not_latency() {
        let svc = svc();
        let before = svc.registry().snapshot();
        svc.oversized();
        let resp = decode_response_frame(&Edge::oversized(Some(1 << 30), 1 << 20));
        assert!(matches!(resp, Response::Err { id: 0, .. }));
        let after = svc.registry().snapshot();
        let oversized = "arrayflow_oversized_frames_total";
        assert_eq!(after.value(oversized, &[]), Some(1));
        // Every other series is untouched: not `requests`, not the latency
        // histogram, and not the taxonomy counters — oversized is not a
        // "response by outcome", it is a discarded frame.
        assert_eq!(before.metrics.len(), after.metrics.len());
        for (b, a) in before.metrics.iter().zip(&after.metrics) {
            if a.name != oversized {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn health_reports_node_identity() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            node_id: Some("n1".into()),
            ..Default::default()
        })
        .unwrap();
        let req = Request::Health { id: 4 };
        let out = binary_sync(&svc, req.tag(), &req.encode_payload());
        let resp = decode_response_frame(&out);
        let Response::Text { id, text } = resp else {
            panic!("expected text response, got {resp:?}");
        };
        assert_eq!(id, 4);
        assert!(text.contains(r#""status":"ok""#), "{text}");
        assert!(text.contains(r#""node":"n1""#), "{text}");
        assert!(text.contains(r#""shutting_down":false"#), "{text}");
    }

    #[test]
    fn replicate_without_store_is_a_protocol_error() {
        let svc = svc();
        let req = Request::Replicate {
            id: 5,
            batch: Vec::new(),
        };
        let out = binary_sync(&svc, req.tag(), &req.encode_payload());
        let resp = decode_response_frame(&out);
        let Response::Err { id, kind, message } = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(id, 5);
        assert_eq!(kind_from_byte(kind), Some(ErrorKind::Protocol));
        assert!(message.contains("no store configured"), "{message}");
    }

    #[test]
    fn replicate_applies_batch_and_warms_fingerprint_path() {
        use arrayflow_store::{Store, StoreConfig};

        let src_dir = std::env::temp_dir().join(format!("afbin-repl-src-{}", std::process::id()));
        let dst_dir = std::env::temp_dir().join(format!("afbin-repl-dst-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);

        // Build a donor store by running a real analysis through a
        // store-backed service, then export its live set.
        let donor = Service::start(ServiceConfig {
            workers: 1,
            store: Some(StoreConfig::at(&src_dir)),
            ..Default::default()
        })
        .unwrap();
        let req = Request::Analyze(AnalyzeRequest {
            id: 1,
            fingerprint: None,
            problems: None,
            distance_bound: None,
            source: Some(SRC.as_bytes().to_vec()),
        });
        let full = decode_response_frame(&binary_sync(&donor, req.tag(), &req.encode_payload()));
        let Response::Analyze(full) = full else {
            panic!("expected analyze response, got {full:?}");
        };
        let fp_bytes = full.loops[0].fingerprint;
        donor.shutdown();
        donor.join_workers();
        let batch = Store::open_in(StoreConfig::at(&src_dir), &arrayflow_obs::Registry::new())
            .unwrap()
            .export_live();
        assert!(!batch.is_empty());

        // A fresh replica node ingests the batch over the wire verb …
        let replica = Service::start(ServiceConfig {
            workers: 1,
            store: Some(StoreConfig::at(&dst_dir)),
            ..Default::default()
        })
        .unwrap();
        let req = Request::Replicate { id: 2, batch };
        let out = binary_sync(&replica, req.tag(), &req.encode_payload());
        let resp = decode_response_frame(&out);
        let Response::Text { id, text } = resp else {
            panic!("expected text response, got {resp:?}");
        };
        assert_eq!(id, 2);
        assert!(text.contains(r#""applied":1"#), "{text}");

        // … and then answers the fingerprint probe from the replicated
        // store without any source — the warm-failover contract.
        let probe = Request::Analyze(AnalyzeRequest {
            id: 3,
            fingerprint: Some(fp_bytes),
            problems: None,
            distance_bound: None,
            source: None,
        });
        let hit =
            decode_response_frame(&binary_sync(&replica, probe.tag(), &probe.encode_payload()));
        let Response::Analyze(hit) = hit else {
            panic!("expected analyze response, got {hit:?}");
        };
        assert_eq!(hit.cache_hits, 1);
        assert_eq!(hit.loops[0].report, full.loops[0].report);

        replica.shutdown();
        replica.join_workers();
        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);
    }

    #[test]
    fn kind_bytes_round_trip() {
        for kind in [
            ErrorKind::Parse,
            ErrorKind::Analysis,
            ErrorKind::Overloaded,
            ErrorKind::Protocol,
            ErrorKind::SessionLost,
            ErrorKind::Cancelled,
        ] {
            assert_eq!(kind_from_byte(kind_byte(kind)), Some(kind));
        }
        assert_eq!(kind_from_byte(2), None, "byte 2 is reserved");
        assert_eq!(kind_from_byte(200), None);
    }

    fn decode_response_frame(frame: &[u8]) -> Response {
        let mut d = arrayflow_wire::FrameDecoder::new(usize::MAX);
        d.extend(frame);
        match d.next().unwrap().unwrap() {
            arrayflow_wire::FrameEvent::Frame { tag, payload } => {
                Response::decode(tag, &payload).unwrap()
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
