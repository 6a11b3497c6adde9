//! Integration tests for the TCP serving layer: the differential
//! loopback proof (wire responses bit-identical to direct
//! `Engine::submit` across every request kind) and the adversarial
//! failure modes — malformed and oversized frames, bad preambles, busy
//! backpressure, abrupt disconnects mid-pipeline, half-closed sockets,
//! out-of-order pipelined completion, and drain-on-shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use wqrtq_engine::{Engine, Request, Response, StrategyKind, WeightSet, WhyNotOptions};
use wqrtq_server::{Client, ClientError, ClientFrame, Server, ServerFrame};

/// Figure 1 products (paper §1).
const PRODUCTS_2D: [f64; 14] = [
    2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
];

fn customers() -> Vec<Vec<f64>> {
    vec![
        vec![0.1, 0.9],
        vec![0.5, 0.5],
        vec![0.3, 0.7],
        vec![0.9, 0.1],
    ]
}

fn scatter(n: usize, dim: usize, seed: u64) -> Vec<f64> {
    let mut v = Vec::with_capacity(n * dim);
    let mut state = seed | 1;
    for _ in 0..n * dim {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(99);
        v.push((state >> 11) as f64 / (1u64 << 53) as f64 * 10.0);
    }
    v
}

/// Options pinned to the sampled path (no exact-2D auto-selection); the
/// suite narrows them to one strategy per request.
fn sampled() -> WhyNotOptions {
    WhyNotOptions {
        exact_2d: false,
        ..WhyNotOptions::default()
    }
}

/// Every request kind and strategy, parameterised by catalog names so
/// the same stream can run against wire-registered and
/// directly-registered twins of the same data.
fn all_kind_requests(ds2: &str, ds3: &str, pop: &str) -> Vec<Request> {
    vec![
        Request::TopK {
            dataset: ds2.into(),
            weight: vec![0.5, 0.5],
            k: 3,
        },
        // 2-D: the exact interval sweep.
        Request::ReverseTopKMono {
            dataset: ds2.into(),
            q: vec![4.0, 4.0],
            k: 3,
            samples: 0,
            seed: 0,
        },
        // 3-D: the seeded sampling estimate.
        Request::ReverseTopKMono {
            dataset: ds3.into(),
            q: vec![4.0, 4.0, 4.0],
            k: 5,
            samples: 400,
            seed: 7,
        },
        Request::ReverseTopKBi {
            dataset: ds2.into(),
            weights: WeightSet::Named(pop.into()),
            q: vec![4.0, 4.0],
            k: 3,
        },
        Request::ReverseTopKBi {
            dataset: ds2.into(),
            weights: WeightSet::Inline(vec![vec![0.2, 0.8], vec![0.6, 0.4]]),
            q: vec![4.0, 4.0],
            k: 3,
        },
        // The explanation slot (culprits capped at 10) and the MQP
        // strategy, in one single-strategy plan.
        Request::WhyNot {
            dataset: ds2.into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9]],
            options: WhyNotOptions {
                strategies: vec![StrategyKind::Mqp],
                culprit_limit: 10,
                ..sampled()
            },
        },
        Request::WhyNot {
            dataset: ds2.into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
            options: WhyNotOptions {
                strategies: vec![StrategyKind::Mwk],
                sample_size: 48,
                seed: 11,
                ..sampled()
            },
        },
        Request::WhyNot {
            dataset: ds2.into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9]],
            options: WhyNotOptions {
                strategies: vec![StrategyKind::Mqwk],
                sample_size: 32,
                query_samples: 8,
                seed: 13,
                ..sampled()
            },
        },
        // Mutations, then a query observing their effect.
        Request::Append {
            dataset: ds2.into(),
            points: vec![1.0, 0.5],
        },
        Request::TopK {
            dataset: ds2.into(),
            weight: vec![0.5, 0.5],
            k: 1,
        },
        // Delete a *base* row (deleting the appended one would empty the
        // overlay again), leaving a tombstone for the compaction below.
        Request::Delete {
            dataset: ds2.into(),
            ids: vec![2],
        },
        Request::ReverseTopKBi {
            dataset: ds2.into(),
            weights: WeightSet::Named(pop.into()),
            q: vec![4.0, 4.0],
            k: 3,
        },
        // Typed errors must round-trip identically too.
        Request::TopK {
            dataset: "no-such-dataset".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        },
        Request::TopK {
            dataset: ds2.into(),
            weight: vec![f64::NAN, 0.5],
            k: 1,
        },
    ]
}

#[test]
fn differential_loopback_wire_responses_bit_identical_to_direct_submit() {
    let server = Server::builder()
        .engine(Engine::builder().workers(2).build())
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    // Twin state: one copy registered over the wire, one directly.
    client.register_dataset("wire2", 2, &PRODUCTS_2D).unwrap();
    client
        .register_dataset("wire3", 3, &scatter(300, 3, 42))
        .unwrap();
    client.register_weights("wirepop", &customers()).unwrap();
    let engine = server.engine();
    engine
        .register_dataset("dir2", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    engine
        .register_dataset("dir3", 3, scatter(300, 3, 42))
        .unwrap();
    engine
        .register_weights(
            "dirpop",
            customers().into_iter().map(wqrtq::Weight::new).collect(),
        )
        .unwrap();

    let wire_stream = all_kind_requests("wire2", "wire3", "wirepop");
    let direct_stream = all_kind_requests("dir2", "dir3", "dirpop");
    for (wire_req, direct_req) in wire_stream.into_iter().zip(direct_stream) {
        let label = format!("{wire_req:?}");
        let wire_resp = match client.submit(&wire_req) {
            Ok(resp) => resp,
            Err(e) => panic!("{label}: wire submit failed: {e}"),
        };
        let direct_resp = engine.submit(direct_req);
        assert_eq!(wire_resp, direct_resp, "{label}: wire vs direct diverged");
        // Value equality is necessary but not sufficient (0.0 == -0.0);
        // the canonical encodings must match byte for byte.
        assert_eq!(
            ServerFrame::Reply(wire_resp).encode(0),
            ServerFrame::Reply(direct_resp).encode(0),
            "{label}: responses are not bit-identical"
        );
    }

    // Compaction over the wire matches the engine's bookkeeping.
    assert!(client.compact("wire2").unwrap(), "overlay was non-empty");
    assert!(
        !client.compact("wire2").unwrap(),
        "second compact is a no-op"
    );
    assert!(engine.compact("dir2").unwrap());
    assert_eq!(
        engine.catalog().epoch("wire2").unwrap(),
        engine.catalog().epoch("dir2").unwrap(),
        "twin datasets went through identical epoch histories"
    );
    server.shutdown();
}

#[test]
fn wire_stats_snapshot_equals_engine_metrics_when_quiesced() {
    let server = Server::builder()
        .engine(Engine::builder().workers(2).build())
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    client.register_dataset("p", 2, &PRODUCTS_2D).unwrap();

    // Traffic that populates histograms, cache counters, and an error.
    for _ in 0..3 {
        client
            .submit(&Request::TopK {
                dataset: "p".into(),
                weight: vec![0.5, 0.5],
                k: 2,
            })
            .unwrap();
    }
    match client
        .submit(&Request::TopK {
            dataset: "no-such-dataset".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        })
        .unwrap()
    {
        Response::Error(_) => {}
        other => panic!("expected an error reply, got {other:?}"),
    }

    // The blocking client has read every reply, so the pool is quiet:
    // the snapshot a Stats request observes must equal what a direct
    // `Engine::metrics()` call sees — histograms included, because the
    // Stats request itself records nothing anywhere.
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.metrics,
        server.engine().metrics(),
        "wire-decoded stats diverged from the in-process snapshot"
    );
    let counters = stats.server.expect("the server fills its counter slot");
    assert_eq!(counters.connections_open, 1);
    assert_eq!(counters.connections_accepted, 1);
    assert_eq!(counters.in_flight, 0, "quiesced server has no in-flight");
    assert!(counters.frames_in >= 6, "preamble-framed traffic counted");
    assert_eq!(counters.protocol_errors, 0);

    // Idempotence: asking again changes nothing (same per-kind counts,
    // same bucket contents), so monitoring cannot skew what it reads.
    let again = client.stats().unwrap();
    assert_eq!(again.metrics, stats.metrics);

    // The boundary threads traced the round trips: admission spans from
    // the read loop, serialize spans from the writer, all tagged with
    // this connection's id in the high half of the trace id.
    let spans = server.engine().trace_snapshot().spans;
    let conn_tagged = |s: &&wqrtq_engine::SpanRecord| s.trace_id >> 32 == 1;
    assert!(
        spans
            .iter()
            .filter(conn_tagged)
            .any(|s| s.stage == wqrtq_engine::Stage::Admission),
        "expected boundary admission spans"
    );
    assert!(
        spans
            .iter()
            .filter(conn_tagged)
            .any(|s| s.stage == wqrtq_engine::Stage::Serialize),
        "expected boundary serialize spans"
    );
    server.shutdown();
}

/// A raw connection that speaks bytes, not the typed client.
fn raw_conn(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn read_frame(stream: &mut TcpStream) -> (u64, ServerFrame) {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).unwrap();
    let len = u32::from_le_bytes(prefix) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    ServerFrame::decode(&payload).unwrap()
}

/// A raw connection past the handshake: preamble sent, Hello consumed.
fn greeted_raw_conn(server: &Server) -> TcpStream {
    let mut stream = raw_conn(server);
    stream.write_all(&wqrtq_server::MAGIC_V2).unwrap();
    match read_frame(&mut stream) {
        (_, ServerFrame::Hello { .. }) => stream,
        other => panic!("expected a hello frame, got {other:?}"),
    }
}

fn read_protocol_error(stream: &mut TcpStream) -> String {
    match read_frame(stream) {
        (id, ServerFrame::ProtocolError(msg)) => {
            assert_eq!(id, wqrtq_server::CONNECTION_ID);
            msg
        }
        other => panic!("expected a protocol error frame, got {other:?}"),
    }
}

fn assert_closed(stream: &mut TcpStream) {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Ok(_) => panic!("server kept the connection open"),
        Err(_) => {} // reset also counts as closed
    }
}

fn assert_still_serving(server: &Server) {
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client.ping().unwrap();
    let response = client
        .submit(&Request::TopK {
            dataset: "p".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        })
        .unwrap();
    assert!(!response.is_error(), "pool must still serve: {response:?}");
}

fn serving_fixture() -> Server {
    let server = Server::builder()
        .engine(Engine::builder().workers(2).build())
        .bind("127.0.0.1:0")
        .unwrap();
    server
        .engine()
        .register_dataset("p", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    server
}

#[test]
fn bad_magic_is_rejected_and_reported() {
    let server = serving_fixture();
    let mut stream = raw_conn(&server);
    stream.write_all(b"EVIL").unwrap();
    let msg = read_protocol_error(&mut stream);
    assert!(msg.contains("preamble"), "unexpected message: {msg}");
    assert_closed(&mut stream);
    assert_still_serving(&server);
}

#[test]
fn malformed_frame_is_rejected_without_poisoning_the_pool() {
    let server = serving_fixture();
    let mut stream = greeted_raw_conn(&server);
    // A well-framed payload full of garbage: 12 bytes that parse as an
    // id + an unknown opcode.
    let garbage = [0xffu8; 12];
    stream
        .write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&garbage).unwrap();
    let msg = read_protocol_error(&mut stream);
    assert!(msg.contains("malformed"), "unexpected message: {msg}");
    assert_closed(&mut stream);
    assert_still_serving(&server);
    assert!(server.stats().protocol_errors >= 1);
}

#[test]
fn request_id_zero_is_reserved_and_rejected() {
    let server = serving_fixture();
    let mut stream = greeted_raw_conn(&server);
    // A perfectly well-formed Ping frame, but carrying the reserved
    // connection-level id 0.
    let payload = wqrtq_server::ClientFrame::Ping.encode(0);
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    let msg = read_protocol_error(&mut stream);
    assert!(msg.contains("reserved"), "unexpected message: {msg}");
    assert_closed(&mut stream);
    assert_still_serving(&server);
}

#[test]
fn connections_beyond_the_cap_are_shed_at_the_door() {
    let server = Server::builder()
        .engine(Engine::builder().workers(1).build())
        .max_connections(1)
        .bind("127.0.0.1:0")
        .unwrap();
    server
        .engine()
        .register_dataset("p", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    let mut first = Client::connect_v2(server.local_addr()).unwrap();
    first.ping().unwrap(); // the first session is fully registered
                           // The handshake itself may already fail: the server drops the socket
                           // without a Hello.
    let second = Client::connect_v2(server.local_addr()).and_then(|mut c| c.ping());
    assert!(
        second.is_err(),
        "the over-cap connection must be dropped, not served"
    );
    // The capped connection costs nothing persistent: once the first
    // client leaves, a newcomer is served again.
    first.ping().unwrap();
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut retry) = Client::connect_v2(server.local_addr()) {
            if retry.ping().is_ok() {
                break;
            }
        }
        assert!(
            Instant::now() < deadline,
            "capacity never came back: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn non_normalized_weight_registration_is_a_typed_error_not_a_panic() {
    let server = serving_fixture();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    // Finite and non-negative but not summing to 1: this must come back
    // as a typed error, not panic the session thread.
    let err = client
        .register_weights("bad", &[vec![0.3, 0.3]])
        .unwrap_err();
    assert!(
        matches!(&err, ClientError::Server(msg) if msg.contains("sum to 1")),
        "unexpected error: {err:?}"
    );
    // The same connection keeps serving, and the registry is intact
    // (only this client's session is live — nothing leaked).
    client.ping().unwrap();
    client.register_weights("good", &[vec![0.5, 0.5]]).unwrap();
    assert_eq!(server.stats().connections_open, 1);
    assert_still_serving(&server);
}

#[test]
fn non_normalized_request_weights_are_typed_errors_not_worker_panics() {
    // A why-not vector or inline customer weight that does not sum to 1
    // passes request validation (finite, non-negative, some entry
    // positive) and used to die on `Weight::new`'s assert inside the
    // worker. It must be a typed error, in process and over the wire.
    let server = serving_fixture();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    let mut plan = plan_request("p");
    if let Request::WhyNot { why_not, .. } = &mut plan {
        *why_not = vec![vec![2.0, 3.0]];
    }
    let reverse = Request::ReverseTopKBi {
        dataset: "p".into(),
        weights: WeightSet::Inline(vec![vec![2.0, 3.0]]),
        q: vec![4.0, 4.0],
        k: 3,
    };
    for request in [plan, reverse] {
        for response in [
            server.engine().submit(request.clone()),
            client.submit(&request).unwrap(),
        ] {
            match response {
                Response::Error(msg) => assert!(
                    msg.contains("sum to 1") && !msg.contains("panicked"),
                    "{request:?}: {msg}"
                ),
                other => panic!("{request:?}: expected a typed error, got {other:?}"),
            }
        }
    }
    // `TopK` scores its weight as a raw slice: unnormalised is fine.
    let top = client.submit(&Request::TopK {
        dataset: "p".into(),
        weight: vec![2.0, 3.0],
        k: 2,
    });
    assert_eq!(top.unwrap(), Response::TopK(vec![(0, 7.0), (1, 21.0)]));
    // The connection and the pool behind it keep serving.
    client.ping().unwrap();
    assert_still_serving(&server);
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let server = Server::builder()
        .engine(Engine::builder().workers(1).build())
        .max_frame_len(1024)
        .bind("127.0.0.1:0")
        .unwrap();
    server
        .engine()
        .register_dataset("p", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    let mut stream = greeted_raw_conn(&server);
    // Announce a 100 MiB payload; the server must refuse on the prefix
    // alone, before any of it exists.
    stream.write_all(&(100u32 << 20).to_le_bytes()).unwrap();
    let msg = read_protocol_error(&mut stream);
    assert!(msg.contains("exceeds"), "unexpected message: {msg}");
    assert_closed(&mut stream);
    assert_still_serving(&server);
}

/// A request slow enough (hundreds of ms in debug builds) to hold an
/// admission permit while the test races frames behind it.
fn slow_request(dataset: &str) -> Request {
    Request::ReverseTopKMono {
        dataset: dataset.into(),
        q: vec![5.0, 5.0, 5.0],
        k: 10,
        samples: 60_000,
        seed: 3,
    }
}

fn slow_fixture(workers: usize, admission: usize) -> Server {
    let server = Server::builder()
        .engine(Engine::builder().workers(workers).build())
        .admission_capacity(admission)
        .bind("127.0.0.1:0")
        .unwrap();
    server
        .engine()
        .register_dataset("slow3", 3, scatter(400, 3, 9))
        .unwrap();
    server
        .engine()
        .register_dataset("p", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    // Build the lazy indexes up front so the slow request's latency is
    // all sampling, not index construction.
    server.engine().catalog().handle("slow3").unwrap();
    server.engine().catalog().handle("p").unwrap();
    server
}

/// Sends `requests` in one write. Returns, in request order, each
/// reply with its arrival position in the reply stream.
fn send_burst(client: &mut Client, requests: &[&Request]) -> Vec<(usize, ServerFrame)> {
    let ids = client.send_request_batch(requests).unwrap();
    let mut replies: Vec<Option<(usize, ServerFrame)>> = ids.iter().map(|_| None).collect();
    for arrival in 0..ids.len() {
        let (id, frame) = client.recv().unwrap();
        let slot = ids.iter().position(|&sent| sent == id).unwrap();
        replies[slot] = Some((arrival, frame));
    }
    replies.into_iter().map(Option::unwrap).collect()
}

#[test]
fn cheap_requests_are_answered_on_the_loop_and_the_rest_wait_for_the_pool() {
    // The slow request holds the only worker, so whatever the loop
    // answers itself arrives before the slow reply and whatever crosses
    // to the pool queues behind it: the verdict is read off reply order.
    let server = slow_fixture(1, 8);
    let engine = server.engine();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    // An independent engine over the same data is the oracle.
    let twin = Engine::builder().workers(1).build();
    twin.register_dataset("slow3", 3, scatter(400, 3, 9))
        .unwrap();
    for e in [&**engine, &twin] {
        e.register_dataset("grown", 2, PRODUCTS_2D.to_vec())
            .unwrap();
        e.catalog().handle("grown").unwrap();
        e.append_points("grown", &[1.0, 0.5]).unwrap();
        e.register_weights(
            "pop",
            customers().into_iter().map(wqrtq::Weight::new).collect(),
        )
        .unwrap();
    }
    for name in ["p", "cold"] {
        twin.register_dataset(name, 2, PRODUCTS_2D.to_vec())
            .unwrap();
    }
    // Registered over the wire and never queried: its index is unbuilt.
    client.register_dataset("cold", 2, &PRODUCTS_2D).unwrap();
    let topk = |dataset: &str, k: usize| Request::TopK {
        dataset: dataset.into(),
        weight: vec![0.5, 0.5],
        k,
    };
    let bichromatic = |dataset: &str, weights: WeightSet, q: f64| Request::ReverseTopKBi {
        dataset: dataset.into(),
        weights,
        q: vec![q, q],
        k: 3,
    };
    let rtopk = |dataset: &str, q: f64| bichromatic(dataset, WeightSet::Named("pop".into()), q);
    // Warms the cache and builds the population's score table over `p`.
    assert!(!engine.submit(rtopk("p", 4.0)).is_error(), "warm the cache");

    let slow = slow_request("slow3");
    let inline_population = WeightSet::Inline(customers());
    let on_loop = [
        topk("p", 1),
        rtopk("p", 4.0),
        rtopk("p", 5.0),
        Request::Stats,
    ];
    let on_pool = [
        topk("cold", 1),
        topk("grown", 1),
        topk("p", 65),
        rtopk("grown", 5.0),
        bichromatic("p", inline_population, 5.0),
    ];
    let burst: Vec<&Request> = std::iter::once(&slow)
        .chain(&on_loop)
        .chain(&on_pool)
        .collect();
    let replies = send_burst(&mut client, &burst);
    let slow_at = replies[0].0;
    for (i, (request, (at, frame))) in burst.iter().zip(&replies).enumerate() {
        if i > 0 {
            let expect_inline = i <= on_loop.len();
            assert_eq!(*at < slow_at, expect_inline, "{request:?} routed wrongly");
        }
        let ServerFrame::Reply(response) = frame else {
            panic!("{request:?}: expected a reply, got {frame:?}");
        };
        if matches!(request, Request::Stats) {
            assert!(matches!(response, Response::Stats(_)));
            continue;
        }
        assert_eq!(
            ServerFrame::Reply(response.clone()).encode(0),
            ServerFrame::Reply(twin.submit((*request).clone())).encode(0),
            "{request:?}: not bit-identical to the pool's answer"
        );
    }
    // Exactly one hit or miss per query submit (the warm-up plus every
    // request of the burst but `Stats`): the probes of the requests the
    // loop handed to the pool counted nothing.
    let cache = engine.metrics().cache;
    assert_eq!(cache.hits + cache.misses, burst.len() as u64);
    assert_eq!(cache.hits, 1);
    server.shutdown();
}

#[test]
fn a_pipelined_burst_of_cheap_misses_spills_past_the_per_event_bound() {
    let server = slow_fixture(1, 2048);
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let slow = slow_request("slow3");
    // Distinct weights: every one is a cache miss the loop could run.
    let misses: Vec<Request> = (0..1000)
        .map(|i| Request::TopK {
            dataset: "p".into(),
            weight: vec![1.0 + i as f64, 1.0],
            k: 1,
        })
        .collect();
    let burst: Vec<&Request> = std::iter::once(&slow).chain(&misses).collect();
    let replies = send_burst(&mut client, &burst);
    assert!(replies
        .iter()
        .all(|(_, frame)| matches!(frame, ServerFrame::Reply(r) if !r.is_error())));
    let slow_at = replies[0].0;
    assert!(
        replies.iter().any(|(at, _)| *at > slow_at),
        "no miss of the burst was staged to the pool behind the slow request"
    );
    server.shutdown();
}

#[test]
fn a_pipelined_burst_of_cache_hits_longer_than_the_reply_backlog_is_answered_in_full() {
    // Admission 1 caps the reply backlog at 17 frames. Answered on the
    // loop, the burst takes no permit for long, so nothing is Busy; its
    // replies outrun the end-of-cycle flush and must be written out as
    // they pile up rather than doom a client that reads them.
    let server = slow_fixture(1, 1);
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let hit = Request::TopK {
        dataset: "p".into(),
        weight: vec![0.5, 0.5],
        k: 1,
    };
    let burst = vec![&hit; 200];
    let replies = send_burst(&mut client, &burst);
    assert!(replies
        .iter()
        .all(|(_, frame)| matches!(frame, ServerFrame::Reply(Response::TopK(_)))));
    assert_eq!(server.engine().metrics().cache.hits, 199);
    server.shutdown();
}

#[test]
fn busy_backpressure_under_a_tiny_admission_queue() {
    let server = slow_fixture(1, 1);
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Fill the only admission slot, then pipeline a second request
    // behind it: the server must answer Busy immediately, out of order,
    // while the slow request is still running.
    let slow_id = client
        .send(&ClientFrame::Submit(slow_request("slow3")))
        .unwrap();
    let fast = Request::TopK {
        dataset: "p".into(),
        weight: vec![0.5, 0.5],
        k: 1,
    };
    let fast_id = client.send(&ClientFrame::Submit(fast.clone())).unwrap();
    let (first_id, first) = client.recv().unwrap();
    assert_eq!(first_id, fast_id, "busy must not wait for the slow request");
    assert_eq!(first, ServerFrame::Busy);
    let (second_id, second) = client.recv().unwrap();
    assert_eq!(second_id, slow_id);
    assert!(
        matches!(second, ServerFrame::Reply(Response::MonoSampled { .. })),
        "the admitted request still completes: {second:?}"
    );
    // The rejected request was never executed; a retry after draining
    // succeeds.
    match client.submit(&fast) {
        Ok(Response::TopK(_)) => {}
        other => panic!("retry after drain failed: {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.busy_rejections, 1);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn pipelined_responses_complete_out_of_order() {
    let server = slow_fixture(2, 64);
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let slow_id = client
        .send(&ClientFrame::Submit(slow_request("slow3")))
        .unwrap();
    let fast_id = client
        .send(&ClientFrame::Submit(Request::TopK {
            dataset: "p".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        }))
        .unwrap();
    let (first_id, first) = client.recv().unwrap();
    assert_eq!(
        first_id, fast_id,
        "a later cheap request must overtake an earlier expensive one"
    );
    assert!(matches!(first, ServerFrame::Reply(Response::TopK(_))));
    let (second_id, _) = client.recv().unwrap();
    assert_eq!(second_id, slow_id);
}

#[test]
fn abrupt_disconnect_mid_pipeline_does_not_poison_the_pool() {
    let server = slow_fixture(2, 64);
    {
        let mut client = Client::connect_v2(server.local_addr()).unwrap();
        // A burst of in-flight work, then vanish without reading a byte.
        for _ in 0..4 {
            client
                .send(&ClientFrame::Submit(slow_request("slow3")))
                .unwrap();
        }
        for _ in 0..8 {
            client
                .send(&ClientFrame::Submit(Request::TopK {
                    dataset: "p".into(),
                    weight: vec![0.4, 0.6],
                    k: 2,
                }))
                .unwrap();
        }
    } // dropped: the OS closes the socket with frames still in flight
    assert_still_serving(&server);
    // The session must drain and unregister itself (no leaked permits,
    // no zombie connection) once its in-flight work completes.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = server.stats();
        // One live connection is `assert_still_serving`'s own leftover at
        // most; the dead one must disappear and its permits must return.
        if stats.in_flight == 0 && stats.connections_open == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "session never drained: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_still_serving(&server);
}

#[test]
fn half_closed_socket_still_receives_its_responses() {
    let server = slow_fixture(2, 64);
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let ids: Vec<u64> = (0..3)
        .map(|i| {
            client
                .send(&ClientFrame::Submit(Request::TopK {
                    dataset: "p".into(),
                    weight: vec![0.3 + 0.1 * i as f64, 0.7 - 0.1 * i as f64],
                    k: 2,
                }))
                .unwrap()
        })
        .collect();
    // Half-close: we are done sending, but the response stream lives on.
    client.finish_sending().unwrap();
    let mut seen = Vec::new();
    for _ in 0..ids.len() {
        let (id, frame) = client.recv().unwrap();
        assert!(matches!(frame, ServerFrame::Reply(Response::TopK(_))));
        seen.push(id);
    }
    seen.sort_unstable();
    assert_eq!(seen, ids);
    assert!(matches!(client.recv(), Err(ClientError::Closed)));
}

#[test]
fn shutdown_drains_in_flight_work_before_closing() {
    let server = slow_fixture(2, 64);
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let slow_id = client
        .send(&ClientFrame::Submit(slow_request("slow3")))
        .unwrap();
    // Give the reader a moment to admit the request, then shut down
    // while it is still running.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    // The admitted request's response arrived before the close.
    let (id, frame) = client.recv().unwrap();
    assert_eq!(id, slow_id);
    assert!(
        matches!(frame, ServerFrame::Reply(Response::MonoSampled { .. })),
        "shutdown must drain, not discard: {frame:?}"
    );
    assert!(matches!(client.recv(), Err(ClientError::Closed)));
    // New connections are refused (the listener is gone) — either the
    // connect or the first round trip fails.
    let refused = match Client::connect_v2(server.local_addr()) {
        Err(_) => true,
        Ok(mut late) => late.ping().is_err(),
    };
    assert!(refused, "listener must stop accepting after shutdown");
    // The engine itself outlives the front door.
    assert!(!server
        .engine()
        .submit(Request::TopK {
            dataset: "p".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        })
        .is_error());
}

// ---------------------------------------------------------------------
// Preamble negotiation, streaming plans, the retired v1 preamble.
// ---------------------------------------------------------------------

fn plan_request(dataset: &str) -> Request {
    Request::WhyNot {
        dataset: dataset.into(),
        q: vec![4.0, 4.0],
        k: 3,
        why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
        options: wqrtq_engine::WhyNotOptions {
            sample_size: 64,
            query_samples: 24,
            seed: 5,
            ..wqrtq_engine::WhyNotOptions::default()
        },
    }
}

#[test]
fn retired_v1_preamble_is_refused_with_a_typed_version_error() {
    let server = serving_fixture();
    let mut stream = raw_conn(&server);
    stream.write_all(b"WQR1").unwrap();
    let msg = read_protocol_error(&mut stream);
    assert!(msg.contains("WQR2"), "unexpected message: {msg}");
    assert_closed(&mut stream);
    assert!(server.stats().protocol_errors >= 1);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn v2_plan_streams_partials_before_the_final_ranked_plan() {
    let server = serving_fixture();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let request = plan_request("p");
    let mut deltas = Vec::new();
    let plan = client
        .submit_plan(&request, |delta| deltas.push(delta))
        .unwrap();

    // Partial order: every explanation precedes every strategy step,
    // mirroring the advisor's execution order.
    let first_step = deltas
        .iter()
        .position(|d| matches!(d, wqrtq_engine::PlanDelta::Step(_)))
        .expect("steps streamed");
    let explained: Vec<usize> = deltas
        .iter()
        .filter_map(|d| match d {
            wqrtq_engine::PlanDelta::Explained { index, .. } => Some(*index),
            _ => None,
        })
        .collect();
    assert_eq!(explained, vec![0, 1], "explanations stream first, in order");
    assert!(first_step >= explained.len());
    let streamed_steps: Vec<_> = deltas
        .iter()
        .filter_map(|d| match d {
            wqrtq_engine::PlanDelta::Step(step) => Some(step.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(streamed_steps.len(), 3);

    // The final plan is ranked, verified, and bit-identical to an
    // in-process submission of the same request.
    assert_eq!(plan.steps.len(), 3);
    assert!(plan
        .steps
        .windows(2)
        .all(|p| p[0].refinement.penalty <= p[1].refinement.penalty));
    assert!(plan.steps.iter().all(|s| s.verified));
    for step in &plan.steps {
        assert!(
            streamed_steps.contains(step),
            "ranked step missing from the stream"
        );
    }
    let direct = server.engine().submit(request);
    assert_eq!(
        ServerFrame::Reply(Response::Plan(plan)).encode(0),
        ServerFrame::Reply(direct).encode(0),
        "wire plan is not bit-identical to the in-process plan"
    );

    // A repeat of the same request is a cache hit: the plan arrives
    // whole, with zero partials.
    let mut repeat_deltas = Vec::new();
    let cached = client
        .submit_plan(&plan_request("p"), |delta| repeat_deltas.push(delta))
        .unwrap();
    assert!(repeat_deltas.is_empty(), "cache hits must not stream");
    assert_eq!(cached.steps.len(), 3);
    server.shutdown();
}

#[test]
fn first_plan_part_is_flushed_while_its_plan_still_runs() {
    // One connection and one request: nothing but the part's own wake
    // can flush it before the final reply does. The plan is a single
    // unbounded MWK — a few hundred milliseconds of sampling that no
    // incumbent shortens, behind two explanations that take none — and
    // deliberately shorter than the loop's 500 ms backstop tick, the only
    // other thing that would have flushed a lone client's part.
    let server = slow_fixture(2, 4);
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let request = Request::WhyNot {
        dataset: "slow3".into(),
        q: vec![5.0, 5.0, 5.0],
        k: 3,
        why_not: vec![vec![0.2, 0.3, 0.5], vec![0.6, 0.3, 0.1]],
        options: WhyNotOptions {
            strategies: vec![StrategyKind::Mwk],
            sample_size: if cfg!(debug_assertions) { 15 } else { 200 } * 1000,
            ..sampled()
        },
    };
    let plans_completed = || {
        let metrics = server.engine().metrics();
        let plans = metrics
            .per_kind
            .iter()
            .find(|kind| kind.kind == wqrtq_engine::RequestKind::WhyNot);
        plans.map_or(0, |kind| kind.requests)
    };
    let mut completed_at_part = Vec::new();
    let plan = client
        .submit_plan(&request, |_| completed_at_part.push(plans_completed()))
        .unwrap();
    assert_eq!(plan.steps.len(), 1);
    assert_eq!(plans_completed(), 1);
    assert_eq!(
        completed_at_part.first(),
        Some(&0),
        "the first part arrived only once its plan had completed"
    );
    server.shutdown();
}

#[test]
fn invalid_plan_options_over_the_wire_are_typed_engine_errors() {
    let server = serving_fixture();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let cases: Vec<(wqrtq_engine::WhyNotOptions, &str)> = vec![
        (
            wqrtq_engine::WhyNotOptions {
                tol: wqrtq_engine::Tolerances {
                    alpha: f64::NAN,
                    beta: 0.5,
                    gamma: 0.5,
                    lambda: 0.5,
                },
                ..wqrtq_engine::WhyNotOptions::default()
            },
            "non-finite",
        ),
        (
            wqrtq_engine::WhyNotOptions {
                tol: wqrtq_engine::Tolerances {
                    alpha: -1.0,
                    beta: 2.0,
                    gamma: 0.5,
                    lambda: 0.5,
                },
                ..wqrtq_engine::WhyNotOptions::default()
            },
            "non-negative",
        ),
        (
            wqrtq_engine::WhyNotOptions {
                strategies: Vec::new(),
                ..wqrtq_engine::WhyNotOptions::default()
            },
            "strategy set is empty",
        ),
    ];
    for (options, needle) in cases {
        let request = Request::WhyNot {
            dataset: "p".into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9]],
            options,
        };
        match client.submit_plan(&request, |_| panic!("rejected requests must not stream")) {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains(needle), "error `{msg}` lacks `{needle}`")
            }
            other => panic!("expected a typed server error, got {other:?}"),
        }
    }
    // The connection took no damage from the rejections.
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn plain_submit_of_a_plan_request_keeps_a_v2_connection_in_sync() {
    // submit() must absorb the streamed partials (only submit_plan
    // observes them) — otherwise the first ReplyPart would desync every
    // later round trip on the connection.
    let server = serving_fixture();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    match client.submit(&plan_request("p")).unwrap() {
        Response::Plan(plan) => assert_eq!(plan.steps.len(), 3),
        other => panic!("expected a plan, got {other:?}"),
    }
    // The connection took no damage: later round trips still pair up.
    client.ping().unwrap();
    match client.submit(&Request::TopK {
        dataset: "p".into(),
        weight: vec![0.5, 0.5],
        k: 1,
    }) {
        Ok(Response::TopK(points)) => assert_eq!(points.len(), 1),
        other => panic!("follow-up submit failed: {other:?}"),
    }
    // Engine-level failures still surface as Response::Error through
    // submit(), like for every other request kind.
    let mut bad = plan_request("p");
    if let Request::WhyNot { dataset, .. } = &mut bad {
        *dataset = "no-such-dataset".into();
    }
    match client.submit(&bad).unwrap() {
        Response::Error(msg) => assert!(msg.contains("unknown dataset"), "{msg}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    client.ping().unwrap();
    server.shutdown();
}

// ---------------------------------------------------------------------
// Event-loop edge states: frame reassembly across short reads, slow
// readers overflowing the bounded reply backlog, latency of depth-1
// round trips (the TCP_NODELAY regression canary), and multi-loop
// operation.
// ---------------------------------------------------------------------

#[test]
fn depth_one_round_trips_stay_under_the_nagle_bound() {
    // With TCP_NODELAY set on both ends a loopback ping round trip is
    // tens of microseconds; if either side loses the nodelay call the
    // Nagle/delayed-ACK interaction stretches it to ~40ms. The bound
    // leaves two orders of magnitude of scheduler headroom.
    let server = serving_fixture();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    for _ in 0..5 {
        client.ping().unwrap(); // warm-up
    }
    let mut rtts: Vec<Duration> = (0..50)
        .map(|_| {
            let started = Instant::now();
            client.ping().unwrap();
            started.elapsed()
        })
        .collect();
    rtts.sort_unstable();
    let p50 = rtts[rtts.len() / 2];
    assert!(
        p50 < Duration::from_millis(10),
        "depth-1 ping p50 {p50:?} exceeds the nodelay regression bound"
    );
    server.shutdown();
}

#[test]
fn frames_split_across_reads_reassemble() {
    // The read arena must stitch together a preamble and frames that
    // arrive one fragment per read(2): prefix split from payload,
    // payload split mid-way, and a second frame glued onto the tail
    // fragment of the first.
    let server = serving_fixture();
    let mut stream = raw_conn(&server);
    let trickle = |stream: &mut TcpStream, bytes: &[u8]| {
        stream.write_all(bytes).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    };
    trickle(&mut stream, &wqrtq_server::MAGIC_V2[..2]);
    trickle(&mut stream, &wqrtq_server::MAGIC_V2[2..]);
    assert!(matches!(
        read_frame(&mut stream),
        (_, ServerFrame::Hello { .. })
    ));

    let ping = ClientFrame::Ping.encode(1);
    let mut framed = (ping.len() as u32).to_le_bytes().to_vec();
    framed.extend_from_slice(&ping);
    // Length prefix alone, then half the payload, then the rest.
    trickle(&mut stream, &framed[..4]);
    trickle(&mut stream, &framed[4..6]);
    trickle(&mut stream, &framed[6..]);

    // Two-and-a-half frames in one burst, completed by a second write.
    let ping2 = ClientFrame::Ping.encode(2);
    let ping3 = ClientFrame::Ping.encode(3);
    let mut burst = (ping2.len() as u32).to_le_bytes().to_vec();
    burst.extend_from_slice(&ping2);
    burst.extend_from_slice(&(ping3.len() as u32).to_le_bytes());
    burst.extend_from_slice(&ping3[..3]);
    trickle(&mut stream, &burst);
    trickle(&mut stream, &ping3[3..]);

    for expect_id in 1..=3u64 {
        match read_frame(&mut stream) {
            (id, ServerFrame::Pong) => assert_eq!(id, expect_id),
            other => panic!("expected pong {expect_id}, got {other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.frames_in, 3);
    server.shutdown();
}

#[test]
fn slow_reader_overflowing_the_reply_backlog_is_killed() {
    // A client that stops reading replies gets its connection killed
    // once the bounded reply backlog overflows — the server must not
    // buffer unboundedly for a stalled peer, and the pool must keep
    // serving everyone else. Tiny kernel buffers on both ends make the
    // overflow reachable with a modest flood.
    let server = Server::builder()
        .engine(Engine::builder().workers(1).build())
        .admission_capacity(1)
        .socket_send_buffer(4096)
        .bind("127.0.0.1:0")
        .unwrap();
    server
        .engine()
        .register_dataset("p", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client.set_recv_buffer(4096).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // Flood pings without ever reading a pong. Control replies are not
    // best-effort: overflowing the backlog dooms the connection, after
    // which our writes start failing (reset) — both are fine.
    let mut sent = 0u32;
    for _ in 0..20_000 {
        match client.send(&ClientFrame::Ping) {
            Ok(_) => sent += 1,
            Err(_) => break,
        }
    }
    assert!(sent > 16, "flood too small to overflow the backlog");

    // The connection dies without us ever reading.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server.stats().connections_open == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slow reader was never killed: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn concurrent_connections_share_the_event_loop() {
    // Four threads hammer the same dataset through the one loop and
    // shared admission; every reply must pair up.
    let server = Server::builder()
        .engine(Engine::builder().workers(2).build())
        .bind("127.0.0.1:0")
        .unwrap();
    server
        .engine()
        .register_dataset("p", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect_v2(addr).unwrap();
                client
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                for _ in 0..50 {
                    match client
                        .submit(&Request::TopK {
                            dataset: "p".into(),
                            weight: vec![0.5, 0.5],
                            k: 2,
                        })
                        .unwrap()
                    {
                        Response::TopK(points) => assert_eq!(points.len(), 2),
                        other => panic!("expected a top-k reply, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    // A client can read its last reply a hair before the loop thread
    // publishes the matching counter bump, so give the stats a moment
    // to settle before asserting on them.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = server.stats();
        if (stats.frames_in >= 200 && stats.frames_out >= 204)
            || std::time::Instant::now() >= deadline
        {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(stats.connections_accepted, 4);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.busy_rejections, 0);
    assert_eq!(stats.frames_in, 200);
    assert_eq!(stats.frames_out, 204, "200 replies + one Hello each");
    server.shutdown();
}

/// Polls the server's open-connection gauge until it reads `want`.
fn await_open(server: &Server, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().connections_open != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().connections_open, want);
}

#[test]
fn idle_and_half_greeted_peers_do_not_stall_a_working_connection() {
    // 400 peers hold connections without finishing a request: 200
    // greeted and silent, 200 stuck two bytes into the four-byte
    // preamble. About 800 fds with both ends in this process, so the
    // test fits a 1 024-fd soft limit.
    let server = serving_fixture();
    let mut idle: Vec<TcpStream> = (0..200).map(|_| greeted_raw_conn(&server)).collect();
    for _ in 0..200 {
        let mut stream = raw_conn(&server);
        stream.write_all(&wqrtq_server::MAGIC_V2[..2]).unwrap();
        idle.push(stream);
    }
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let requests: Vec<Request> = (0..100)
        .map(|i| Request::TopK {
            dataset: "p".into(),
            weight: vec![i as f64 / 100.0, 1.0 - i as f64 / 100.0],
            k: 2,
        })
        .collect();
    let burst: Vec<&Request> = requests.iter().collect();
    let ids = client.send_request_batch(&burst).unwrap();
    let mut pending: std::collections::HashSet<u64> = ids.into_iter().collect();
    while !pending.is_empty() {
        let (id, frame) = client.recv().unwrap();
        assert!(pending.remove(&id), "duplicate or unknown reply id {id}");
        match frame {
            ServerFrame::Reply(Response::TopK(points)) => assert_eq!(points.len(), 2),
            other => panic!("expected a top-k reply, got {other:?}"),
        }
    }
    await_open(&server, 401);
    drop(idle);
    await_open(&server, 1);
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn pipelined_batch_submit_round_trips_every_reply() {
    // send_request_batch writes a burst with one flush; the server
    // decodes it from few reads and hands the engine one batch. Every
    // id must come back exactly once (order may vary).
    let server = serving_fixture();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let request = Request::TopK {
        dataset: "p".into(),
        weight: vec![0.5, 0.5],
        k: 1,
    };
    let burst: Vec<&Request> = (0..32).map(|_| &request).collect();
    let ids = client.send_request_batch(&burst).unwrap();
    let mut pending: std::collections::HashSet<u64> = ids.into_iter().collect();
    while !pending.is_empty() {
        let (id, frame) = client.recv().unwrap();
        assert!(pending.remove(&id), "duplicate or unknown reply id {id}");
        match frame {
            ServerFrame::Reply(Response::TopK(points)) => assert_eq!(points.len(), 1),
            other => panic!("expected a top-k reply, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn a_plan_pipelined_between_top_ks_streams_its_parts_before_its_reply() {
    // One write carries TopKs on both sides of a plan. The index is not
    // built yet, so the loop serves none of them inline: the plan rides
    // the cycle's batch with its part observer attached.
    let server = serving_fixture();
    let twin = Engine::builder().workers(2).build();
    twin.register_dataset("p", 2, PRODUCTS_2D.to_vec()).unwrap();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let topk = |k: usize| Request::TopK {
        dataset: "p".into(),
        weight: vec![0.5, 0.5],
        k,
    };
    let requests = vec![topk(1), topk(2), plan_request("p"), topk(3), topk(4)];
    let burst: Vec<&Request> = requests.iter().collect();
    let ids = client.send_request_batch(&burst).unwrap();
    let plan_id = ids[2];
    let mut parts = 0;
    let mut replies = std::collections::HashMap::new();
    while replies.len() < ids.len() {
        let (id, frame) = client.recv().unwrap();
        match frame {
            ServerFrame::ReplyPart(_) => {
                assert_eq!(id, plan_id, "only the plan streams parts");
                assert!(!replies.contains_key(&id), "a part after its reply");
                parts += 1;
            }
            ServerFrame::Reply(response) => {
                assert!(ids.contains(&id), "unknown reply id {id}");
                assert!(replies.insert(id, response).is_none(), "id {id} twice");
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(parts, 5, "2 explanations + 3 strategy steps");
    for (id, request) in ids.iter().zip(requests) {
        let label = format!("{request:?}");
        assert_eq!(
            ServerFrame::Reply(replies.remove(id).unwrap()).encode(0),
            ServerFrame::Reply(twin.submit(request)).encode(0),
            "{label}: not bit-identical to a direct submit"
        );
    }
    server.shutdown();
}

#[test]
fn server_stats_equal_the_wire_stats_reply_at_quiescence() {
    let server = serving_fixture();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    client.ping().unwrap();
    client
        .submit(&Request::TopK {
            dataset: "p".into(),
            weight: vec![0.5, 0.5],
            k: 1,
        })
        .unwrap();
    let wire = client.stats().unwrap().server.expect("server slot filled");
    // The reply was captured before it was written: one frame and one
    // write later, the server's own reading is the same, field for field.
    let expected = wqrtq_engine::ServerCounters {
        frames_out: wire.frames_out + 1,
        write_syscalls: wire.write_syscalls + 1,
        ..wire
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats() != expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats(), expected);
    server.shutdown();
}

#[test]
fn a_reset_connection_drops_its_queued_reads() {
    // One worker, eight distinct slow requests in one write: the first
    // runs while the rest queue. The peer then leaves with our Hello
    // unread, which reaches the server as a reset, not an EOF; the
    // reads still queued for it are skipped instead of run for nobody.
    let server = slow_fixture(1, 64);
    let executed = || {
        let metrics = server.engine().metrics();
        let mono = metrics
            .per_kind
            .iter()
            .find(|kind| kind.kind == wqrtq_engine::RequestKind::ReverseTopKMono);
        mono.map_or(0, |kind| kind.requests)
    };
    {
        let mut stream = raw_conn(&server);
        let mut burst = wqrtq_server::MAGIC_V2.to_vec();
        for id in 1..=8u64 {
            let mut request = slow_request("slow3");
            if let Request::ReverseTopKMono { samples, seed, .. } = &mut request {
                *samples = 200_000;
                *seed = id;
            }
            let payload = ClientFrame::Submit(request).encode(id);
            burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            burst.extend_from_slice(&payload);
        }
        stream.write_all(&burst).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().frames_in < 8 {
            assert!(Instant::now() < deadline, "frames never read");
            std::thread::sleep(Duration::from_millis(1));
        }
    } // dropped with the Hello unread: the kernel resets the connection
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = server.stats();
        if stats.in_flight == 0 && stats.connections_open == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "never drained: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let ran = executed();
    assert!(ran <= 2, "{ran} of 8 slow reads ran for a reset peer");
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn a_reset_peer_s_max_budget_plans_stop_and_free_both_workers() {
    // Two valid plans at the sampling cap (|S| = |Q| = 2^20, the engine's
    // `MAX_SAMPLE_BUDGET`) over IND 100k×3 hold both workers of the pool;
    // run out, each would take hours. The peer then leaves with our Hello
    // unread, which reaches the server as a reset and dooms the
    // connection: the plans stop between steps or within a chunk of
    // samples, and a `TopK` past one leaf (never answered on the loop)
    // on a second connection is served within `BOUND` of the reset.
    const BUDGET: usize = 1 << 20;
    const BOUND: Duration = Duration::from_secs(10);
    let server = Server::builder()
        .engine(Engine::builder().workers(2).build())
        .bind("127.0.0.1:0")
        .unwrap();
    let coords = scatter(100_000, 3, 2015);
    server
        .engine()
        .register_dataset("ind", 3, coords.clone())
        .unwrap();
    server.engine().catalog().handle("ind").unwrap();
    // A point near the origin corner, and a vector ranking it in the
    // thousands.
    let q = vec![1.5, 0.5, 0.5];
    let why_not = vec![0.8, 0.1, 0.1];
    let score = |p: &[f64]| p.iter().zip(&why_not).map(|(a, b)| a * b).sum::<f64>();
    let rank = coords
        .chunks_exact(3)
        .filter(|p| score(p) < score(&q))
        .count()
        + 1;
    assert!(rank > 10, "q ranks {rank}: not a why-not question");
    {
        let mut stream = raw_conn(&server);
        let mut burst = wqrtq_server::MAGIC_V2.to_vec();
        for id in 1..=2u64 {
            let plan = Request::WhyNot {
                dataset: "ind".into(),
                q: q.clone(),
                k: 10,
                why_not: vec![why_not.clone()],
                options: WhyNotOptions {
                    sample_size: BUDGET,
                    query_samples: BUDGET,
                    seed: id,
                    ..WhyNotOptions::default()
                },
            };
            let payload = ClientFrame::Submit(plan).encode(id);
            burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            burst.extend_from_slice(&payload);
        }
        stream.write_all(&burst).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().frames_in < 2 {
            assert!(Instant::now() < deadline, "frames never read");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Let both workers claim their plan and get going.
        std::thread::sleep(Duration::from_millis(100));
    } // dropped with the Hello unread: the kernel resets the connection
    let reset = Instant::now();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(BOUND + Duration::from_secs(5)))
        .unwrap();
    let top = client
        .submit(&Request::TopK {
            dataset: "ind".into(),
            weight: vec![0.2, 0.3, 0.5],
            k: 100,
        })
        .unwrap();
    let waited = reset.elapsed();
    assert!(
        matches!(top, Response::TopK(ref t) if t.len() == 100),
        "{top:?}"
    );
    assert!(
        waited < BOUND,
        "the TopK waited {waited:?} behind doomed plans"
    );
    let deadline = Instant::now() + BOUND;
    while server.stats().in_flight != 0 {
        assert!(Instant::now() < deadline, "the doomed plans never drained");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}
