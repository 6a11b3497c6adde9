//! Regression: `k = 0` is a wire-reachable input that passes request
//! validation (no coordinate is malformed) and why-not validation (no
//! rank is ≤ 0). It used to reach `assert!(k >= 1)` in the k-th-point
//! search and kill the request with a worker panic; it must be a typed
//! error instead — in process and over wire v2 — while `TopK { k: 0 }`,
//! which has a perfectly good answer, keeps returning the empty list.

use std::time::Duration;
use wqrtq::prelude::*;
use wqrtq::server::ClientError;

const PRODUCTS_2D: [f64; 14] = [
    2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
];

fn why_not(k: usize) -> Request {
    Request::WhyNot {
        dataset: "p".into(),
        q: vec![4.0, 4.0],
        k,
        why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
        options: WhyNotOptions::default(),
    }
}

fn refine(k: usize) -> Request {
    Request::WhyNot {
        dataset: "p".into(),
        q: vec![4.0, 4.0],
        k,
        why_not: vec![vec![0.1, 0.9]],
        options: WhyNotOptions {
            strategies: vec![StrategyKind::Mqp],
            exact_2d: false,
            ..WhyNotOptions::default()
        },
    }
}

fn top(k: usize) -> Request {
    Request::TopK {
        dataset: "p".into(),
        weight: vec![0.5, 0.5],
        k,
    }
}

fn assert_typed_zero_k(message: &str) {
    assert!(
        !message.contains("panicked"),
        "a worker panicked: {message}"
    );
    assert!(message.contains("k must be at least 1"), "{message}");
}

#[test]
fn zero_k_why_not_is_a_typed_error_through_engine_submit() {
    let engine = Engine::builder().workers(2).build();
    engine
        .register_dataset("p", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    for request in [why_not(0), refine(0)] {
        match engine.submit(request) {
            Response::Error(message) => assert_typed_zero_k(&message),
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
    assert_eq!(engine.submit(top(0)), Response::TopK(vec![]));
    // The same requests with a real k still serve.
    assert!(matches!(engine.submit(why_not(3)), Response::Plan(_)));
    assert!(!engine.submit(refine(3)).is_error());
}

#[test]
fn zero_k_why_not_is_a_typed_error_over_wire_v2() {
    let server = Server::builder()
        .engine(Engine::builder().workers(2).build())
        .bind("127.0.0.1:0")
        .unwrap();
    server
        .engine()
        .register_dataset("p", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    let mut client = Client::connect_v2(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    match client.submit_plan(&why_not(0), |_| {}) {
        Err(ClientError::Server(message)) => assert_typed_zero_k(&message),
        other => panic!("expected a typed server error, got {other:?}"),
    }
    match client.submit(&refine(0)).unwrap() {
        Response::Error(message) => assert_typed_zero_k(&message),
        other => panic!("expected a typed error, got {other:?}"),
    }
    assert_eq!(client.submit(&top(0)).unwrap(), Response::TopK(vec![]));
    // The connection and the pool behind it are still healthy.
    assert!(client.submit_plan(&why_not(3), |_| {}).is_ok());
    server.shutdown();
}
