//! Serving the paper's Figure 1 example over TCP.
//!
//! Starts a [`wqrtq_server::Server`] on an ephemeral port, registers the
//! products dataset and the customer population over the wire, then
//! drives pipelined queries through a [`wqrtq_server::Client`] — the same
//! protocol the `benchmark/` workloads load-test.
//!
//! ```text
//! cargo run --example server_quickstart
//! ```

use wqrtq::prelude::*;
use wqrtq_server::ClientFrame;

fn main() {
    let server = Server::builder()
        .engine(Engine::builder().workers(2).build())
        .admission_capacity(64)
        .bind("127.0.0.1:0")
        .expect("bind ephemeral port");
    println!("serving on {}", server.local_addr());

    let mut client = Client::connect_v2(server.local_addr()).expect("connect");
    client
        .register_dataset(
            "products",
            2,
            &[
                2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
            ],
        )
        .expect("register products");
    client
        .register_weights(
            "customers",
            &[
                vec![0.1, 0.9], // Kevin
                vec![0.5, 0.5], // Tony
                vec![0.3, 0.7], // Anna
                vec![0.9, 0.1], // Julia
            ],
        )
        .expect("register customers");

    // One blocking round trip.
    let response = client
        .submit(&Request::ReverseTopKBi {
            dataset: "products".into(),
            weights: WeightSet::Named("customers".into()),
            q: vec![4.0, 4.0],
            k: 3,
        })
        .expect("reverse top-k");
    println!("customers with Apple in their top-3: {response:?}");

    // Pipelining: several requests in flight on one connection, answers
    // matched back by request id (they may arrive out of order).
    let ids: Vec<u64> = (1..=3)
        .map(|k| {
            client
                .send(&ClientFrame::Submit(Request::TopK {
                    dataset: "products".into(),
                    weight: vec![0.5, 0.5],
                    k,
                }))
                .expect("pipelined send")
        })
        .collect();
    for _ in &ids {
        let (id, frame) = client.recv().expect("pipelined recv");
        println!("response for request {id}: {frame:?}");
    }

    println!("server stats: {:?}", server.stats());
    server.shutdown();
    println!("drained and shut down");
}
