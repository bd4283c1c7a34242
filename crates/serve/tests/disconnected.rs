//! `ServeError::Disconnected` coverage: every way a client can touch a
//! dead or dying server must resolve to a prompt error, never a hang.

use disthd_serve::{
    BatchPolicy, ChaosPlan, Prediction, ServeError, Server, ServerOptions, TaskKind,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn check_submit_after_shutdown(shards: usize) {
    let server = Server::spawn_sharded(
        disthd_serve::testkit::tiny_deployment(),
        BatchPolicy::window(4),
        shards,
    );
    let client = server.client();
    let q = disthd_serve::testkit::tiny_queries(1).remove(0);
    client.predict(&q).unwrap();
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 1, "{shards} shards");

    // Every entry point on a dead server is Disconnected, immediately.
    assert!(matches!(client.submit(&q), Err(ServeError::Disconnected)));
    assert!(matches!(
        client.submit_task(&q, TaskKind::TopK),
        Err(ServeError::Disconnected)
    ));
    assert!(matches!(client.predict(&q), Err(ServeError::Disconnected)));
    assert!(matches!(
        client.predict_within(&q, Duration::from_millis(10)),
        Err(ServeError::Disconnected)
    ));
    assert!(matches!(
        client.swap_class_memory(
            disthd_serve::testkit::tiny_deployment()
                .memory_parts()
                .clone()
        ),
        Err(ServeError::Disconnected)
    ));
    assert!(matches!(
        client.install_model(disthd_serve::testkit::tiny_deployment()),
        Err(ServeError::Disconnected)
    ));
}

#[test]
fn submit_after_shutdown_is_disconnected_one_shard() {
    check_submit_after_shutdown(1);
}

#[test]
fn submit_after_shutdown_is_disconnected_four_shards() {
    check_submit_after_shutdown(4);
}

fn check_submit_during_shutdown_race(shards: usize) {
    // Clients hammer submissions while the main thread shuts the server
    // down.  The admission contract: every submission either lands — and
    // its ticket is answered by the drain — or is rejected Disconnected.
    // Nothing may hang and nothing may be silently dropped.
    let server = Server::spawn_sharded(
        disthd_serve::testkit::tiny_deployment(),
        BatchPolicy::window(8),
        shards,
    );
    let q = disthd_serve::testkit::tiny_queries(1).remove(0);
    let stop = AtomicBool::new(false);
    let (admitted, rejected) = std::thread::scope(|s| {
        let hammers: Vec<_> = (0..4)
            .map(|_| {
                let client = server.client();
                let (q, stop) = (&q, &stop);
                s.spawn(move || {
                    let mut admitted = 0u64;
                    let mut rejected = 0u64;
                    while !stop.load(Ordering::Relaxed) || admitted + rejected == 0 {
                        match client.submit(q) {
                            Ok(pending) => {
                                pending.wait().expect("admitted queries are drained");
                                admitted += 1;
                            }
                            Err(ServeError::Disconnected) => {
                                rejected += 1;
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                            }
                            Err(e) => panic!("unexpected error during shutdown race: {e}"),
                        }
                    }
                    (admitted, rejected)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let stats = server.shutdown().unwrap();
        stop.store(true, Ordering::Relaxed);
        let mut admitted = 0;
        let mut rejected = 0;
        for h in hammers {
            let (a, r) = h.join().unwrap();
            admitted += a;
            rejected += r;
        }
        assert_eq!(
            stats.served, admitted,
            "{shards} shards: every admitted query must be served exactly once"
        );
        (admitted, rejected)
    });
    assert!(
        admitted > 0,
        "{shards} shards: race never admitted anything"
    );
    // `rejected` may legitimately be 0 if the hammers outpaced shutdown.
    let _ = rejected;
}

#[test]
fn submit_during_shutdown_race_loses_nothing_one_shard() {
    check_submit_during_shutdown_race(1);
}

#[test]
fn submit_during_shutdown_race_loses_nothing_four_shards() {
    check_submit_during_shutdown_race(4);
}

fn check_tickets_resolve_after_drop(shards: usize) {
    // Dropping the server (no shutdown call) still drains: tickets taken
    // out before the drop must resolve promptly — answered by the drain —
    // and never leave a waiter hanging on a dropped responder.  Every
    // worker's first batch stalls, so most tickets are still queued when
    // the server is dropped.
    let stalls: Vec<(u64, Duration)> = (0..shards as u64)
        .map(|flush| (flush, Duration::from_millis(100)))
        .collect();
    let server = Server::spawn_chaotic(
        disthd_serve::testkit::tiny_deployment(),
        BatchPolicy::window(1),
        ServerOptions::sharded(shards),
        Arc::new(ChaosPlan::none().and_stalls(&stalls)),
    );
    let client = server.client();
    let queries = disthd_serve::testkit::tiny_queries(8);
    let pending: Vec<Prediction> = queries.iter().map(|q| client.submit(q).unwrap()).collect();
    drop(server);
    for p in pending {
        p.wait().expect("queued tickets are drained on drop");
    }
    let q = &queries[0];
    assert!(matches!(client.predict(q), Err(ServeError::Disconnected)));
}

#[test]
fn tickets_resolve_after_drop_one_shard() {
    check_tickets_resolve_after_drop(1);
}

#[test]
fn tickets_resolve_after_drop_four_shards() {
    check_tickets_resolve_after_drop(4);
}
