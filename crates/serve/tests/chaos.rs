//! Fault drills for the supervised serving layer (`DESIGN.md` §13).
//!
//! Every test runs a [`Server`] under a deterministic [`ChaosPlan`] and
//! proves the supervision invariants: an injected worker panic fails the
//! in-flight batch's tickets with [`ServeError::WorkerFailed`] — promptly,
//! never a hang — the restarted worker keeps serving bit-identical
//! answers, and a shard that exhausts its restart budget is failed loudly
//! (admission routes around it; `shutdown` names it) instead of
//! abandoning clients.

use disthd_linalg::{RngSeed, SeededRng};
use disthd_serve::{
    BatchPolicy, ChaosPlan, Prediction, RetryPolicy, ServeError, Server, ServerOptions,
    SnapshotError, SnapshotStore, SubmitOptions,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn injected_panic_fails_the_batch_promptly_and_the_worker_restarts() {
    // Regression for the client hang when a shard dies mid-batch: before
    // supervision, the panicked worker dropped the batch's responders and
    // every waiter blocked forever.
    let chaos = Arc::new(ChaosPlan::panic_at_flushes(&[0]));
    let server = Server::spawn_chaotic(
        disthd_serve::testkit::tiny_deployment(),
        BatchPolicy::window(1),
        ServerOptions::sharded(1),
        Arc::clone(&chaos),
    );
    let client = server.client();
    let q = disthd_serve::testkit::tiny_queries(1).remove(0);

    let started = Instant::now();
    let err = client.predict(&q).unwrap_err();
    assert!(
        matches!(err, ServeError::WorkerFailed { shard: 0 }),
        "in-flight ticket must fail with the shard id, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the failed ticket must resolve promptly, not hang"
    );

    // Flush 0 is spent; the restarted worker serves the same traffic with
    // the same answers as a fault-free server.
    let expected = {
        let clean = Server::spawn(
            disthd_serve::testkit::tiny_deployment(),
            BatchPolicy::window(1),
        );
        let class = clean.client().predict(&q).unwrap();
        clean.shutdown().unwrap();
        class
    };
    assert_eq!(client.predict(&q).unwrap(), expected);

    let stats = server.shutdown().unwrap();
    assert_eq!(stats.worker_restarts, 1);
    assert_eq!(stats.failed_batches, 1);
    assert_eq!(stats.served, 1);
}

#[test]
fn exhausted_restart_budget_fails_the_shard_and_everything_queued_on_it() {
    // Budget 0: the first panic kills the shard.  Nothing queued may hang —
    // the supervisor drains and fails the queue, admission rejects new
    // work with the shard id, and shutdown reports the casualty instead of
    // panicking.
    let chaos = Arc::new(ChaosPlan::panic_at_flushes(&[0]));
    let server = Server::spawn_chaotic(
        disthd_serve::testkit::tiny_deployment(),
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::from_millis(1),
        },
        ServerOptions {
            shards: 1,
            max_worker_restarts: 0,
            ..ServerOptions::default()
        },
        chaos,
    );
    let client = server.client();
    let q = disthd_serve::testkit::tiny_queries(1).remove(0);

    // Fire a burst; whether each request is admitted before the shard dies
    // or rejected after, it must resolve to WorkerFailed naming shard 0.
    let mut outcomes = Vec::new();
    for _ in 0..3 {
        match client.submit(&q) {
            Ok(pending) => outcomes.push(pending.wait()),
            Err(e) => outcomes.push(Err(e)),
        }
    }
    for (i, outcome) in outcomes.iter().enumerate() {
        assert!(
            matches!(outcome, Err(ServeError::WorkerFailed { shard: 0 })),
            "request {i}: {outcomes:?}"
        );
    }

    // The dead shard is permanent: later submissions are rejected up front.
    assert!(matches!(
        client.submit(&q),
        Err(ServeError::WorkerFailed { shard: 0 })
    ));

    match server.shutdown() {
        Err(ServeError::WorkerFailed { shard }) => assert_eq!(shard, 0),
        other => panic!("shutdown must name the dead shard, got {other:?}"),
    }
}

#[test]
fn surviving_shards_keep_serving_while_one_is_dead() {
    // Two shards, shard-killing budget, one scheduled panic: the casualty
    // is routed around and the survivor answers everything afterwards.
    let chaos = Arc::new(ChaosPlan::panic_at_flushes(&[0]));
    let server = Server::spawn_chaotic(
        disthd_serve::testkit::tiny_deployment(),
        BatchPolicy::window(1),
        ServerOptions {
            shards: 2,
            max_worker_restarts: 0,
            ..ServerOptions::default()
        },
        chaos,
    );
    let client = server.client();
    let q = disthd_serve::testkit::tiny_queries(1).remove(0);

    // Drive until the scheduled panic lands (whichever worker claims flush
    // 0 takes it), then prove the server still serves.
    let mut failed = 0;
    let mut served = 0;
    for _ in 0..16 {
        match client.predict(&q) {
            Ok(_) => served += 1,
            Err(ServeError::WorkerFailed { .. }) => failed += 1,
            Err(e) => panic!("unexpected error under single-panic chaos: {e}"),
        }
    }
    assert_eq!(failed, 1, "exactly the scheduled panic fails a request");
    assert_eq!(served, 15);

    match server.shutdown() {
        Err(ServeError::WorkerFailed { shard }) => assert!(shard < 2),
        other => panic!("shutdown must name the dead shard, got {other:?}"),
    }
}

#[test]
fn slow_shard_stalls_delay_but_never_drop_answers() {
    let chaos = Arc::new(ChaosPlan::none().and_stalls(&[
        (0, Duration::from_millis(30)),
        (2, Duration::from_millis(30)),
    ]));
    let server = Server::spawn_chaotic(
        disthd_serve::testkit::tiny_deployment(),
        BatchPolicy::window(4),
        ServerOptions::sharded(2),
        Arc::clone(&chaos),
    );
    let client = server.client();
    let queries = disthd_serve::testkit::tiny_queries(32);
    let pending: Vec<Prediction> = queries.iter().map(|q| client.submit(q).unwrap()).collect();
    for p in pending {
        p.wait().unwrap();
    }
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 32);
    assert_eq!(stats.worker_restarts, 0);
    assert_eq!(stats.failed_batches, 0);
}

#[test]
fn disarmed_chaos_serves_like_a_fault_free_server() {
    // A seeded schedule that would panic every early flush, disarmed before
    // traffic: nothing fires, and the post-chaos baseline path (what the
    // soak test checks) is plain fault-free serving.
    let chaos = Arc::new(ChaosPlan::seeded(
        0xc4a05,
        64,
        64,
        8,
        Duration::from_millis(5),
    ));
    let server = Server::spawn_chaotic(
        disthd_serve::testkit::tiny_deployment(),
        BatchPolicy::window(4),
        ServerOptions::sharded(2),
        chaos,
    );
    server.disarm_chaos();
    let client = server.client();
    for q in disthd_serve::testkit::tiny_queries(16) {
        client.predict(&q).unwrap();
    }
    let stats = server.shutdown().unwrap();
    assert_eq!(stats.served, 16);
    assert_eq!(stats.worker_restarts, 0);
    assert_eq!(stats.failed_batches, 0);
}

#[test]
fn deadlines_are_still_honoured_while_chaos_is_firing() {
    // A stalled worker holds its batch past a queued request's deadline;
    // the deadline belongs to the *next* batch, which must still be shed
    // on time once the worker comes back — chaos must not break the
    // admission contract.
    let chaos = Arc::new(ChaosPlan::panic_at_flushes(&[0]));
    let server = Server::spawn_chaotic(
        disthd_serve::testkit::tiny_deployment(),
        BatchPolicy {
            max_batch: 1024,
            max_wait: Duration::from_secs(5),
        },
        ServerOptions::sharded(1),
        chaos,
    );
    let client = server.client();
    let q = disthd_serve::testkit::tiny_queries(1).remove(0);
    // First request eats the scheduled panic.
    assert!(matches!(
        client.predict(&q),
        Err(ServeError::WorkerFailed { shard: 0 })
    ));
    // Restarted worker: a deadlined lone request is shed at its deadline,
    // not at the 5 s patience.
    let started = Instant::now();
    let err = client
        .submit_with(&q, SubmitOptions::within(Duration::from_millis(25)))
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");
    assert!(started.elapsed() < Duration::from_secs(2));
    server.shutdown().unwrap();
}

/// Seed of every fault schedule in the combined soak — one knob,
/// replayable.
const SOAK_SEED: u64 = 0x0D15_C0DE;
/// Closed-loop clients in the soak; half retry overloads, half carry a
/// deadline tighter than a stall.
const SOAK_CLIENTS: usize = 4;
/// Requests each client issues: the soak is bounded by count, not time.
const SOAK_REQUESTS_PER_CLIENT: usize = 150;
/// Batch window, and so the most tickets one injected panic can fail.
const SOAK_WINDOW: usize = 4;
/// Flush horizon the seeded faults are scattered over.  Closed-loop
/// clients keep at most one request in flight each, so the soak runs at
/// least `600 / SOAK_CLIENTS = 150` flushes and crosses the whole horizon.
const SOAK_HORIZON: u64 = 64;
const SOAK_PANICS: usize = 6;
const SOAK_STALLS: usize = 8;
/// Stalled flushes sleep longer than the deadline clients' budget, so
/// stalls exercise the deadline-shed path, not just latency.
const SOAK_PAUSE: Duration = Duration::from_millis(50);
const SOAK_DEADLINE: Duration = Duration::from_millis(20);

/// How each soak request resolved.
#[derive(Debug, Default)]
struct Outcomes {
    submitted: u64,
    answered: u64,
    overloaded: u64,
    deadline: u64,
    worker_failed: u64,
}

/// The combined chaos drill: a supervised two-shard server under seeded
/// worker panics and slow-shard stalls, hammered by retrying and
/// deadline-carrying clients while a writer alternates bit-flipped and
/// pristine installs.  The pristine generation itself comes through
/// `restore_or_rollback` past a corrupted snapshot.  Afterwards the plan is
/// disarmed and the server must answer exactly like the fault-free model.
fn chaos_soak() {
    let deployment = disthd_serve::testkit::tiny_deployment();
    let queries = disthd_serve::testkit::tiny_queries(32);
    let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
    let expected = deployment
        .predict_batch(&disthd_linalg::Matrix::from_row_slices(queries[0].len(), &refs).unwrap())
        .unwrap();

    // Integrity drill: a snapshot corrupted mid-blob fails closed with a
    // named checksum error, and rollback serves the last good version.
    let mut snapshots = SnapshotStore::new(4);
    let good = snapshots.push(&deployment).unwrap();
    let rotted = snapshots.push(&deployment).unwrap();
    let blob_bits = snapshots.bytes(rotted).unwrap().len() * 8;
    assert!(snapshots.flip_stored_bit(rotted, blob_bits / 2));
    assert!(matches!(
        snapshots.restore(rotted),
        Err(SnapshotError::Persist(_))
    ));
    let (restored, pristine) = snapshots.restore_or_rollback(rotted).unwrap();
    assert_eq!(restored, good, "rollback must land on the intact snapshot");

    let server = Server::spawn_chaotic(
        deployment.clone(),
        BatchPolicy::window(SOAK_WINDOW),
        ServerOptions::sharded(2),
        Arc::new(ChaosPlan::seeded(
            SOAK_SEED,
            SOAK_HORIZON,
            SOAK_PANICS,
            SOAK_STALLS,
            SOAK_PAUSE,
        )),
    );
    let clients_done = AtomicBool::new(false);
    let (outcomes, faulty_installs) = std::thread::scope(|s| {
        let writer = {
            let client = server.client();
            let (pristine, clients_done) = (&pristine, &clients_done);
            s.spawn(move || {
                let mut rng = SeededRng::derive_stream(RngSeed(SOAK_SEED), 2);
                let mut installs = 0u64;
                loop {
                    let mut faulty = pristine.clone();
                    faulty.inject_faults(0.02, &mut rng);
                    client.install_model(faulty).unwrap();
                    installs += 1;
                    std::thread::sleep(Duration::from_millis(2));
                    client.install_model(pristine.clone()).unwrap();
                    if clients_done.load(Ordering::Acquire) {
                        return installs;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        let hammers: Vec<_> = (0..SOAK_CLIENTS)
            .map(|t| {
                let client = server.client();
                let queries = &queries;
                s.spawn(move || {
                    let retry = RetryPolicy {
                        seed: SOAK_SEED ^ t as u64,
                        ..RetryPolicy::default()
                    };
                    let mut outcomes = Outcomes::default();
                    for i in 0..SOAK_REQUESTS_PER_CLIENT {
                        let row = &queries[(t + i * SOAK_CLIENTS) % queries.len()];
                        outcomes.submitted += 1;
                        let outcome = if t % 2 == 0 {
                            client.predict_with_retry(row, retry)
                        } else {
                            client.predict_within(row, SOAK_DEADLINE)
                        };
                        match outcome {
                            Ok(_) => outcomes.answered += 1,
                            Err(ServeError::Overloaded) => outcomes.overloaded += 1,
                            Err(ServeError::DeadlineExceeded) => outcomes.deadline += 1,
                            Err(ServeError::WorkerFailed { .. }) => outcomes.worker_failed += 1,
                            Err(e) => panic!("unexpected chaos-soak error: {e}"),
                        }
                    }
                    outcomes
                })
            })
            .collect();
        // Join every client before stopping the writer, so a failing client
        // surfaces its panic instead of leaving the writer spinning.
        let joined: Vec<_> = hammers.into_iter().map(|h| h.join()).collect();
        clients_done.store(true, Ordering::Release);
        let mut totals = Outcomes::default();
        for o in joined {
            let o = o.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            totals.submitted += o.submitted;
            totals.answered += o.answered;
            totals.overloaded += o.overloaded;
            totals.deadline += o.deadline;
            totals.worker_failed += o.worker_failed;
        }
        (totals, writer.join().unwrap())
    });

    // Every ticket resolved to an answer or a named error; none was lost.
    let resolved =
        outcomes.answered + outcomes.overloaded + outcomes.deadline + outcomes.worker_failed;
    assert_eq!(
        outcomes.submitted,
        (SOAK_CLIENTS * SOAK_REQUESTS_PER_CLIENT) as u64
    );
    assert_eq!(resolved, outcomes.submitted, "{outcomes:?}");
    // Failures are bounded by the blast radius of the seeded panics.
    assert!(
        outcomes.worker_failed <= (SOAK_PANICS * SOAK_WINDOW) as u64,
        "{outcomes:?}"
    );
    assert!(faulty_installs > 0);

    // Faults off, the rolled-back pristine generation in: the server must
    // answer exactly like the fault-free model.
    server.disarm_chaos();
    let client = server.client();
    client.install_model(pristine).unwrap();
    let pending: Vec<Prediction> = queries.iter().map(|q| client.submit(q).unwrap()).collect();
    let post: Vec<usize> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
    assert_eq!(post, expected, "post-chaos predictions diverged");

    let stats = server
        .shutdown()
        .expect("no shard may exhaust its restart budget under the seeded schedule");
    assert!(
        (1..=SOAK_PANICS as u64).contains(&stats.failed_batches),
        "the seeded panics must fire within the horizon: {stats:?}"
    );
    assert_eq!(stats.worker_restarts, stats.failed_batches);
    assert!(stats.flushes >= SOAK_HORIZON, "{stats:?}");
}

#[test]
fn seeded_chaos_soak_loses_no_ticket_and_recovers_bit_identical_answers() {
    // A wedged server (lost wakeup, hung ticket) must fail the test, not
    // hang it: the drill runs on its own thread under a generous timeout.
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(chaos_soak);
        let _ = done.send(result);
    });
    match finished.recv_timeout(Duration::from_secs(120)) {
        Ok(Ok(())) => {}
        Ok(Err(panic)) => std::panic::resume_unwind(panic),
        Err(_) => panic!("chaos soak did not finish within 120 s: wedged server"),
    }
}
