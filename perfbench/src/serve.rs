//! Serving-side measurement: the open-loop generator, the saturating burst,
//! and the per-call probes of the deployed model's layers.
//!
//! ## Open loop and reply timing
//!
//! One generator thread sends requests at their seeded Poisson due times
//! and one collector thread redeems them.  Latency runs from each
//! request's **due** time, so a stalled generator or server charges the
//! wait to every request it delays, and the generator's lateness is
//! reported on its own.  `Prediction` only offers a blocking `wait`, so
//! the collector waits on tickets in submission order and timestamps each
//! reply as its wait returns.  With one shard the server answers strictly
//! in FIFO order, so a reply can never be ready before the one the
//! collector is waiting on, and these timestamps are exact up to the
//! collector's own per-reply work.

use crate::cpu;
use crate::schedule;
use crate::stats::median;
use disthd::DeployedModel;
use disthd_eval::ModelError;
use disthd_hd::encoder::Encoder;
use disthd_hd::packed_predict_batch;
use disthd_linalg::Matrix;
use disthd_serve::{BatchPolicy, Prediction, Server, ServerClient, ServerOptions};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Open-loop arrival rate, requests per second.
pub const OPEN_LOOP_QPS: f64 = 500.0;
/// Requests queued at once by the saturating burst.
pub const BURST: usize = 8192;
/// Server batch window.
pub const WINDOW: usize = 32;
/// Completion segments the burst's throughput is the median of.
const BURST_SEGMENTS: usize = 8;
/// Name of the single shard's worker thread.
const WORKER_THREAD: &str = "disthd-serve-0";
/// How long after the last due time the open loop may still be answering
/// before the run counts as backlogged.
const BACKLOG_GRACE: Duration = Duration::from_millis(250);

/// Which scoring dataflow the deployment serves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// f32 queries: encode GEMM/FHT, centering, decode + GEMM scorer.
    F32,
    /// Integer queries: fused quantize epilogue, widening integer dots.
    Int8,
}

impl Pipeline {
    /// The offline batch prediction the server's answers must equal.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn predict(
        self,
        model: &DeployedModel,
        queries: &Matrix,
    ) -> Result<Vec<usize>, ModelError> {
        match self {
            Pipeline::F32 => model.predict_batch(queries),
            Pipeline::Int8 => model.predict_quantized_batch(queries),
        }
    }
}

/// Every server knob pinned, so no `DISTHD_*` variable can change the
/// workload.
pub fn server_options(pipeline: Pipeline) -> ServerOptions {
    ServerOptions {
        shards: 1,
        queue_capacity: 2 * BURST,
        integer_pipeline: pipeline == Pipeline::Int8,
        max_worker_restarts: 32,
    }
}

/// Window 32 with the default 1 ms patience.
pub fn batch_policy() -> BatchPolicy {
    BatchPolicy {
        max_batch: WINDOW,
        max_wait: Duration::from_millis(1),
    }
}

/// Timestamps of one request.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: Instant,
    /// When the generator called `submit`.
    pub sent: Instant,
    /// When `submit` returned (equal to `sent` when untraced).
    pub submitted: Instant,
    /// When the collector's `wait` returned.
    pub done: Instant,
}

/// Outcome of driving one phase of traffic through a server.
#[derive(Debug)]
pub struct Drive {
    /// Phase start (the zero of the due-time offsets).
    pub start: Instant,
    /// Per request, in submission order.
    pub timings: Vec<Timing>,
    /// Per request: the class, or the error's text.
    pub answers: Vec<Result<usize, String>>,
}

impl Drive {
    /// Milliseconds from due to reply, per request.
    pub fn latency_ms(&self) -> Vec<f64> {
        self.timings
            .iter()
            .map(|t| (t.done - t.due).as_secs_f64() * 1e3)
            .collect()
    }

    /// Milliseconds the generator sent each request after it was due.
    pub fn late_ms(&self) -> Vec<f64> {
        self.timings
            .iter()
            .map(|t| t.sent.saturating_duration_since(t.due).as_secs_f64() * 1e3)
            .collect()
    }

    /// Microseconds each `submit` call took (traced runs only).
    pub fn submit_us(&self) -> Vec<f64> {
        self.timings
            .iter()
            .map(|t| (t.submitted - t.sent).as_secs_f64() * 1e6)
            .collect()
    }

    /// Completions per second: the median over equal-count segments of
    /// the replies, the first segment starting at the phase start.
    pub fn completion_rate(&self) -> f64 {
        let done: Vec<f64> = self
            .timings
            .iter()
            .map(|t| (t.done - self.start).as_secs_f64())
            .collect();
        let per = (done.len() / BURST_SEGMENTS).max(1);
        let mut rates = Vec::new();
        let mut from = 0.0f64;
        for chunk in done.chunks(per) {
            let to = chunk[chunk.len() - 1].max(from + 1e-9);
            rates.push(chunk.len() as f64 / (to - from));
            from = to;
        }
        median(&rates)
    }
}

/// Sends `order[i]`'s row of `queries` at `start + due[i]` and collects
/// every reply.  `traced` also times each `submit` call.
pub fn drive(
    client: &ServerClient,
    queries: &Matrix,
    order: &[usize],
    due: &[Duration],
    traced: bool,
) -> Drive {
    assert_eq!(order.len(), due.len());
    let start = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel();
    let mut timings = Vec::with_capacity(order.len());
    let mut answers = Vec::with_capacity(order.len());
    std::thread::scope(|scope| {
        let generator = client.clone();
        scope.spawn(move || {
            for (&row, &offset) in order.iter().zip(due) {
                let due = start + offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let ticket = generator.submit(queries.row(row));
                let submitted = if traced { Instant::now() } else { sent };
                if tx.send((due, sent, submitted, ticket)).is_err() {
                    return;
                }
            }
        });
        for (due, sent, submitted, ticket) in rx {
            let answer = ticket.and_then(Prediction::wait);
            let done = Instant::now();
            timings.push(Timing {
                due,
                sent,
                submitted,
                done,
            });
            answers.push(answer.map_err(|e| e.to_string()));
        }
    });
    Drive {
        start,
        timings,
        answers,
    }
}

/// Answers of one phase scored against the offline oracle and the labels.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, or answered differently from the oracle.
    pub failed: u64,
    /// Answers equal to the true label.
    pub correct_labels: u64,
}

impl Tally {
    /// Adds one phase's answers; `order[i]` is the row request `i` asked.
    pub fn add(&mut self, drive: &Drive, order: &[usize], oracle: &[usize], labels: &[usize]) {
        for (answer, &row) in drive.answers.iter().zip(order) {
            self.attempted += 1;
            match answer {
                Ok(class) if *class == oracle[row] => {
                    if *class == labels[row] {
                        self.correct_labels += 1;
                    }
                }
                _ => self.failed += 1,
            }
        }
    }
}

/// What the two serving phases measured.
#[derive(Debug)]
pub struct ServeRun {
    /// The open-loop phase.
    pub open: Drive,
    /// The saturating burst.
    pub burst: Drive,
    /// Answers of both phases.
    pub tally: Tally,
    /// Open-loop phase length.
    pub open_duration: Duration,
    /// Served / flushes over the open loop.
    pub batch_mean: f64,
    /// Served / flushes over the burst.
    pub sat_batch_mean: f64,
    /// Server counters after both phases.
    pub stats: disthd_serve::ServerStats,
    /// CPU seconds the shard worker spent on the burst, where `/proc`
    /// tells.
    pub burst_worker_cpu_s: Option<f64>,
    /// Whether every open-loop request was answered within the grace
    /// period after the last due time.
    pub kept_up: bool,
}

/// Runs the open loop for `open_duration` at [`OPEN_LOOP_QPS`], then the
/// [`BURST`], against `server`; query rows are drawn from `queries` in a
/// seeded order and every answer is checked against `oracle`.
pub fn serve_phases(
    server: &Server,
    queries: &Matrix,
    oracle: &[usize],
    labels: &[usize],
    seed: u64,
    open_duration: Duration,
    traced: bool,
) -> ServeRun {
    let client = server.client();
    let due = schedule::poisson_arrivals(seed, OPEN_LOOP_QPS, open_duration);
    let open_order = schedule::query_order(seed, 0x09E7, queries.rows(), due.len());
    let open = drive(&client, queries, &open_order, &due, traced);
    let after_open = server.stats();
    let last_due = open.start + due.last().copied().unwrap_or_default();
    let kept_up = open.answers.len() == due.len()
        && open
            .timings
            .iter()
            .all(|t| t.done <= last_due + BACKLOG_GRACE);

    let burst_order = schedule::query_order(seed, 0xB0257, queries.rows(), BURST);
    let worker_before = cpu::named_thread_time(WORKER_THREAD);
    let burst = drive(
        &client,
        queries,
        &burst_order,
        &vec![Duration::ZERO; BURST],
        traced,
    );
    let worker_after = cpu::named_thread_time(WORKER_THREAD);
    let burst_worker_cpu_s = worker_before
        .zip(worker_after)
        .map(|(before, after)| (after - before).as_secs_f64());
    let stats = server.stats();

    let mut tally = Tally::default();
    tally.add(&open, &open_order, oracle, labels);
    tally.add(&burst, &burst_order, oracle, labels);
    let ratio = |served: u64, flushes: u64| served as f64 / flushes.max(1) as f64;
    ServeRun {
        batch_mean: ratio(after_open.served, after_open.flushes),
        sat_batch_mean: ratio(
            stats.served - after_open.served,
            stats.flushes - after_open.flushes,
        ),
        open,
        burst,
        tally,
        open_duration,
        stats,
        burst_worker_cpu_s,
        kept_up,
    }
}

impl ServeRun {
    /// Saturated throughput: burst completions per CPU second of the shard
    /// worker, which is busy for the whole burst (the queue holds every
    /// request from the start); `None` if the worker's CPU time could not
    /// be read.
    pub fn sat_qps(&self) -> Option<f64> {
        let qps = self.burst.answers.len() as f64 / self.burst_worker_cpu_s.filter(|&s| s > 0.0)?;
        println!(
            "burst: {qps:.1} replies per worker CPU second, {:.1} per wall second",
            self.burst.completion_rate()
        );
        Some(qps)
    }
}

/// Median CPU times (seconds) of one deployed model's layers at one
/// batch size.
#[derive(Debug, Clone, Copy)]
pub struct LayerTimes {
    /// Encode + center (f32) or fused quantized encode (int8).
    pub encode_s: f64,
    /// Scoring of the encoded batch.
    pub score_s: f64,
    /// The whole batch prediction.
    pub batch_s: f64,
}

/// Times the deployed model's layers on `reps` batches of `batch` rows of
/// `queries`, and checks that the composed layers and the whole-batch call
/// both answer like `oracle`.  Returns the medians and the count of
/// mismatched rows.
///
/// # Errors
///
/// Propagates shape errors.
pub fn probe_layers(
    model: &DeployedModel,
    pipeline: Pipeline,
    queries: &Matrix,
    oracle: &[usize],
    batch: usize,
    reps: usize,
    seed: u64,
) -> Result<(LayerTimes, u64), ModelError> {
    let order = schedule::query_order(seed, 0x9B0BE ^ batch as u64, queries.rows(), batch * reps);
    let mut inv_norms = Vec::new();
    model.memory_parts().code_inv_norms_into(&mut inv_norms);
    let (mut encode, mut score, mut whole) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    for rows in order.chunks(batch) {
        let q = queries.select_rows(rows);
        let t0 = cpu::thread_time();
        let (t1, composed) = match pipeline {
            Pipeline::F32 => {
                let mut encoded = model.encoder_parts().encode_batch(&q)?;
                model.center_parts().apply_batch(&mut encoded);
                let t1 = cpu::thread_time();
                (t1, model.predict_encoded_batch(&encoded)?)
            }
            Pipeline::Int8 => {
                let encoded = model.encoder_parts().encode_batch_quantized(
                    &q,
                    Some(model.center_parts().means()),
                    model.width(),
                )?;
                let t1 = cpu::thread_time();
                (
                    t1,
                    packed_predict_batch(&encoded, model.memory_parts(), &inv_norms)?,
                )
            }
        };
        let t2 = cpu::thread_time();
        let answers = pipeline.predict(model, &q)?;
        let t3 = cpu::thread_time();
        encode.push((t1 - t0).as_secs_f64());
        score.push((t2 - t1).as_secs_f64());
        whole.push((t3 - t2).as_secs_f64());
        for ((&row, &a), &b) in rows.iter().zip(&composed).zip(&answers) {
            if a != oracle[row] || b != oracle[row] {
                mismatches += 1;
            }
        }
    }
    Ok((
        LayerTimes {
            encode_s: median(&encode),
            score_s: median(&score),
            batch_s: median(&whole),
        },
        mismatches,
    ))
}

/// Spawns the benchmark's server for `model`.
pub fn spawn(model: DeployedModel, pipeline: Pipeline) -> Server {
    Server::spawn_with(model, batch_policy(), server_options(pipeline))
}
