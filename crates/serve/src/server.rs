//! The live serving layer: one request queue, N batch workers, lock-free
//! hot-swap.
//!
//! A [`Server`] spawns [`ServerOptions::shards`] scoring workers that
//! share one FIFO queue.  A free worker takes everything queued, up to
//! [`BatchPolicy::max_batch`], and scores it at once.  A lone request is
//! therefore answered as soon as a worker is free, and batches still fill
//! under load, because requests pile up while every worker is busy.  No
//! queued request waits while a worker is idle (see `DESIGN.md` §9).
//!
//! The model itself is **published, not locked**: workers read an
//! epoch-versioned snapshot ([`crate::PublishedModel`]) that hot-swap and
//! rollback replace wholesale.  A worker resolves the snapshot once per
//! batch, so a swap never blocks an in-flight batch, a batch can never
//! tear across two generations, and a publication is visible by the next
//! batch — while the per-batch cost in the steady state is a single
//! atomic load.
//!
//! Every worker runs under a **supervisor** (`DESIGN.md` §13): a panic
//! while scoring fails the in-flight batch's tickets with
//! [`ServeError::WorkerFailed`] — clients never hang on a dropped
//! responder — and restarts the worker with a fresh snapshot reader,
//! bounded by [`ServerOptions::max_worker_restarts`] with exponential
//! backoff.  A worker that exhausts its restart budget exits and the
//! others keep draining the queue.  When the last worker is gone, the
//! queue is closed and everything in it fails with
//! [`ServeError::WorkerFailed`]; [`Server::shutdown`] names the first
//! dead worker instead of panicking.
//! Requests may also carry a **deadline** ([`SubmitOptions::deadline`]):
//! a worker sheds a drained request whose deadline has passed
//! ([`ServeError::DeadlineExceeded`]) rather than serving an answer the
//! client has already abandoned.

use crate::batch::{score_task_batch, AnomalyVerdict, BatchPolicy, TaskKind, TaskResponse};
use crate::chaos::ChaosPlan;
use crate::publish::PublishedModel;
use disthd::DeployedModel;
use disthd_eval::ModelError;
use disthd_hd::encoder::Encoder;
use disthd_hd::quantize::QuantizedMatrix;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Errors surfaced to serving clients.
#[derive(Debug)]
pub enum ServeError {
    /// The model rejected or failed the request.
    Model(ModelError),
    /// The server worker is gone (shut down).
    Disconnected,
    /// Admission control shed the request: the queue was at capacity
    /// ([`ServerOptions::queue_capacity`]).  The server sheds instead of
    /// letting queueing delay grow without bound; the client may back off
    /// and resubmit.
    Overloaded,
    /// The worker scoring this request's batch panicked, or every worker
    /// has died after exhausting its restart budget.  The request was
    /// **not** served; while any worker lives it is safe to resubmit — a
    /// restarted or surviving worker will pick it up.
    WorkerFailed {
        /// Index of the failed worker, in `0..ServerOptions::shards`.
        shard: usize,
    },
    /// The request's [`SubmitOptions::deadline`] passed before a worker
    /// drained it; it was shed unscored (see `DESIGN.md` §13).
    DeadlineExceeded,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Model(e) => write!(f, "serving failed: {e}"),
            ServeError::Disconnected => write!(f, "server is no longer running"),
            ServeError::Overloaded => write!(f, "server queue is full; request shed"),
            ServeError::WorkerFailed { shard } => {
                write!(f, "serve worker {shard} failed; request not served")
            }
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline passed before a worker took it")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            ServeError::Disconnected
            | ServeError::Overloaded
            | ServeError::WorkerFailed { .. }
            | ServeError::DeadlineExceeded => None,
        }
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

/// Deployment options of a [`Server`] beyond the batch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOptions {
    /// Number of batch workers (≥ 1), all draining the server's one
    /// queue.  Each worker scores batches independently against the
    /// published snapshot, so saturated qps scales with workers until the
    /// machine runs out of cores.  Defaults to 1.
    pub shards: usize,
    /// Capacity of the server's one queue: a predict request submitted
    /// while it already holds this many waiting queries is shed with
    /// [`ServeError::Overloaded`] (and counted in [`ServerStats::shed`])
    /// instead of queueing unboundedly.
    pub queue_capacity: usize,
    /// Score batches through the end-to-end integer pipeline
    /// ([`DeployedModel::predict_quantized_batch`]): the fused quantize
    /// epilogue packs encoded queries at the class memory's storage width
    /// and similarity runs on XOR+popcount (1-bit) or exact integer dots
    /// in `i16` lanes — no `f32` hypervector after featurization.
    /// Defaults to `false`, the f32-query scoring path.
    pub integer_pipeline: bool,
    /// How many times a worker's supervisor restarts it after a panic
    /// before the worker exits for good.  The other workers keep serving;
    /// once the last one has exited, queued and new requests fail with
    /// [`ServeError::WorkerFailed`].  Restarts back off exponentially
    /// (1 ms doubling, capped at 50 ms).
    pub max_worker_restarts: usize,
}

/// Default queue capacity.
const DEFAULT_QUEUE_CAPACITY: usize = 8192;
/// Default supervisor restart budget per worker.
const DEFAULT_MAX_WORKER_RESTARTS: usize = 32;

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            shards: 1,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            integer_pipeline: false,
            max_worker_restarts: DEFAULT_MAX_WORKER_RESTARTS,
        }
    }
}

impl ServerOptions {
    /// Options with the given worker count and the default queue capacity.
    pub fn sharded(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            ..Self::default()
        }
    }
}

/// Options of a single submission beyond the feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOptions {
    /// The serving task requested (defaults to classification).
    pub kind: TaskKind,
    /// Optional deadline, measured from submission: if no worker has taken
    /// the request off the queue within this budget, because every worker
    /// was busy, the worker that drains it sheds it with
    /// [`ServeError::DeadlineExceeded`] instead of serving an answer the
    /// caller has stopped waiting for.  A request is therefore only ever
    /// shed under load.  A deadline too far out to represent as an
    /// [`Instant`] never sheds, and `None` (the default) never sheds by
    /// time.
    pub deadline: Option<Duration>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            kind: TaskKind::Classify,
            deadline: None,
        }
    }
}

impl SubmitOptions {
    /// Options for `kind` with no deadline.
    pub fn task(kind: TaskKind) -> Self {
        Self {
            kind,
            ..Self::default()
        }
    }

    /// Classification with a deadline.
    pub fn within(deadline: Duration) -> Self {
        Self {
            kind: TaskKind::Classify,
            deadline: Some(deadline),
        }
    }

    /// Returns these options with `deadline` set.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Lifetime counters of a [`Server`], aggregated across workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries answered.
    pub served: u64,
    /// Batched scoring passes claimed (each one encode GEMM + one
    /// integer-similarity pass; a pass that panicked under fault injection
    /// still counts — its batch is in [`ServerStats::failed_batches`]).
    pub flushes: u64,
    /// Requests shed by admission control (queue at capacity).
    pub shed: u64,
    /// Requests shed because their [`SubmitOptions::deadline`] passed
    /// before a worker drained them.
    pub deadline_shed: u64,
    /// Times a supervisor restarted a panicked worker.
    pub worker_restarts: u64,
    /// Batches whose tickets were failed with
    /// [`ServeError::WorkerFailed`] because scoring panicked.
    pub failed_batches: u64,
    /// Deepest the queue has been (admission/backpressure gauge).
    pub peak_queue_depth: usize,
}

/// One queued serving request (any [`TaskKind`]).
struct Job {
    /// Absolute shed deadline, if the submission carried a representable
    /// one.
    deadline: Option<Instant>,
    features: Vec<f32>,
    kind: TaskKind,
    reply: Sender<Result<TaskResponse, ServeError>>,
}

/// The request queue and the worker roster admission checks with it.
struct Queue {
    jobs: VecDeque<Job>,
    /// Workers whose supervisor has not given up.  At zero the queue is
    /// closed: it was failed, and admission rejects new work.
    live_workers: usize,
    /// The first worker that exhausted its restart budget.
    first_dead: Option<usize>,
}

/// State shared by every client handle and worker thread.
struct Shared {
    published: PublishedModel,
    max_batch: usize,
    queue_capacity: usize,
    feature_dim: usize,
    integer_pipeline: bool,
    max_worker_restarts: usize,
    chaos: Arc<ChaosPlan>,
    queue: Mutex<Queue>,
    /// Idle workers park here; notified on every admission and on
    /// shutdown.
    ready: Condvar,
    /// Set under the queue lock, so a worker deciding to park cannot miss
    /// it; read without the lock only as an early exit.
    shutdown: AtomicBool,
    served: AtomicU64,
    flushes: AtomicU64,
    shed: AtomicU64,
    deadline_shed: AtomicU64,
    worker_restarts: AtomicU64,
    failed_batches: AtomicU64,
    peak_depth: AtomicUsize,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        ServerStats {
            served: self.served.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_shed: self.deadline_shed.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            failed_batches: self.failed_batches.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_depth.load(Ordering::Relaxed),
        }
    }

    /// Flags shutdown under the queue lock and wakes every parked worker.
    fn stop(&self) {
        let queue = lock(&self.queue);
        self.shutdown.store(true, Ordering::Release);
        drop(queue);
        self.ready.notify_all();
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// An in-flight request submitted with [`ServerClient::submit`] or
/// [`ServerClient::submit_task`]; redeem it with [`Prediction::wait`]
/// (classification) or [`Prediction::wait_response`] (any task kind).
/// Dropping it abandons the answer (the query is still scored with its
/// batch).
#[derive(Debug)]
pub struct Prediction {
    rx: Receiver<Result<TaskResponse, ServeError>>,
}

impl Prediction {
    /// Blocks until the batch containing this query has been scored and
    /// returns the predicted class.  Only valid for
    /// [`TaskKind::Classify`] submissions; a ranking or anomaly ticket
    /// surfaces [`ServeError::Model`] here — redeem those with
    /// [`Prediction::wait_response`].
    ///
    /// # Errors
    ///
    /// * [`ServeError::Model`] if scoring failed or the submission was
    ///   not a classification task;
    /// * [`ServeError::WorkerFailed`] if the scoring worker panicked;
    /// * [`ServeError::DeadlineExceeded`] if the request's deadline passed
    ///   before its batch flushed;
    /// * [`ServeError::Disconnected`] if the server shut down first.
    pub fn wait(self) -> Result<usize, ServeError> {
        match self.wait_response()? {
            TaskResponse::Class(class) => Ok(class),
            other => Err(ServeError::Model(ModelError::Incompatible(format!(
                "ticket holds a {other:?}, not a classification; redeem with wait_response"
            )))),
        }
    }

    /// Blocks until the batch containing this query has been scored and
    /// returns the full [`TaskResponse`], whatever the task kind.
    ///
    /// # Errors
    ///
    /// See [`Prediction::wait`].
    pub fn wait_response(self) -> Result<TaskResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)?
    }
}

/// A cloneable, `Send` handle for submitting requests to a [`Server`].
#[derive(Clone)]
pub struct ServerClient {
    shared: Arc<Shared>,
}

impl ServerClient {
    /// Classifies one feature vector, blocking until the coalesced batch
    /// containing it has been scored.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Model`] if the query is malformed;
    /// * [`ServeError::Overloaded`] if admission control shed the request;
    /// * [`ServeError::WorkerFailed`] if the scoring worker panicked (or
    ///   every worker is dead);
    /// * [`ServeError::Disconnected`] if the server has shut down.
    pub fn predict(&self, features: &[f32]) -> Result<usize, ServeError> {
        self.submit(features)?.wait()
    }

    /// Classifies one feature vector under a deadline: if no worker has
    /// taken the request within `deadline` of submission, it is shed with
    /// [`ServeError::DeadlineExceeded`] instead of answered late (see
    /// [`SubmitOptions::deadline`]).
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`], plus
    /// [`ServeError::DeadlineExceeded`].
    pub fn predict_within(
        &self,
        features: &[f32],
        deadline: Duration,
    ) -> Result<usize, ServeError> {
        self.submit_with(features, SubmitOptions::within(deadline))?
            .wait()
    }

    /// Ranks the top-k classes for one feature vector, blocking until its
    /// coalesced batch has been scored.  `k` comes from the live
    /// snapshot's [`disthd::ServingTasks::top_k`] (resolved by the worker
    /// at the batch boundary, so a hot-swap retunes queued rankings
    /// together with the memory scoring them), falling back to 1; the
    /// leading entry always equals [`ServerClient::predict`] on the same
    /// query.
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`].
    pub fn rank(&self, features: &[f32]) -> Result<Vec<usize>, ServeError> {
        match self
            .submit_task(features, TaskKind::TopK)?
            .wait_response()?
        {
            TaskResponse::Ranked(ranks) => Ok(ranks),
            other => unreachable!("top-k job answered with {other:?}"),
        }
    }

    /// Scores one feature vector for one-class anomaly detection,
    /// blocking until its coalesced batch has been scored.  The verdict
    /// thresholds against the live snapshot's calibrated
    /// [`disthd::ServingTasks::anomaly_threshold`]; an uncalibrated model
    /// still returns the exact score but flags nothing.
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`].
    pub fn score_anomaly(&self, features: &[f32]) -> Result<AnomalyVerdict, ServeError> {
        match self
            .submit_task(features, TaskKind::Anomaly)?
            .wait_response()?
        {
            TaskResponse::Anomaly(verdict) => Ok(verdict),
            other => unreachable!("anomaly job answered with {other:?}"),
        }
    }

    /// Enqueues one query without blocking on its answer; the returned
    /// [`Prediction`] redeems it.  This is the pipelined entry point: a
    /// client can keep a window of submissions in flight and let the
    /// workers coalesce them.
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`] — malformed and shed requests are
    /// rejected here, before anything is queued.
    pub fn submit(&self, features: &[f32]) -> Result<Prediction, ServeError> {
        self.submit_task(features, TaskKind::Classify)
    }

    /// Enqueues one query under an explicit [`TaskKind`] without blocking
    /// on its answer.  Mixed-kind traffic coalesces into the same
    /// batches; the worker partitions each batch by kind, so sharing a
    /// window with rankings or anomaly probes can never move a
    /// classification answer (and vice versa).
    ///
    /// # Errors
    ///
    /// See [`ServerClient::predict`] — malformed and shed requests are
    /// rejected here, before anything is queued.
    pub fn submit_task(&self, features: &[f32], kind: TaskKind) -> Result<Prediction, ServeError> {
        self.submit_with(features, SubmitOptions::task(kind))
    }

    /// Enqueues one query with full [`SubmitOptions`] (task kind +
    /// optional deadline) without blocking on its answer.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Model`] if the query is malformed: the wrong length,
    ///   or a non-finite feature (a NaN or infinite query would encode to
    ///   NaN, which the quantizing epilogue does not define);
    /// * [`ServeError::Overloaded`] if the queue is full;
    /// * [`ServeError::DeadlineExceeded`] if the deadline is already zero
    ///   at submission;
    /// * [`ServeError::WorkerFailed`] if every worker is dead;
    /// * [`ServeError::Disconnected`] if the server has shut down.
    pub fn submit_with(
        &self,
        features: &[f32],
        options: SubmitOptions,
    ) -> Result<Prediction, ServeError> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Disconnected);
        }
        if features.len() != shared.feature_dim {
            return Err(ServeError::Model(ModelError::Incompatible(format!(
                "query has {} features, model expects {}",
                features.len(),
                shared.feature_dim
            ))));
        }
        if let Some(i) = features.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::Model(ModelError::Incompatible(format!(
                "query feature {i} is {}, features must be finite",
                features[i]
            ))));
        }
        if options.deadline.is_some_and(|d| d.is_zero()) {
            shared.deadline_shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::DeadlineExceeded);
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            // A deadline too far out to represent never sheds.
            deadline: options.deadline.and_then(|d| Instant::now().checked_add(d)),
            features: features.to_vec(),
            kind: options.kind,
            reply: tx,
        };
        let mut queue = lock(&shared.queue);
        // Checked under the lock: a worker exits only after observing
        // (shutdown ∧ empty queue) under this lock, and the last dying
        // worker closes the queue under it before failing what it holds —
        // so a job admitted past both checks is guaranteed to be drained
        // by a worker or failed, never silently dropped.
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Disconnected);
        }
        if queue.live_workers == 0 {
            return Err(ServeError::WorkerFailed {
                shard: queue.first_dead.unwrap_or(0),
            });
        }
        if queue.jobs.len() >= shared.queue_capacity {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded);
        }
        queue.jobs.push_back(job);
        let depth = queue.jobs.len();
        drop(queue);
        shared.peak_depth.fetch_max(depth, Ordering::Relaxed);
        shared.ready.notify_one();
        Ok(Prediction { rx })
    }

    /// Hot-swaps the quantized class memory of the live model by
    /// **publishing** a derived snapshot (copy-on-write, see
    /// [`DeployedModel::with_swapped_memory`]).  The call never waits on a
    /// scoring worker: in-flight batches finish against the generation they
    /// started with, and every batch that begins after this returns is
    /// scored by the new memory.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Model`] on a topology mismatch;
    /// * [`ServeError::Disconnected`] if the server has shut down.
    pub fn swap_class_memory(&self, memory: QuantizedMatrix) -> Result<(), ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Disconnected);
        }
        self.shared
            .published
            .publish_with(|live| live.with_swapped_memory(memory))
            .map(|_| ())
            .map_err(ServeError::Model)
    }

    /// Replaces the whole live deployment (the rollback path; pair with
    /// [`crate::SnapshotStore::restore`] or, after suspected snapshot
    /// corruption, [`crate::SnapshotStore::restore_or_rollback`]).  Like
    /// [`ServerClient::swap_class_memory`] this publishes a new snapshot
    /// and returns immediately — visible by the next batch, never blocking
    /// an in-flight one.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Model`] on a feature-arity mismatch;
    /// * [`ServeError::Disconnected`] if the server has shut down.
    pub fn install_model(&self, model: DeployedModel) -> Result<(), ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Disconnected);
        }
        if model.encoder_parts().input_dim() != self.shared.feature_dim {
            return Err(ServeError::Model(ModelError::Incompatible(format!(
                "replacement expects {} features, live model serves {}",
                model.encoder_parts().input_dim(),
                self.shared.feature_dim
            ))));
        }
        self.shared.published.publish(model);
        Ok(())
    }
}

/// A live classification server: worker threads that share one request
/// queue, coalesce whatever has queued into a batch and score it against a
/// published model snapshot.
///
/// A free worker takes everything queued, up to the policy's batch window
/// ([`BatchPolicy::max_batch`]), and answers the whole batch in one pass.
/// A lone request is scored as soon as a worker is free; under load the
/// window fills, because requests queue while every worker is busy.
/// Clients block only for their own answer.  Hot-swap and rollback go
/// through snapshot **publication** and never block scoring.  Workers are
/// supervised: a scoring panic fails its batch's tickets and restarts the
/// worker (see `DESIGN.md` §13).
///
/// # Example
///
/// ```
/// use disthd_serve::{BatchPolicy, Server};
///
/// let deployment = disthd_serve::testkit::tiny_deployment();
/// let server = Server::spawn(deployment, BatchPolicy::window(4));
///
/// // Concurrent clients: each thread fires queries at the shared server.
/// let queries = disthd_serve::testkit::tiny_queries(8);
/// let classes: Vec<usize> = std::thread::scope(|s| {
///     let handles: Vec<_> = queries
///         .iter()
///         .map(|q| {
///             let client = server.client();
///             s.spawn(move || client.predict(q).expect("server alive"))
///         })
///         .collect();
///     handles.into_iter().map(|h| h.join().unwrap()).collect()
/// });
/// assert_eq!(classes.len(), 8);
///
/// let stats = server.shutdown()?;
/// assert_eq!(stats.served, 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server with [`ServerOptions::default`] (one worker).
    pub fn spawn(model: DeployedModel, policy: BatchPolicy) -> Self {
        Self::spawn_with(model, policy, ServerOptions::default())
    }

    /// Starts a server with `shards` workers.
    pub fn spawn_sharded(model: DeployedModel, policy: BatchPolicy, shards: usize) -> Self {
        Self::spawn_with(model, policy, ServerOptions::sharded(shards))
    }

    /// Starts the workers and publishes `model` as generation 0.
    pub fn spawn_with(model: DeployedModel, policy: BatchPolicy, options: ServerOptions) -> Self {
        Self::spawn_chaotic(model, policy, options, Arc::new(ChaosPlan::none()))
    }

    /// Starts a server whose workers run under the given fault-injection
    /// schedule (the chaos drill entry point — see [`ChaosPlan`]).  A
    /// production server is simply `spawn_with`, i.e. this with
    /// [`ChaosPlan::none`].  Keep a clone of the `Arc` to
    /// [`ChaosPlan::disarm`] mid-run, or call [`Server::disarm_chaos`].
    pub fn spawn_chaotic(
        model: DeployedModel,
        policy: BatchPolicy,
        options: ServerOptions,
        chaos: Arc<ChaosPlan>,
    ) -> Self {
        let workers = options.shards.max(1);
        let feature_dim = model.encoder_parts().input_dim();
        let shared = Arc::new(Shared {
            published: PublishedModel::new(model),
            max_batch: policy.max_batch.max(1),
            queue_capacity: options.queue_capacity.max(1),
            feature_dim,
            integer_pipeline: options.integer_pipeline,
            max_worker_restarts: options.max_worker_restarts,
            chaos,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                live_workers: workers,
                first_dead: None,
            }),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_shed: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            failed_batches: AtomicU64::new(0),
            peak_depth: AtomicUsize::new(0),
        });
        let workers = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("disthd-serve-{index}"))
                    .spawn(move || run_worker(&shared, index))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Creates a client handle; clients are cheap to clone and `Send`, so
    /// every request thread can own one.
    pub fn client(&self) -> ServerClient {
        ServerClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Live lifetime counters (racy snapshot; exact after
    /// [`Server::shutdown`]).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Disarms the fault-injection schedule this server was spawned with
    /// (a no-op under [`ChaosPlan::none`]).  The soak drill calls this
    /// before measuring its post-chaos baseline.
    pub fn disarm_chaos(&self) {
        self.shared.chaos.disarm();
    }

    /// Stops every worker after the queue has been drained and answered,
    /// returning the final counters.  Requests submitted after this call
    /// starts are rejected with [`ServeError::Disconnected`].
    ///
    /// # Errors
    ///
    /// [`ServeError::WorkerFailed`] naming the first worker that died
    /// (exhausted its restart budget, or — should a panic ever escape the
    /// supervisor — crashed outright).  Never panics, including when a
    /// worker did: the failure is a return value, and the [`Drop`] impl
    /// that runs as `self` goes out of scope joins nothing twice.
    pub fn shutdown(mut self) -> Result<ServerStats, ServeError> {
        self.shared.stop();
        let mut crashed: Option<usize> = None;
        for (index, worker) in std::mem::take(&mut self.workers).into_iter().enumerate() {
            if worker.join().is_err() && crashed.is_none() {
                crashed = Some(index);
            }
        }
        match lock(&self.shared.queue).first_dead.or(crashed) {
            Some(shard) => Err(ServeError::WorkerFailed { shard }),
            None => Ok(self.shared.stats()),
        }
    }
}

impl Drop for Server {
    /// Dropping a server without calling [`Server::shutdown`] still stops
    /// and joins every worker — and swallows worker panics rather than
    /// propagating them, so a drop during unwinding can never double-panic
    /// and abort.
    fn drop(&mut self) {
        self.shared.stop();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Takes the next scoreable batch: everything queued, up to `max_batch`,
/// oldest first, parking while the queue is empty.  A drained job whose
/// deadline has passed is answered [`ServeError::DeadlineExceeded`]
/// instead of scored.  Returns an empty batch only when the server is
/// shutting down and the queue has been observed empty under its lock.
fn next_batch(shared: &Shared) -> Vec<Job> {
    loop {
        let mut queue = lock(&shared.queue);
        while queue.jobs.is_empty() {
            if shared.shutdown.load(Ordering::Acquire) {
                return Vec::new();
            }
            queue = shared.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
        let n = queue.jobs.len().min(shared.max_batch);
        let batch: Vec<Job> = queue.jobs.drain(..n).collect();
        drop(queue);
        let live = shed_expired(shared, batch);
        if !live.is_empty() {
            return live;
        }
        // Every drained job was past its deadline; take the next batch.
    }
}

/// Splits `batch` into jobs still worth scoring and jobs whose deadline
/// passed while queued; the latter are answered with
/// [`ServeError::DeadlineExceeded`] and counted.
fn shed_expired(shared: &Shared, batch: Vec<Job>) -> Vec<Job> {
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for job in batch {
        match job.deadline {
            Some(deadline) if now >= deadline => {
                shared.deadline_shed.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
            }
            _ => live.push(job),
        }
    }
    live
}

/// Retires worker `index` after its restart budget is spent.  The other
/// workers keep draining the queue.  When `index` was the last one, the
/// queue is closed under its lock — so admission's own locked check
/// cannot race a job past it — and every queued job is failed: clients
/// resolve promptly instead of waiting on a queue nobody drains.
fn retire_worker(shared: &Shared, index: usize) {
    let orphans: Vec<Job> = {
        let mut queue = lock(&shared.queue);
        queue.live_workers -= 1;
        queue.first_dead.get_or_insert(index);
        if queue.live_workers > 0 {
            return;
        }
        queue.jobs.drain(..).collect()
    };
    for job in orphans {
        let _ = job
            .reply
            .send(Err(ServeError::WorkerFailed { shard: index }));
    }
}

/// The supervisor for worker `index`: runs the worker loop, catching
/// panics.  Each panic costs one restart from the budget (with
/// exponentially backed-off sleeps); a clean return is shutdown.  When the
/// budget is spent the worker is retired — never silently abandoned.
fn run_worker(shared: &Shared, index: usize) {
    let mut restarts = 0usize;
    loop {
        // The shared state is safe to reuse across the unwind: panics are
        // only ever raised during scoring (or injected by chaos at the
        // same point), where no queue lock is held and the in-flight
        // batch's tickets have already been failed by `worker_loop`.
        match catch_unwind(AssertUnwindSafe(|| worker_loop(shared, index))) {
            Ok(()) => return,
            Err(_panic) => {
                if restarts == shared.max_worker_restarts {
                    retire_worker(shared, index);
                    return;
                }
                restarts += 1;
                shared.worker_restarts.fetch_add(1, Ordering::Relaxed);
                let shift = (restarts - 1).min(6) as u32;
                let backoff = Duration::from_millis(1u64 << shift).min(Duration::from_millis(50));
                std::thread::sleep(backoff);
            }
        }
    }
}

/// The worker loop: take a batch, resolve the snapshot **once at the
/// batch boundary**, score, repeat; exit once shutdown finds the queue
/// empty.
///
/// Scoring runs inside its own `catch_unwind` so a panicked pass —
/// injected by a [`ChaosPlan`] or real — fails the batch's tickets with
/// [`ServeError::WorkerFailed`] *before* the panic propagates to the
/// supervisor: the clients never hang on a dropped responder.  The flush
/// number is claimed before scoring so chaos schedules key on a counter
/// that advances even across failed passes.
fn worker_loop(shared: &Shared, index: usize) {
    let mut reader = shared.published.reader();
    loop {
        let batch = next_batch(shared);
        if batch.is_empty() {
            debug_assert!(shared.shutdown.load(Ordering::Acquire));
            return;
        }
        let served = batch.len() as u64;
        reader.refresh();
        let flush = shared.flushes.fetch_add(1, Ordering::Relaxed);
        let rows: Vec<&[f32]> = batch.iter().map(|job| job.features.as_slice()).collect();
        let kinds: Vec<TaskKind> = batch.iter().map(|job| job.kind).collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.chaos.before_score(flush);
            score_task_batch(
                reader.snapshot(),
                shared.integer_pipeline,
                shared.feature_dim,
                &rows,
                &kinds,
            )
        }));
        drop(rows);
        match outcome {
            Ok(Ok(responses)) => {
                for (job, response) in batch.into_iter().zip(responses) {
                    let _ = job.reply.send(Ok(response));
                }
                shared.served.fetch_add(served, Ordering::Relaxed);
            }
            Ok(Err(e)) => {
                // Unreachable for queries admitted by `submit` (arity is
                // validated up front); answer every job rather than hanging
                // it.
                let message = e.to_string();
                for job in batch {
                    let _ = job
                        .reply
                        .send(Err(ServeError::Model(ModelError::Incompatible(
                            message.clone(),
                        ))));
                }
                shared.served.fetch_add(served, Ordering::Relaxed);
            }
            Err(panic) => {
                shared.failed_batches.fetch_add(1, Ordering::Relaxed);
                for job in batch {
                    let _ = job
                        .reply
                        .send(Err(ServeError::WorkerFailed { shard: index }));
                }
                resume_unwind(panic);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use disthd_hd::quantize::BitWidth;
    use disthd_linalg::Matrix;

    /// A class memory whose every row is identical, so argmax resolves to
    /// class 0 for any query — a recognizable "generation marker".
    fn constant_memory(model: &DeployedModel) -> QuantizedMatrix {
        let (k, dim) = model.memory_parts().shape();
        QuantizedMatrix::quantize(&Matrix::filled(k, dim, 1.0), BitWidth::B8)
    }

    /// Spawns a server whose flush 0 stalls for `stall`, submits one
    /// occupant query and returns once a worker has claimed it.  At one
    /// worker, everything submitted next waits in the queue until the
    /// stall ends.
    fn held_server(
        model: DeployedModel,
        policy: BatchPolicy,
        options: ServerOptions,
        stall: Duration,
    ) -> (Server, Prediction) {
        let chaos = ChaosPlan::none().and_stalls(&[(0, stall)]);
        let server = Server::spawn_chaotic(model, policy, options, Arc::new(chaos));
        let occupant = server
            .client()
            .submit(&testkit::tiny_queries(1)[0])
            .unwrap();
        wait_for_flushes(&server, 1);
        (server, occupant)
    }

    /// Polls until the workers have claimed `n` flushes.
    fn wait_for_flushes(server: &Server, n: u64) {
        while server.stats().flushes < n {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_lone_request_is_answered_in_one_flush_whatever_max_wait_says() {
        // A free worker drains at once: neither a long `max_wait` nor one
        // too large to add to an `Instant` delays (or panics) the worker.
        for max_wait in [Duration::from_secs(5), Duration::MAX] {
            let server = Server::spawn(
                testkit::tiny_deployment(),
                BatchPolicy {
                    max_batch: 1024,
                    max_wait,
                },
            );
            let q = testkit::tiny_queries(1).remove(0);
            let started = Instant::now();
            server.client().predict(&q).unwrap();
            let waited = started.elapsed();
            assert!(
                waited < Duration::from_secs(2),
                "max_wait {max_wait:?}: a lone request waited {waited:?}"
            );
            let stats = server.shutdown().unwrap();
            assert_eq!((stats.served, stats.flushes), (1, 1), "{max_wait:?}");
            assert_eq!(stats.worker_restarts, 0, "{max_wait:?}");
        }
    }

    #[test]
    fn an_idle_worker_drains_the_queue_while_another_is_stalled() {
        // Two workers, one held for 1.5 s: no queued job may wait for it
        // while the other worker is idle.
        let (server, occupant) = held_server(
            testkit::tiny_deployment(),
            BatchPolicy::window(4),
            ServerOptions::sharded(2),
            Duration::from_millis(1500),
        );
        let client = server.client();
        let started = Instant::now();
        let pending: Vec<Prediction> = testkit::tiny_queries(16)
            .iter()
            .map(|q| client.submit(q).unwrap())
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_millis(750),
            "the free worker must drain the queue, not wait out the stall ({waited:?})"
        );
        occupant.wait().unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.served, 17);
        // Window 4: the free worker took at least four batches.
        assert!(stats.flushes >= 5, "{stats:?}");
    }

    #[test]
    fn a_burst_queued_behind_a_busy_worker_coalesces_into_one_batch() {
        // Requests that pile up while the only worker is busy are drained
        // into ONE batch when it comes back (the window is larger than
        // the burst), not split.
        let (server, occupant) = held_server(
            testkit::tiny_deployment(),
            BatchPolicy::window(1024),
            ServerOptions::default(),
            Duration::from_millis(200),
        );
        let client = server.client();
        let queries = testkit::tiny_queries(40);
        let pending: Vec<Prediction> = queries.iter().map(|q| client.submit(q).unwrap()).collect();
        occupant.wait().unwrap();
        for p in pending {
            p.wait().unwrap();
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.served, 41);
        assert_eq!(
            stats.flushes, 2,
            "the occupant, then the whole queued burst in one batch"
        );
    }

    #[test]
    fn swap_published_mid_batch_is_visible_without_waiting_on_scoring() {
        // A swap issued while a query is queued behind a busy worker must
        // (a) return immediately — publication, not a trip through the
        // worker loop — and (b) be visible to that query's batch, because
        // the worker resolves the snapshot at the batch boundary, after
        // the publication.  The in-flight batch keeps the generation it
        // started with.
        let deployment = testkit::tiny_deployment();
        let constant = constant_memory(&deployment);
        let q = testkit::tiny_queries(1).remove(0);
        let original = deployment.predict(&q).unwrap();
        let (server, occupant) = held_server(
            deployment,
            BatchPolicy::window(64),
            ServerOptions::default(),
            Duration::from_millis(300),
        );
        let client = server.client();
        let queued = client.submit(&q).unwrap();

        let swap_started = Instant::now();
        client.swap_class_memory(constant).unwrap();
        let swap_latency = swap_started.elapsed();
        assert!(
            swap_latency < Duration::from_millis(150),
            "swap must not wait out the busy worker ({swap_latency:?})"
        );

        assert_eq!(occupant.wait().unwrap(), original);
        // The queued query's batch starts after the publication, so it is
        // scored by the constant memory (every row identical → class 0).
        assert_eq!(queued.wait().unwrap(), 0);
        // So is everything that follows.
        assert_eq!(client.predict(&q).unwrap(), 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn install_rollback_restores_old_predictions() {
        let deployment = testkit::tiny_deployment();
        let constant = constant_memory(&deployment);
        let server = Server::spawn(deployment.clone(), BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let before = client.predict(&q).unwrap();
        client.swap_class_memory(constant).unwrap();
        assert_eq!(client.predict(&q).unwrap(), 0);
        client.install_model(deployment).unwrap();
        assert_eq!(client.predict(&q).unwrap(), before);
        server.shutdown().unwrap();
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        // The only worker is held by a stall, so jobs accumulate and the
        // queue depth (and the shed decision) is deterministic.
        let (server, occupant) = held_server(
            testkit::tiny_deployment(),
            BatchPolicy::window(1024),
            ServerOptions {
                queue_capacity: 4,
                ..ServerOptions::default()
            },
            Duration::from_millis(200),
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let pending: Vec<Prediction> = (0..4).map(|_| client.submit(&q).unwrap()).collect();
        assert!(matches!(client.submit(&q), Err(ServeError::Overloaded)));
        // Shutdown drains the admitted four; none are lost.
        let drained: Vec<_> = std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                pending
                    .into_iter()
                    .map(|p| p.wait().unwrap())
                    .collect::<Vec<_>>()
            });
            let stats = server.shutdown().unwrap();
            assert_eq!(stats.served, 5);
            assert_eq!(stats.shed, 1);
            assert_eq!(stats.peak_queue_depth, 4);
            waiter.join().unwrap()
        });
        assert_eq!(drained.len(), 4);
        occupant.wait().unwrap();
    }

    #[test]
    fn non_finite_queries_are_rejected_before_queueing_on_both_pipelines() {
        // A non-finite feature would encode to an all-NaN row, whose
        // integer codes are undefined.  It must be refused at admission,
        // on either pipeline, and leave the server answering finite
        // queries exactly like the direct batch path.
        let deployment = testkit::tiny_deployment();
        let q = testkit::tiny_queries(1).remove(0);
        for integer_pipeline in [false, true] {
            let server = Server::spawn_with(
                deployment.clone(),
                BatchPolicy::window(8),
                ServerOptions {
                    shards: 1,
                    integer_pipeline,
                    ..ServerOptions::default()
                },
            );
            let client = server.client();
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for lane in [0, q.len() - 1] {
                    let mut query = q.clone();
                    query[lane] = bad;
                    assert!(
                        matches!(
                            client.submit(&query),
                            Err(ServeError::Model(ModelError::Incompatible(_)))
                        ),
                        "{bad} at feature {lane}, integer pipeline {integer_pipeline}"
                    );
                }
            }
            let single = batch_of(std::slice::from_ref(&q));
            let expected = if integer_pipeline {
                deployment.predict_quantized_batch(&single).unwrap()
            } else {
                deployment.predict_batch(&single).unwrap()
            };
            assert_eq!(client.predict(&q).unwrap(), expected[0]);
            let stats = server.shutdown().unwrap();
            assert_eq!(stats.served, 1, "rejected queries are never queued");
        }
    }

    /// `queries` as one row-per-query matrix, for the direct model APIs.
    fn batch_of(queries: &[Vec<f32>]) -> Matrix {
        let refs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        Matrix::from_row_slices(queries[0].len(), &refs).unwrap()
    }

    #[test]
    fn sharded_server_answers_identically_to_a_single_shard() {
        let deployment = testkit::tiny_deployment();
        let queries = testkit::tiny_queries(64);
        let expected = deployment.predict_batch(&batch_of(&queries)).unwrap();
        for shards in [1usize, 2, 4] {
            let server = Server::spawn_sharded(deployment.clone(), BatchPolicy::window(8), shards);
            let client = server.client();
            let pending: Vec<Prediction> =
                queries.iter().map(|q| client.submit(q).unwrap()).collect();
            let answers: Vec<usize> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
            assert_eq!(answers, expected, "{shards} shards");
            let stats = server.shutdown().unwrap();
            assert_eq!(stats.served, 64, "{shards} shards");
        }
    }

    #[test]
    fn integer_pipeline_matches_the_direct_quantized_batch_path() {
        // The integer-pipeline server must answer exactly like
        // DeployedModel::predict_quantized_batch: the fused encode is
        // per-row deterministic, so batching (and the worker count) can never
        // change an answer.
        let deployment = testkit::tiny_deployment();
        let queries = testkit::tiny_queries(48);
        let expected = deployment
            .predict_quantized_batch(&batch_of(&queries))
            .unwrap();

        for shards in [1usize, 2] {
            let server = Server::spawn_with(
                deployment.clone(),
                BatchPolicy::window(8),
                ServerOptions {
                    shards,
                    queue_capacity: DEFAULT_QUEUE_CAPACITY,
                    integer_pipeline: true,
                    ..ServerOptions::default()
                },
            );
            let client = server.client();
            let pending: Vec<Prediction> =
                queries.iter().map(|q| client.submit(q).unwrap()).collect();
            let answers: Vec<usize> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
            assert_eq!(answers, expected, "{shards} integer shards");
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn task_endpoints_match_the_direct_model_apis_across_shards() {
        // Every worker scores through the batched DeployedModel APIs, so
        // rankings and anomaly verdicts must agree bit-for-bit with them
        // however many workers drain the queue.
        let mut deployment = testkit::tiny_deployment();
        deployment
            .set_tasks(disthd::ServingTasks {
                top_k: Some(2),
                anomaly_threshold: Some(0.5),
            })
            .unwrap();
        let queries = testkit::tiny_queries(30);
        let batch = batch_of(&queries);
        let expected_ranks = deployment.top_k_batch(&batch, 2).unwrap();
        let expected_scores = deployment.anomaly_scores(&batch).unwrap();
        for shards in [1usize, 2] {
            let server = Server::spawn_sharded(deployment.clone(), BatchPolicy::window(8), shards);
            let client = server.client();
            // Pipeline mixed traffic so both kinds coalesce inside
            // batches instead of flushing one by one.
            let pending: Vec<(usize, Prediction, Prediction)> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    (
                        i,
                        client.submit_task(q, TaskKind::TopK).unwrap(),
                        client.submit_task(q, TaskKind::Anomaly).unwrap(),
                    )
                })
                .collect();
            for (i, ranked, anomaly) in pending {
                match ranked.wait_response().unwrap() {
                    TaskResponse::Ranked(ranks) => {
                        assert_eq!(ranks, expected_ranks[i], "{shards} shards, query {i}");
                    }
                    other => panic!("top-k job answered with {other:?}"),
                }
                match anomaly.wait_response().unwrap() {
                    TaskResponse::Anomaly(verdict) => {
                        assert_eq!(
                            verdict.score.to_bits(),
                            expected_scores[i].to_bits(),
                            "{shards} shards, query {i}"
                        );
                        assert_eq!(verdict.anomalous, expected_scores[i] < 0.5);
                    }
                    other => panic!("anomaly job answered with {other:?}"),
                }
            }
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn wait_on_a_non_classify_ticket_is_a_model_error() {
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::window(1));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let pending = client.submit_task(&q, TaskKind::TopK).unwrap();
        assert!(matches!(pending.wait(), Err(ServeError::Model(_))));
        // Blocking conveniences on an unconfigured model: k defaults to 1
        // and an uncalibrated threshold flags nothing.
        assert_eq!(client.rank(&q).unwrap().len(), 1);
        assert!(!client.score_anomaly(&q).unwrap().anomalous);
        server.shutdown().unwrap();
    }

    #[test]
    fn hot_swap_retunes_task_configuration_at_the_batch_boundary() {
        // Task configuration travels with the published snapshot: after an
        // install, queued-after requests are ranked with the new k and
        // thresholded by the new calibration — never a mix of generations.
        let deployment = testkit::tiny_deployment();
        let mut retuned = deployment.clone();
        retuned
            .set_tasks(disthd::ServingTasks {
                top_k: Some(3),
                anomaly_threshold: Some(2.0),
            })
            .unwrap();
        let server = Server::spawn(deployment, BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        assert_eq!(client.rank(&q).unwrap().len(), 1);
        assert!(!client.score_anomaly(&q).unwrap().anomalous);
        client.install_model(retuned).unwrap();
        assert_eq!(client.rank(&q).unwrap().len(), 3);
        // A threshold of 2.0 exceeds any cosine, so everything flags.
        assert!(client.score_anomaly(&q).unwrap().anomalous);
        server.shutdown().unwrap();
    }

    #[test]
    fn sharded_burst_is_drained_completely_across_windows() {
        // A burst several windows deep piles up while all four workers
        // are held by stalls; once they come back, the one queue is
        // drained window by window and no query may be lost or
        // double-answered.
        let stalls: Vec<(u64, Duration)> = (0..4).map(|f| (f, Duration::from_millis(50))).collect();
        let server = Server::spawn_chaotic(
            testkit::tiny_deployment(),
            BatchPolicy::window(4),
            ServerOptions::sharded(4),
            Arc::new(ChaosPlan::none().and_stalls(&stalls)),
        );
        let client = server.client();
        let queries = testkit::tiny_queries(64);
        let pending: Vec<Prediction> = queries.iter().map(|q| client.submit(q).unwrap()).collect();
        for p in pending {
            p.wait().unwrap();
        }
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.served, 64);
        // 64 queries at window 4 cannot fit in fewer than 16 flushes.
        assert!(stats.flushes >= 16);
    }

    #[test]
    fn zero_deadline_is_shed_at_submission() {
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        assert!(matches!(
            client.predict_within(&q, Duration::ZERO),
            Err(ServeError::DeadlineExceeded)
        ));
        // The shed happens before anything is queued: the server still
        // serves ordinary traffic.
        client.predict(&q).unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.deadline_shed, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn a_deadline_that_passes_while_queued_is_shed_at_drain() {
        // The only worker is held for 100 ms; a request with a 25 ms
        // deadline queued behind it is shed when the worker drains it —
        // the client resolves long before 2 s and the job is never scored.
        let (server, occupant) = held_server(
            testkit::tiny_deployment(),
            BatchPolicy::window(1024),
            ServerOptions::default(),
            Duration::from_millis(100),
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let started = Instant::now();
        let err = client
            .predict_within(&q, Duration::from_millis(25))
            .unwrap_err();
        let waited = started.elapsed();
        assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");
        assert!(waited < Duration::from_secs(2), "{waited:?}");
        occupant.wait().unwrap();
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.deadline_shed, 1);
        assert_eq!(stats.served, 1, "only the occupant is scored");
        assert_eq!(stats.flushes, 1, "a shed request costs no scoring pass");
    }

    #[test]
    fn deadlined_job_is_served_when_a_worker_frees_in_time() {
        // A generous deadline behind a short stall: the worker drains the
        // request well before its deadline and answers it normally.
        let (server, occupant) = held_server(
            testkit::tiny_deployment(),
            BatchPolicy::window(2),
            ServerOptions::default(),
            Duration::from_millis(30),
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let deadlined = client
            .submit_with(&q, SubmitOptions::within(Duration::from_secs(30)))
            .unwrap();
        let expected = occupant.wait().unwrap();
        assert_eq!(deadlined.wait().unwrap(), expected);
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.deadline_shed, 0);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn deadline_shed_still_serves_its_batchmates() {
        // A deadlined job and a plain one queue behind a stalled worker.
        // The worker drains both into one batch: the expired job is shed,
        // its batchmate is scored.
        let (server, occupant) = held_server(
            testkit::tiny_deployment(),
            BatchPolicy::window(1024),
            ServerOptions::default(),
            Duration::from_millis(100),
        );
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let plain = client.submit(&q).unwrap();
        let deadlined = client
            .submit_with(&q, SubmitOptions::within(Duration::from_millis(25)))
            .unwrap();
        assert!(matches!(
            deadlined.wait(),
            Err(ServeError::DeadlineExceeded)
        ));
        assert_eq!(plain.wait().unwrap(), occupant.wait().unwrap());
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.deadline_shed, 1);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.flushes, 2, "the occupant, then the batchmate alone");
    }

    #[test]
    fn an_unrepresentable_deadline_never_sheds() {
        // `now + Duration::MAX` overflows an `Instant`; such a deadline
        // must be accepted and answered normally, not panic the client.
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        let expected = client.predict(&q).unwrap();
        assert_eq!(client.predict_within(&q, Duration::MAX).unwrap(), expected);
        let ranked = client
            .submit_with(
                &q,
                SubmitOptions::task(TaskKind::TopK).with_deadline(Duration::MAX),
            )
            .unwrap();
        assert!(matches!(
            ranked.wait_response().unwrap(),
            TaskResponse::Ranked(_)
        ));
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.deadline_shed, 0);
        assert_eq!(stats.served, 3);
    }

    #[test]
    fn dropping_a_server_without_shutdown_joins_workers_quietly() {
        // Drop is the unceremonious path (e.g. during a caller's unwind):
        // workers must stop without the drop panicking, even while queries
        // are in flight.
        let server = Server::spawn(testkit::tiny_deployment(), BatchPolicy::window(4));
        let client = server.client();
        let q = testkit::tiny_queries(1).remove(0);
        client.predict(&q).unwrap();
        drop(server);
        assert!(matches!(client.predict(&q), Err(ServeError::Disconnected)));
    }
}
