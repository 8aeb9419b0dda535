//! The assembled mining pool: data sharding, multi-epoch training with
//! verification, accuracy tracking, and accounting — the engine behind the
//! Fig. 6 attack experiments and the §VII-E overhead measurements.

use crate::adversary::WorkerBehavior;
use crate::committee::{partition, Hierarchy};
use crate::link::{run_wire_epoch, Link, Upload};
use crate::manager::{CommStats, EpochPlan, EpochReport, Participant, PoolManager};
use crate::tasks::TaskConfig;
use crate::transport::{link_state, FaultConfig, LinkState, MsgKind, Transport, TransportStats};
use crate::verify::ProofProvider as _;
use crate::wire;
use crate::worker::{EpochSubmission, PoolWorker};
use rpol_crypto::Address;
use rpol_exec::Executor;
use rpol_nn::data::SyntheticImages;
use rpol_nn::metrics::correct_count;
use rpol_nn::model::Sequential;
use rpol_obs::{event, span, Recorder};
use rpol_sim::gpu::GpuModel;
use rpol_sim::SimClock;
use rpol_tensor::rng::Pcg32;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Fixed evaluation chunk (rows per forward pass). Serial and parallel
/// evaluation run the same chunk shapes and merge integer correct-counts
/// in index order, so their reported accuracy is bitwise identical.
const EVAL_CHUNK: usize = 16;

/// Which verification scheme the pool runs (§VII-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// No verification — every submission is aggregated (insecure).
    Baseline,
    /// Sampled replay with raw-weight proofs.
    RPoLv1,
    /// Sampled replay with LSH commitments and adaptive calibration.
    RPoLv2,
    /// Sampled replay over bf16-lattice checkpoints: quantized commitment
    /// digests (half the hashed bytes), packed wire framing (half the
    /// payload bytes), and a raw-distance double-check escape hatch when
    /// an LSH match is borderline.
    RPoLv3,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Scheme::Baseline => "Baseline",
            Scheme::RPoLv1 => "RPoLv1",
            Scheme::RPoLv2 => "RPoLv2",
            Scheme::RPoLv3 => "RPoLv3",
        };
        f.write_str(name)
    }
}

/// Pool-level configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolConfig {
    /// The training task.
    pub task: TaskConfig,
    /// Verification scheme.
    pub scheme: Scheme,
    /// Number of epochs to run.
    pub epochs: usize,
    /// Training steps per worker per epoch.
    pub steps_per_epoch: usize,
    /// Training samples drawn for the whole pool (split into n+1 shards).
    pub train_samples: usize,
    /// Held-out test samples for accuracy tracking.
    pub test_samples: usize,
    /// Checkpoints sampled per worker per epoch (paper: 3).
    pub q_samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Fault-injecting transport between manager and workers. `None` runs
    /// the legacy in-process protocol (perfect channels, no framing).
    pub fault: Option<FaultConfig>,
    /// Two-tier committee hierarchy (DESIGN.md §15). `None` runs the flat
    /// single-manager pipeline. Accept/reject/quarantine sets are bitwise
    /// identical either way at equal sampling parameters; the hierarchy
    /// changes *where* verification runs and how much memory peaks, not
    /// what is decided.
    pub hierarchy: Option<Hierarchy>,
}

impl PoolConfig {
    /// A minimal configuration for tests and doc examples.
    pub fn tiny_demo(scheme: Scheme) -> Self {
        Self {
            task: TaskConfig::tiny(),
            scheme,
            epochs: 2,
            steps_per_epoch: 4,
            train_samples: 160,
            test_samples: 40,
            q_samples: 2,
            seed: 0xD0_0D,
            fault: None,
            hierarchy: None,
        }
    }

    /// A configuration matching the paper's experimental shape: task A/B,
    /// 10 workers, 3 sampled checkpoints.
    pub fn paper_like(task: TaskConfig, scheme: Scheme, epochs: usize) -> Self {
        Self {
            task,
            scheme,
            epochs,
            steps_per_epoch: 15,
            train_samples: 1_760, // 11 shards × 160
            test_samples: 300,
            q_samples: 3,
            seed: 0x009A_9E12,
            fault: None,
            hierarchy: None,
        }
    }

    /// Routes every protocol message through a fault-injecting transport.
    ///
    /// # Panics
    ///
    /// Panics if the fault config fails [`FaultConfig::validate`].
    pub fn with_faults(mut self, fault: FaultConfig) -> Self {
        fault.validate().expect("invalid fault config");
        assert!(
            self.hierarchy.is_none(),
            "hierarchy over the fault-injecting transport is not supported"
        );
        self.fault = Some(fault);
        self
    }

    /// Shards verification into a two-tier committee hierarchy.
    ///
    /// # Panics
    ///
    /// Panics on a baseline scheme (no verdicts to commit) or when faults
    /// are configured (the chaos transport path stays flat).
    pub fn with_hierarchy(mut self, hierarchy: Hierarchy) -> Self {
        assert!(
            !matches!(self.scheme, Scheme::Baseline),
            "hierarchy requires a verifying scheme: the baseline emits no verdicts to commit"
        );
        assert!(
            self.fault.is_none(),
            "hierarchy over the fault-injecting transport is not supported"
        );
        self.hierarchy = Some(hierarchy);
        self
    }
}

/// One epoch's row in the pool report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochRecord {
    /// The manager's protocol report.
    pub report: EpochReport,
    /// Global-model test accuracy after this epoch's aggregation.
    pub test_accuracy: f32,
    /// Real wall-clock seconds the epoch took in this process (training +
    /// verification + evaluation) — the in-process complement to the
    /// analytic Table II model.
    pub wall_seconds: f64,
    /// Simulated transport time and event counters for the epoch (empty
    /// without a fault-injecting transport).
    pub transport_time: SimClock,
}

/// The full run record (returned by [`MiningPool::run`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolReport {
    /// The scheme that produced this report.
    pub scheme: Scheme,
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// Total checkpoint storage held by workers at the end (bytes).
    pub worker_storage_bytes: u64,
}

impl PoolReport {
    /// The accuracy curve across epochs.
    pub fn accuracy_curve(&self) -> Vec<f32> {
        self.epochs.iter().map(|e| e.test_accuracy).collect()
    }

    /// Final test accuracy.
    pub fn final_accuracy(&self) -> f32 {
        self.epochs.last().map(|e| e.test_accuracy).unwrap_or(0.0)
    }

    /// Total rejected submissions across the run.
    pub fn rejections(&self) -> usize {
        self.epochs.iter().map(|e| e.report.rejected.len()).sum()
    }

    /// Total accepted submissions across the run.
    pub fn acceptances(&self) -> usize {
        self.epochs.iter().map(|e| e.report.accepted.len()).sum()
    }

    /// Total double-checks triggered across the run.
    pub fn double_checks(&self) -> usize {
        self.epochs.iter().map(|e| e.report.double_checks).sum()
    }

    /// Total bytes moved across the run.
    pub fn total_comm_bytes(&self) -> u64 {
        self.epochs.iter().map(|e| e.report.comm.total()).sum()
    }

    /// Total wall-clock seconds across epochs.
    pub fn total_wall_seconds(&self) -> f64 {
        self.epochs.iter().map(|e| e.wall_seconds).sum()
    }

    /// Total epoch-quarantine events across the run (a worker quarantined
    /// in `k` epochs counts `k` times).
    pub fn quarantine_events(&self) -> usize {
        self.epochs.iter().map(|e| e.report.quarantined.len()).sum()
    }

    /// Whether `worker` was quarantined in every epoch of the run.
    pub fn quarantined_throughout(&self, worker: usize) -> bool {
        self.epochs
            .iter()
            .all(|e| e.report.quarantined.contains(&worker))
    }

    /// Merged transport counters across the run (all zero without a
    /// fault-injecting transport).
    pub fn transport_totals(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for e in &self.epochs {
            total.merge(&e.report.transport);
        }
        total
    }
}

/// The in-process seeded-chaos [`Link`]: workers live in this process
/// and train here — serially, or on the pool's persistent executor. Each
/// leg's link state follows the worker's behaviour ([`link_state`]), so
/// crashes and stragglers play out in the chaos draws.
struct SimLink {
    transport: Transport,
    rec: Arc<Recorder>,
    config: TaskConfig,
    /// RPoLv3: openings ride the packed (bf16 lattice) framing.
    packed: bool,
    /// Trains on the persistent executor when set, else serially.
    exec: Option<Arc<Executor>>,
}

impl Link for SimLink {
    fn transport(&self) -> &Transport {
        &self.transport
    }

    fn link_state(&self, worker: &PoolWorker, epoch: u64, kind: MsgKind) -> LinkState {
        link_state(&worker.behavior(), epoch, kind)
    }

    fn train(
        &mut self,
        plan: &EpochPlan,
        global: &[f32],
        workers: &mut [PoolWorker],
        tasked: &[bool],
    ) -> Vec<Option<Upload>> {
        // A delivered task is byte-identical to the one sent (frames are
        // checksummed), so workers train from the plan directly. Workers
        // that will not be able to submit (crashed this epoch) skip the
        // doomed compute.
        let mut uploads: Vec<Option<Upload>> = (0..workers.len()).map(|_| None).collect();
        let jobs = workers.iter_mut().enumerate().filter(|(w, worker)| {
            tasked[*w] && link_state(&worker.behavior(), plan.epoch, MsgKind::Submission).alive
        });
        let (rec, config) = (&*self.rec, &self.config);
        let upload = |worker: &mut PoolWorker| {
            let sub = worker.train_planned(rec, config, global, plan);
            let payload = wire::encode_submission(&sub.final_weights, sub.commitment.as_ref());
            Some(Upload::Payload(None, payload))
        };
        match &self.exec {
            None => jobs.for_each(|(w, worker)| uploads[w] = upload(worker)),
            Some(exec) => {
                let slots = parking_lot::Mutex::new(&mut uploads);
                exec.scope(|s| {
                    for (w, worker) in jobs {
                        let (slots, upload) = (&slots, &upload);
                        s.spawn(move || {
                            let sent = upload(worker);
                            slots.lock()[w] = sent;
                        });
                    }
                });
            }
        }
        uploads
    }

    fn deadline_miss(
        &self,
        epoch: u64,
        w: usize,
        stats: &mut TransportStats,
        clock: &mut SimClock,
    ) {
        // The worker fell silent: the manager waits out one commitment
        // deadline, then quarantines it.
        let timeout_s = self.transport.policy().timeout_s;
        stats.timeouts += 1;
        clock.add(MsgKind::Submission.label(), timeout_s);
        clock.tick("deadline_miss");
        event!(self.rec, "rpol.pool.deadline_miss", epoch, worker = w);
    }

    fn proof_response(&self, worker: &PoolWorker, index: usize) -> Option<Upload> {
        // The worker opens from local storage (infallible in-process).
        let weights = worker.open_checkpoint(index).ok()?;
        let response = if self.packed {
            wire::encode_proof_response_packed(index, &weights)
        } else {
            wire::encode_proof_response(index, &weights)
        };
        Some(Upload::Payload(None, response))
    }
}

/// A mining pool: one manager plus a set of (possibly adversarial)
/// workers, run for a configured number of epochs.
///
/// # Examples
///
/// ```
/// use rpol::pool::{MiningPool, PoolConfig, Scheme};
/// use rpol::adversary::WorkerBehavior;
///
/// let mut pool = MiningPool::new(
///     PoolConfig::tiny_demo(Scheme::RPoLv1),
///     vec![WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious],
/// );
/// let report = pool.run();
/// assert!(report.rejections() > 0); // the replayer is caught
/// ```
pub struct MiningPool {
    pub(crate) config: PoolConfig,
    pub(crate) manager: PoolManager,
    pub(crate) workers: Vec<PoolWorker>,
    /// Held-out test set, pre-split into [`EVAL_CHUNK`]-row batches.
    test_chunks: Vec<(rpol_tensor::Tensor, Vec<usize>)>,
    /// Observability handle: phase spans, per-epoch metric publication.
    /// Defaults to the shared no-op recorder (free when off).
    pub(crate) recorder: Arc<Recorder>,
    /// The persistent executor behind every parallel run: constructed once
    /// (lazily, on the first parallel epoch) and reused across all epochs
    /// and phases. Serial runs never construct it.
    executor: Option<Arc<Executor>>,
    /// Requested executor width; `None` falls back to
    /// [`Executor::default_threads`].
    threads: Option<usize>,
    /// Pooled evaluation models for [`MiningPool::test_accuracy`], built
    /// once and reloaded with the current global weights per use.
    eval_pool: parking_lot::Mutex<Vec<Sequential>>,
}

impl MiningPool {
    /// Builds a pool with one worker per behaviour entry.
    ///
    /// # Panics
    ///
    /// Panics if `behaviors` is empty or the configured sample counts are
    /// too small for `behaviors.len() + 1` shards.
    pub fn new(config: PoolConfig, behaviors: Vec<WorkerBehavior>) -> Self {
        assert!(!behaviors.is_empty(), "pool needs at least one worker");
        let n = behaviors.len();
        let mut rng = Pcg32::seed_from(config.seed);
        let data = SyntheticImages::generate(&config.task.spec, config.train_samples, &mut rng);
        let mut shards = data.shard(n + 1);
        let manager_shard = shards.pop().expect("manager shard");
        let test = SyntheticImages::generate(&config.task.spec, config.test_samples, &mut rng);
        let test_chunks: Vec<(rpol_tensor::Tensor, Vec<usize>)> = (0..test.len())
            .step_by(EVAL_CHUNK)
            .map(|start| {
                let indices: Vec<usize> = (start..(start + EVAL_CHUNK).min(test.len())).collect();
                test.batch(&indices)
            })
            .collect();

        let address = Address::derive(&config.seed.to_be_bytes());
        let workers: Vec<PoolWorker> = behaviors
            .iter()
            .zip(shards)
            .enumerate()
            .map(|(i, (&behavior, shard))| {
                // Workers register heterogeneous GPUs, cycling the catalogue
                // (the manager calibrates against the top-2).
                let gpu = GpuModel::ALL[i % GpuModel::ALL.len()];
                PoolWorker::new(i, &config.task, &address, shard, gpu, behavior)
            })
            .collect();
        let mut manager = PoolManager::new(
            config.task,
            config.scheme,
            address,
            manager_shard,
            config.q_samples,
            config.steps_per_epoch,
            config.seed,
        );
        // §V-C: calibrate on the top-2 GPUs registered by the workers.
        let mut registered: Vec<GpuModel> = workers.iter().map(|w| w.gpu).collect();
        registered.sort_by(|a, b| {
            b.fp32_tflops()
                .partial_cmp(&a.fp32_tflops())
                .expect("finite TFLOPS")
        });
        registered.dedup();
        let top2 = match registered.as_slice() {
            [only] => (*only, *only),
            [first, second, ..] => (*first, *second),
            [] => unreachable!("pool has workers"),
        };
        manager.set_calibration_gpus(top2);
        Self {
            config,
            manager,
            workers,
            test_chunks,
            recorder: rpol_obs::noop().clone(),
            executor: None,
            threads: None,
            eval_pool: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Sets the executor width for parallel runs. Must be called before
    /// the first parallel epoch constructs the pool's persistent executor.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The pool's persistent executor, constructed on first use and then
    /// reused for every epoch and phase — parallel epochs spawn zero
    /// threads after this. The manager shares the handle for verification
    /// and calibration fan-out.
    pub(crate) fn ensure_executor(&mut self) -> Arc<Executor> {
        if self.executor.is_none() {
            let threads = self.threads.unwrap_or_else(Executor::default_threads);
            let exec = Arc::new(Executor::with_recorder(threads, self.recorder.clone()));
            self.manager.set_executor(Arc::clone(&exec));
            self.executor = Some(exec);
        }
        Arc::clone(self.executor.as_ref().expect("executor constructed"))
    }

    /// Attaches an observability recorder: epoch/phase spans, transport
    /// events, and per-epoch metric publication all land on `rec`. The
    /// manager (and through it the verifier) shares the same handle.
    /// Metrics are mirrored from the epoch reports at deterministic merge
    /// points, so exported totals always equal the report's own numbers.
    pub fn with_recorder(mut self, rec: Arc<Recorder>) -> Self {
        self.manager.set_recorder(rec.clone());
        self.recorder = rec;
        self
    }

    /// The pool's manager.
    pub fn manager(&self) -> &PoolManager {
        &self.manager
    }

    /// The pool's workers.
    pub fn workers(&self) -> &[PoolWorker] {
        &self.workers
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Dissolves the pool into its workers — the client side of a socket
    /// run builds a pool with the shared seed (so data generation matches
    /// the server bit-for-bit), then takes the workers and drops the rest.
    pub fn into_workers(self) -> Vec<PoolWorker> {
        self.workers
    }

    /// Current global-model accuracy on the held-out test set, evaluated
    /// in fixed [`EVAL_CHUNK`]-row batches — on the persistent executor
    /// when one is attached. Per-chunk integer correct-counts are merged
    /// in index order, so serial and parallel evaluation agree bitwise.
    pub fn test_accuracy(&self) -> f32 {
        let total: usize = self
            .test_chunks
            .iter()
            .map(|(_, labels)| labels.len())
            .sum();
        let eval_chunk = |i: usize| {
            let (inputs, labels) = &self.test_chunks[i];
            let _g = span!(
                self.recorder,
                "rpol.pool.eval_chunk",
                chunk = i,
                rows = labels.len()
            );
            let mut model = self.checkout_eval_model();
            let logits = model.forward(inputs, false);
            let correct = correct_count(&logits, labels);
            self.eval_pool.lock().push(model);
            correct
        };
        let correct: usize = match &self.executor {
            Some(exec) => exec
                .run_indexed(self.test_chunks.len(), eval_chunk)
                .into_iter()
                .sum(),
            None => (0..self.test_chunks.len()).map(eval_chunk).sum(),
        };
        correct as f32 / total as f32
    }

    /// Checks an evaluation model out of the pool (building one on a
    /// miss) and loads the current global weights into it.
    fn checkout_eval_model(&self) -> Sequential {
        let mut model = self.eval_pool.lock().pop().unwrap_or_else(|| {
            self.manager
                .config()
                .build_encoded_model(&self.manager.address)
        });
        model.load_params(self.manager.global_weights());
        model
    }

    /// Closes an epoch started at `start`: evaluates the new global model
    /// and stamps the epoch's wall time.
    pub(crate) fn record(
        &self,
        start: std::time::Instant,
        report: EpochReport,
        transport_time: SimClock,
    ) -> EpochRecord {
        EpochRecord {
            report,
            test_accuracy: self.test_accuracy(),
            wall_seconds: start.elapsed().as_secs_f64(),
            transport_time,
        }
    }

    /// Runs one epoch and returns its record.
    pub fn run_epoch(&mut self, epoch: u64) -> EpochRecord {
        let start = std::time::Instant::now();
        let _epoch_span = span!(self.recorder, "rpol.pool.epoch", epoch);
        let report = self.manager.run_epoch(&mut self.workers, epoch);
        self.record(start, report, SimClock::new())
    }

    /// Runs one epoch on the pool's persistent executor with **phase
    /// overlap**, flat or through the committee hierarchy, on the one
    /// task graph of DESIGN.md §12: the moment worker `w`'s submission
    /// lands, one verification task per sampled checkpoint of `w` is
    /// spawned while others still train, and a committee's last sample
    /// seals its batch and spawns its audits. Zero threads are spawned
    /// per epoch.
    ///
    /// Bitwise identical to the serial runs at every thread count: the
    /// sampling schedule is drawn eagerly from the same RNG stream
    /// (training never touches the manager's RNG), per-sample verdicts
    /// merge in index order, committees fold into the order-invariant
    /// fixed-point accumulator, and evaluation chunks are fixed.
    pub fn run_epoch_parallel(&mut self, epoch: u64) -> EpochRecord {
        let start = std::time::Instant::now();
        let recorder = self.recorder.clone();
        let _epoch_span = span!(recorder, "rpol.pool.epoch", epoch);
        let report = crate::graph::run_epoch(self, epoch);
        self.record(start, report, SimClock::new())
    }

    /// Runs one epoch through the two-tier committee hierarchy
    /// (DESIGN.md §15), **streaming committee-by-committee** so peak
    /// commitment memory is O(committee size), never O(pool size):
    ///
    /// 1. The roster is rendezvous-partitioned into committees (seeded on
    ///    the pool seed, so the assignment is stable across epochs and
    ///    churn moves O(1/C) workers).
    /// 2. Each committee's sub-manager trains its members, runs the
    ///    existing sampled-replay verification over them, and emits a
    ///    Merkle-committed verdict batch over canonical verdict leaves.
    /// 3. The top manager ingests only the batch (root + verdicts + byte
    ///    counts) off the framed wire format, checks root consistency,
    ///    spot-audits `q_top` verdicts per committee — Merkle inclusion
    ///    proof plus a full re-replay of the audited worker — and folds
    ///    accepted updates into an order-invariant fixed-point aggregation
    ///    accumulator. The committee's submissions are dropped before the
    ///    next committee trains.
    ///
    /// This serial loop is the reference the overlapped task graph
    /// ([`MiningPool::run_epoch_parallel`]) is pinned against.
    ///
    /// Bitwise identical accept/reject/quarantine sets to the flat path at
    /// equal sampling parameters: the manager RNG is consumed in exactly
    /// the flat order (`begin_epoch` nonces, then
    /// `prepare_verification` assignments for all workers), each verdict
    /// depends only on its own worker's assignment, audit sampling uses an
    /// independent PRF, and the fixed-point aggregation makes the
    /// committee-order fold equal the worker-order fold exactly.
    fn run_epoch_hierarchical(&mut self, epoch: u64) -> EpochRecord {
        let start = std::time::Instant::now();
        let recorder = self.recorder.clone();
        let _epoch_span = span!(recorder, "rpol.pool.epoch", epoch);
        let hierarchy = self
            .config
            .hierarchy
            .expect("hierarchical path needs a hierarchy");
        let n = self.workers.len();
        // Identical RNG consumption to the flat paths: nonces, then the
        // full verification schedule, before any committee runs.
        let plan = self.manager.begin_epoch(n, epoch);
        let prepared = self
            .manager
            .prepare_verification(&plan, n)
            .expect("hierarchy requires a verifying scheme");
        let committees = partition(self.config.seed, n, hierarchy.committees);

        let config = *self.manager.config();
        let global = self.manager.global_weights().to_vec();
        let model_bytes = (global.len() * 4) as u64;
        let mut comm = CommStats {
            broadcast_bytes: model_bytes * n as u64,
            ..CommStats::default()
        };
        let mut ingest = self.manager.ingest_begin(hierarchy, &[]);

        for (c, members) in committees.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let _committee_span = span!(
                recorder,
                "rpol.pool.committee",
                epoch,
                committee = c,
                members = members.len()
            );
            // Sub-manager phase 1: train this committee's members. Only
            // their submissions are resident — the previous committee's
            // were dropped at the end of its loop iteration.
            let subs: Vec<EpochSubmission> = members
                .iter()
                .map(|&w| self.workers[w].train_planned(&recorder, &config, &global, &plan))
                .collect();

            // Sub-manager phase 2 + top-manager ingest: sampled-replay
            // verification, Merkle-committed batch over the framed wire
            // format, root check, spot audits, classification, and the
            // fixed-point aggregation fold — all shared with the socket
            // server through the manager's ingest API.
            let participants: Vec<Participant<'_>> = members
                .iter()
                .zip(&subs)
                .map(|(&w, sub)| {
                    let worker = &self.workers[w];
                    Participant {
                        id: w,
                        address: worker.address,
                        shard: worker.shard(),
                        submission: sub,
                        provider: worker,
                    }
                })
                .collect();
            self.manager.ingest_committee(
                &mut ingest,
                self.config.seed,
                c,
                &participants,
                &plan,
                &prepared,
                false,
            );
            drop(participants);
            comm.submission_bytes += subs.iter().map(|s| s.upload_bytes).sum::<u64>();
            // `subs` drops here: the next committee starts from a clean
            // memory floor.
        }

        let report = self.manager.ingest_finish(ingest, &plan, comm);
        self.record(start, report, SimClock::new())
    }

    /// Runs the configured number of epochs.
    pub fn run(&mut self) -> PoolReport {
        self.run_with(false)
    }

    /// Runs the configured number of epochs on the persistent executor
    /// with train/verify phase overlap ([`MiningPool::run_epoch_parallel`]).
    pub fn run_parallel(&mut self) -> PoolReport {
        self.ensure_executor();
        self.run_with(true)
    }

    fn run_with(&mut self, parallel: bool) -> PoolReport {
        if let Some(hierarchy) = self.config.hierarchy {
            assert!(
                !matches!(self.config.scheme, Scheme::Baseline),
                "hierarchy requires a verifying scheme: the baseline emits no verdicts to commit"
            );
            assert!(
                self.config.fault.is_none(),
                "hierarchy over the fault-injecting transport is not supported"
            );
            hierarchy
                .validate(self.workers.len(), self.config.seed)
                .expect("invalid hierarchy for this roster");
        }
        // Every message crosses the fault-injecting transport when one is
        // configured (DESIGN.md §9).
        let mut link = self.config.fault.map(|fault| SimLink {
            transport: Transport::new(&fault),
            rec: self.recorder.clone(),
            config: *self.manager.config(),
            packed: matches!(self.config.scheme, Scheme::RPoLv3),
            exec: self.executor.clone().filter(|_| parallel),
        });
        let mut epochs = Vec::with_capacity(self.config.epochs);
        for e in 0..self.config.epochs {
            let epoch = e as u64;
            let record = match (&mut link, parallel, self.config.hierarchy) {
                (Some(link), _, _) => run_wire_epoch(self, link, epoch, parallel),
                (None, true, _) => self.run_epoch_parallel(epoch),
                (None, false, Some(_)) => self.run_epoch_hierarchical(epoch),
                (None, false, None) => self.run_epoch(epoch),
            };
            self.publish_epoch(&record);
            epochs.push(record);
        }
        let report = PoolReport {
            scheme: self.config.scheme,
            epochs,
            worker_storage_bytes: self.workers.iter().map(|w| w.storage_bytes()).sum(),
        };
        self.recorder.gauge_set(
            "rpol.pool.worker_storage_bytes",
            report.worker_storage_bytes as f64,
        );
        report
    }

    /// Mirrors one finished epoch into the recorder. Runs at the serial
    /// point after all per-worker state has been merged in worker-id
    /// order, so every exported counter equals the corresponding
    /// [`EpochReport`] total exactly — parallel scheduling never shows.
    pub(crate) fn publish_epoch(&self, record: &EpochRecord) {
        let rec = &*self.recorder;
        if !rec.enabled() {
            return;
        }
        let report = &record.report;
        rec.counter_add("rpol.pool.epochs", 1);
        rec.counter_add("rpol.pool.accepted", report.accepted.len() as u64);
        rec.counter_add("rpol.pool.rejected", report.rejected.len() as u64);
        rec.counter_add("rpol.pool.quarantined", report.quarantined.len() as u64);
        rec.counter_add("rpol.verify.double_checks", report.double_checks as u64);
        rec.counter_add("rpol.verify.replayed_steps", report.replayed_steps);
        rec.counter_add("rpol.commit.bytes_hashed", report.commit_bytes_hashed);
        rec.counter_add("rpol.comm.broadcast_bytes", report.comm.broadcast_bytes);
        rec.counter_add("rpol.comm.submission_bytes", report.comm.submission_bytes);
        rec.counter_add("rpol.comm.proof_bytes", report.comm.proof_bytes);
        rec.counter_add("rpol.pool.peak_commit_bytes", report.peak_commit_bytes);
        if let Some(h) = &report.hierarchy {
            rec.counter_add("rpol.committee.verdicts", h.verdicts);
            rec.counter_add("rpol.committee.audits", h.audits);
            rec.counter_add("rpol.committee.audit_mismatch", h.audit_mismatches);
            rec.counter_add("rpol.committee.batch_bytes", h.batch_bytes);
        }
        rec.gauge_set("rpol.pool.test_accuracy", f64::from(record.test_accuracy));
        report.transport.publish(rec);
        record.transport_time.publish(rec, "sim.clock");
        for (phase, seconds) in record.transport_time.iter() {
            event!(
                rec,
                "rpol.pool.phase_time",
                epoch = report.epoch,
                phase,
                seconds
            );
        }
        // Fold the epoch's simulated seconds into the (logical) clock so
        // trace timestamps advance with simulated time across epochs.
        rec.advance_ns((record.transport_time.total() * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_pool_trains_and_passes() {
        let mut pool = MiningPool::new(
            PoolConfig::tiny_demo(Scheme::RPoLv2),
            vec![WorkerBehavior::Honest; 3],
        );
        let report = pool.run();
        assert_eq!(report.rejections(), 0, "honest workers must all pass");
        assert_eq!(report.acceptances(), 6); // 3 workers × 2 epochs
        assert!(report.total_comm_bytes() > 0);
        assert!(report.worker_storage_bytes > 0);
    }

    #[test]
    fn verified_pool_beats_baseline_under_attack() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::ReplayPrevious,
        ];
        let mut cfg = PoolConfig::tiny_demo(Scheme::Baseline);
        cfg.epochs = 3;
        cfg.steps_per_epoch = 8;
        let baseline = MiningPool::new(cfg, behaviors.clone()).run();
        let mut cfg = PoolConfig::tiny_demo(Scheme::RPoLv1);
        cfg.epochs = 3;
        cfg.steps_per_epoch = 8;
        let verified = MiningPool::new(cfg, behaviors).run();
        assert!(verified.rejections() > 0);
        assert!(
            verified.final_accuracy() >= baseline.final_accuracy(),
            "verified {} vs baseline {}",
            verified.final_accuracy(),
            baseline.final_accuracy()
        );
    }

    #[test]
    fn v2_comm_is_cheaper_than_v1_proofs() {
        let behaviors = vec![WorkerBehavior::Honest; 3];
        let v1 = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv1), behaviors.clone()).run();
        let v2 = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors).run();
        let v1_proofs: u64 = v1.epochs.iter().map(|e| e.report.comm.proof_bytes).sum();
        let v2_proofs: u64 = v2.epochs.iter().map(|e| e.report.comm.proof_bytes).sum();
        assert!(
            v2_proofs < v1_proofs,
            "v2 proof bytes {v2_proofs} should undercut v1 {v1_proofs}"
        );
    }

    #[test]
    fn v3_matches_v1_detection_with_fewer_bytes() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
        ];
        let v1 = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv1), behaviors.clone()).run();
        let v3 = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv3), behaviors).run();
        // Detection is unchanged: same accept/reject sets every epoch.
        for (a, b) in v1.epochs.iter().zip(&v3.epochs) {
            assert_eq!(a.report.accepted, b.report.accepted);
            assert_eq!(a.report.rejected, b.report.rejected);
        }
        // Packed uploads and quantized digests shrink both data planes.
        let sum =
            |r: &PoolReport, f: fn(&EpochRecord) -> u64| -> u64 { r.epochs.iter().map(f).sum() };
        let v1_sub = sum(&v1, |e| e.report.comm.submission_bytes);
        let v3_sub = sum(&v3, |e| e.report.comm.submission_bytes);
        assert!(v3_sub < v1_sub, "v3 uploads {v3_sub} vs v1 {v1_sub}");
        let v1_hashed = sum(&v1, |e| e.report.commit_bytes_hashed);
        let v3_hashed = sum(&v3, |e| e.report.commit_bytes_hashed);
        assert!(
            v3_hashed < v1_hashed,
            "v3 hashed {v3_hashed} vs v1 {v1_hashed}"
        );
        let v1_proof = sum(&v1, |e| e.report.comm.proof_bytes);
        let v3_proof = sum(&v3, |e| e.report.comm.proof_bytes);
        assert!(v3_proof < v1_proof, "v3 proofs {v3_proof} vs v1 {v1_proof}");
    }

    #[test]
    fn v3_parallel_run_matches_serial_exactly() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
        ];
        let serial =
            MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv3), behaviors.clone()).run();
        let parallel =
            MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv3), behaviors).run_parallel();
        assert_eq!(serial.accuracy_curve(), parallel.accuracy_curve());
        for (a, b) in serial.epochs.iter().zip(&parallel.epochs) {
            assert_eq!(a.report.accepted, b.report.accepted);
            assert_eq!(a.report.rejected, b.report.rejected);
            assert_eq!(a.report.comm, b.report.comm);
            assert_eq!(a.report.commit_bytes_hashed, b.report.commit_bytes_hashed);
        }
    }

    #[test]
    fn v3_transport_saves_wire_bytes_without_losing_detection() {
        let behaviors = vec![WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious];
        let cfg = PoolConfig::tiny_demo(Scheme::RPoLv3).with_faults(FaultConfig::ideal(3));
        let v3 = MiningPool::new(cfg, behaviors.clone()).run();
        assert!(v3.rejections() > 0, "replayer must still be caught");
        let saved = v3.transport_totals().bytes_saved;
        assert!(saved > 0, "packed framing saved nothing");

        // The raw schemes save nothing: their encodings ARE the raw framing.
        let cfg = PoolConfig::tiny_demo(Scheme::RPoLv1).with_faults(FaultConfig::ideal(3));
        let v1 = MiningPool::new(cfg, behaviors).run();
        assert_eq!(v1.transport_totals().bytes_saved, 0);
        // And v3's savings cover ≥40% of the weight payload it replaced:
        // every submission and opening moves half the raw weight bytes.
        assert!(
            v3.transport_totals().wire_bytes < v1.transport_totals().wire_bytes,
            "v3 wire {} vs v1 {}",
            v3.transport_totals().wire_bytes,
            v1.transport_totals().wire_bytes
        );
    }

    #[test]
    fn baseline_workers_store_nothing() {
        let report = MiningPool::new(
            PoolConfig::tiny_demo(Scheme::Baseline),
            vec![WorkerBehavior::Honest; 2],
        )
        .run();
        assert_eq!(report.worker_storage_bytes, 0);
    }

    #[test]
    fn small_pools_calibrate_against_registered_gpus() {
        // With 2 workers the registered GPUs are {G3090, GA10}; with 1 it
        // degenerates to a same-GPU pair. Both must calibrate and verify
        // honest workers cleanly.
        for n in [1usize, 2] {
            let mut pool = MiningPool::new(
                PoolConfig::tiny_demo(Scheme::RPoLv2),
                vec![WorkerBehavior::Honest; n],
            );
            let report = pool.run();
            assert_eq!(report.rejections(), 0, "{n}-worker pool rejected honesty");
            for rec in &report.epochs {
                let cal = rec.report.calibration.expect("v2 calibrates");
                assert!(cal.alpha > 0.0);
            }
        }
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
        ];
        let serial =
            MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors.clone()).run();
        let parallel =
            MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors).run_parallel();
        assert_eq!(serial.accuracy_curve(), parallel.accuracy_curve());
        for (a, b) in serial.epochs.iter().zip(&parallel.epochs) {
            assert_eq!(a.report.accepted, b.report.accepted);
            assert_eq!(a.report.rejected, b.report.rejected);
            assert_eq!(a.report.comm, b.report.comm);
        }
    }

    #[test]
    fn hierarchical_run_matches_flat_exactly() {
        let behaviors = vec![
            WorkerBehavior::Honest,
            WorkerBehavior::Honest,
            WorkerBehavior::ReplayPrevious,
            WorkerBehavior::Honest,
        ];
        let flat = MiningPool::new(PoolConfig::tiny_demo(Scheme::RPoLv2), behaviors.clone()).run();
        let cfg = PoolConfig::tiny_demo(Scheme::RPoLv2)
            .with_hierarchy(Hierarchy::new(2, 1).expect("valid hierarchy"));
        let hier = MiningPool::new(cfg, behaviors.clone()).run();
        let hier_par = MiningPool::new(cfg, behaviors).run_parallel();
        assert_eq!(flat.accuracy_curve(), hier.accuracy_curve());
        assert_eq!(flat.accuracy_curve(), hier_par.accuracy_curve());
        for (a, b) in flat.epochs.iter().zip(&hier.epochs) {
            assert_eq!(a.report.accepted, b.report.accepted);
            assert_eq!(a.report.rejected, b.report.rejected);
            assert_eq!(a.report.quarantined, b.report.quarantined);
            assert_eq!(a.report.verdicts, b.report.verdicts);
            assert_eq!(a.report.comm, b.report.comm);
            assert_eq!(a.report.commit_bytes_hashed, b.report.commit_bytes_hashed);
            // Streaming bounds the peak at the largest committee's share.
            let h = b.report.hierarchy.expect("hierarchical run reports");
            assert!(b.report.peak_commit_bytes < a.report.peak_commit_bytes);
            assert_eq!(h.verdicts, 4);
            assert_eq!(h.audits, 2, "one audit per non-empty committee");
            assert_eq!(h.audit_mismatches, 0, "in-process sub-managers are honest");
            assert!(h.batch_bytes > 0);
        }
        for (a, b) in hier.epochs.iter().zip(&hier_par.epochs) {
            assert_eq!(a.report.accepted, b.report.accepted);
            assert_eq!(a.report.verdicts, b.report.verdicts);
            assert_eq!(a.report.hierarchy, b.report.hierarchy);
        }
    }

    #[test]
    fn accuracy_curve_has_one_point_per_epoch() {
        let mut cfg = PoolConfig::tiny_demo(Scheme::Baseline);
        cfg.epochs = 3;
        let report = MiningPool::new(cfg, vec![WorkerBehavior::Honest; 2]).run();
        assert_eq!(report.accuracy_curve().len(), 3);
    }
}
