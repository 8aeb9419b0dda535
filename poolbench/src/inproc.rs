//! In-process runs: the end-to-end window over `MiningPool::run_parallel`
//! and the single-threaded traced phase driver.

use crate::outcome::{EpochOutcome, Outcome, Window};
use crate::workloads::Spec;
use rpol::commitment::EpochCommitment;
use rpol::committee::{audit_indices, partition, CommitteeBatch};
use rpol::manager::{EpochPlan, EpochReport, PoolManager};
use rpol::pool::{MiningPool, PoolReport};
use rpol::verify::ProofProvider;
use rpol::wire;
use rpol::worker::{CommitMode, EpochSubmission, PoolWorker};
use rpol_crypto::Address;
use rpol_nn::data::SyntheticImages;
use rpol_nn::metrics::correct_count;
use rpol_sim::gpu::GpuModel;
use rpol_tensor::rng::Pcg32;
use rpol_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Rows per evaluation forward pass; equal to the pool's own chunking so
/// the traced driver's accuracy matches the end-to-end run bit for bit.
const EVAL_CHUNK: usize = 16;

/// One end-to-end run on the persistent executor. Set-up is pool
/// construction, executor start (the part of `run_parallel` outside its
/// epochs) and the warm-up epoch.
fn run_once(spec: &Spec, threads: usize) -> (PoolReport, f64) {
    let t = Instant::now();
    let mut pool = MiningPool::new(spec.config, spec.roster.clone()).with_threads(threads);
    let construct_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = black_box(pool.run_parallel());
    let run_s = t.elapsed().as_secs_f64();
    let epochs_s: f64 = report.epochs.iter().map(|e| e.wall_seconds).sum();
    let setup_s = construct_s + (run_s - epochs_s).max(0.0) + report.epochs[0].wall_seconds;
    (report, setup_s)
}

/// Runs whole fixed-length runs until the window has lasted `seconds` and
/// holds at least `min_epochs` timed epochs and two runs. Returns false
/// in the second slot when a run's decisions differ from the first's.
pub fn window(spec: &Spec, threads: usize, seconds: f64, min_epochs: u64) -> (Window, bool) {
    let mut w = Window::default();
    let mut repeatable = true;
    let start = Instant::now();
    while w.runs < 2 || w.timed_epochs() < min_epochs || start.elapsed().as_secs_f64() < seconds {
        let (report, setup_s) = run_once(spec, threads);
        repeatable &= w.absorb(&report, &spec.roster, setup_s);
    }
    (w, repeatable)
}

/// Per-layer totals over the traced run's timed epochs.
#[derive(Debug, Default)]
pub struct Traced {
    pub epochs: u64,
    pub epoch_s: f64,
    pub calibrate_s: f64,
    pub train_s: f64,
    pub verify_s: f64,
    pub eval_s: f64,
    pub train_backwards: u64,
    pub gemm_calls: u64,
    pub gemm_flops: u64,
    pub forwards: u64,
    pub backwards: u64,
    pub commit_s: f64,
    pub bytes_hashed: u64,
    pub lsh_s: f64,
    pub replayed_steps: u64,
    pub double_checks: u64,
    pub proof_bytes: u64,
    pub missed_cheats: u64,
    pub batch_s: f64,
    pub submission_codec_s: f64,
    pub proof_codec_s: f64,
    /// Every epoch's decisions, warm-up included.
    pub outcome: Outcome,
    /// Probe results that disagreed with what the program produced.
    pub probe_errors: Vec<String>,
}

/// The pool's parts, built with the public constructors exactly as
/// `MiningPool::new` builds them.
struct Parts {
    manager: PoolManager,
    workers: Vec<PoolWorker>,
    test: Vec<(Tensor, Vec<usize>)>,
}

fn build_parts(spec: &Spec) -> Parts {
    let config = &spec.config;
    let n = spec.roster.len();
    let mut rng = Pcg32::seed_from(config.seed);
    let data = SyntheticImages::generate(&config.task.spec, config.train_samples, &mut rng);
    let mut shards = data.shard(n + 1);
    let manager_shard = shards.pop().expect("manager shard");
    let test_set = SyntheticImages::generate(&config.task.spec, config.test_samples, &mut rng);
    let test = (0..test_set.len())
        .step_by(EVAL_CHUNK)
        .map(|s| test_set.batch(&(s..(s + EVAL_CHUNK).min(test_set.len())).collect::<Vec<_>>()))
        .collect();
    let address = Address::derive(&config.seed.to_be_bytes());
    let workers: Vec<PoolWorker> = spec
        .roster
        .iter()
        .zip(shards)
        .enumerate()
        .map(|(i, (&behavior, shard))| {
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
    let mut gpus: Vec<GpuModel> = workers.iter().map(|w| w.gpu).collect();
    gpus.sort_by(|a, b| b.fp32_tflops().total_cmp(&a.fp32_tflops()));
    gpus.dedup();
    manager.set_calibration_gpus((gpus[0], *gpus.get(1).unwrap_or(&gpus[0])));
    Parts {
        manager,
        workers,
        test,
    }
}

fn evaluate(manager: &PoolManager, test: &[(Tensor, Vec<usize>)]) -> f32 {
    let mut model = manager.config().build_encoded_model(&manager.address);
    model.load_params(manager.global_weights());
    let (mut correct, mut total) = (0usize, 0usize);
    for (inputs, labels) in test {
        correct += correct_count(&model.forward(inputs, false), labels);
        total += labels.len();
    }
    correct as f32 / total as f32
}

fn counters() -> [u64; 4] {
    let snap = rpol_obs::global().snapshot();
    [
        snap.counter("tensor.gemm.calls"),
        snap.counter("tensor.gemm.flops_total"),
        snap.counter("nn.model.forwards"),
        snap.counter("nn.model.backwards"),
    ]
}

/// Drives every epoch through the public phase API on one thread —
/// `begin_epoch`, each worker's `run_epoch`, `finish_epoch`, evaluation —
/// so the phase spans are sequential and sum to the traced epoch. The
/// flat finish is used for committee workloads too: the flat/hierarchical
/// parity contract makes their decisions identical. Probes time the work
/// below the phase calls on each epoch's own operands, outside the epoch.
pub fn traced(spec: &Spec) -> Traced {
    let mut config = spec.config;
    config.fault = None;
    config.hierarchy = None;
    let Parts {
        mut manager,
        mut workers,
        test,
    } = build_parts(&Spec {
        config,
        roster: spec.roster.clone(),
    });
    let n = workers.len();
    let mut t = Traced::default();
    let global_rec = rpol_obs::global();
    global_rec.enable();
    for epoch in 0..config.epochs as u64 {
        let before = counters();
        let t0 = Instant::now();
        let plan = manager.begin_epoch(n, epoch);
        let t1 = Instant::now();
        let train_before = counters();
        let subs: Vec<EpochSubmission> = workers
            .iter_mut()
            .enumerate()
            .map(|(w, worker)| {
                worker.run_epoch(
                    &config.task,
                    manager.global_weights(),
                    plan.nonces[w],
                    plan.steps,
                    epoch,
                    plan.commit_mode(),
                )
            })
            .collect();
        let train_after = counters();
        let t2 = Instant::now();
        let report = manager.finish_epoch(&workers, &plan, &subs);
        let t3 = Instant::now();
        let accuracy = evaluate(&manager, &test);
        let t4 = Instant::now();
        let after = counters();
        t.outcome.push(EpochOutcome {
            accepted: report.accepted.clone(),
            rejected: report.rejected.clone(),
            quarantined: report.quarantined.clone(),
            accuracy_bits: accuracy.to_bits(),
        });
        if epoch == 0 {
            continue; // warm-up epoch, as in the end-to-end window
        }
        t.epochs += 1;
        t.epoch_s += (t4 - t0).as_secs_f64();
        t.calibrate_s += (t1 - t0).as_secs_f64();
        t.train_s += (t2 - t1).as_secs_f64();
        t.verify_s += (t3 - t2).as_secs_f64();
        t.eval_s += (t4 - t3).as_secs_f64();
        t.train_backwards += train_after[3] - train_before[3];
        t.gemm_calls += after[0] - before[0];
        t.gemm_flops += after[1] - before[1];
        t.forwards += after[2] - before[2];
        t.backwards += after[3] - before[3];
        t.bytes_hashed += report.commit_bytes_hashed;
        t.replayed_steps += report.replayed_steps;
        t.double_checks += report.double_checks as u64;
        t.proof_bytes += report.comm.proof_bytes;
        t.missed_cheats += report
            .accepted
            .iter()
            .filter(|&&w| spec.roster[w].is_adversarial())
            .count() as u64;

        probe(&mut t, spec, &plan, &workers, &subs, &report);
    }
    global_rec.disable();
    t
}

/// Times the work below the phase calls on one epoch's own operands,
/// outside the epoch wall, and checks each probe against what the
/// program produced.
fn probe(
    t: &mut Traced,
    spec: &Spec,
    plan: &EpochPlan,
    workers: &[PoolWorker],
    subs: &[EpochSubmission],
    report: &EpochReport,
) {
    let (epoch, seed, n) = (plan.epoch, spec.config.seed, workers.len());
    for (worker, sub) in workers.iter().zip(subs) {
        let checkpoints: Vec<Vec<f32>> = (0..=worker.segments().len())
            .map(|i| worker.open_checkpoint(i).expect("resident").into_owned())
            .collect();
        let p = Instant::now();
        let commitment = match plan.commit_mode() {
            CommitMode::Skip => None,
            CommitMode::V1 => Some(EpochCommitment::commit_v1(&checkpoints)),
            CommitMode::V2(f) => Some(EpochCommitment::commit_v2(&checkpoints, f)),
            CommitMode::V3(f) => Some(EpochCommitment::commit_v3(&checkpoints, f)),
        };
        t.commit_s += p.elapsed().as_secs_f64();
        if commitment != sub.commitment {
            t.probe_errors.push(format!(
                "epoch {epoch} worker {}: commitment probe differs from the submission",
                worker.id
            ));
        }
        if let CommitMode::V2(f) | CommitMode::V3(f) = plan.commit_mode() {
            let refs: Vec<&[f32]> = checkpoints.iter().map(Vec::as_slice).collect();
            let p = Instant::now();
            black_box(f.hash_batch(&refs));
            t.lsh_s += p.elapsed().as_secs_f64();
        }
        let p = Instant::now();
        let bytes = wire::encode_submission(&sub.final_weights, sub.commitment.as_ref());
        let decoded = wire::decode_submission(bytes);
        t.submission_codec_s += p.elapsed().as_secs_f64();
        if decoded.as_ref().map(|(_, c)| c) != Ok(&sub.commitment) {
            t.probe_errors.push(format!(
                "epoch {epoch} worker {}: submission codec round trip failed",
                worker.id
            ));
        }
    }
    let packed = matches!(plan.commit_mode(), CommitMode::V3(_));
    for (w, verdict) in &report.verdicts {
        for &(sample, _) in &verdict.outcomes {
            let opening = workers[*w].open_checkpoint(sample).expect("resident");
            let p = Instant::now();
            let bytes = if packed {
                wire::encode_proof_response_packed(sample, &opening)
            } else {
                wire::encode_proof_response(sample, &opening)
            };
            let decoded = wire::decode_proof_response(bytes);
            t.proof_codec_s += p.elapsed().as_secs_f64();
            if !matches!(decoded, Ok((i, ref ws)) if i == sample && ws.len() == opening.len()) {
                t.probe_errors.push(format!(
                    "epoch {epoch} worker {w}: proof codec round trip failed"
                ));
            }
        }
    }
    if let Some(h) = spec.config.hierarchy {
        for (c, members) in partition(seed, n, h.committees).iter().enumerate() {
            let verdicts: Vec<_> = report
                .verdicts
                .iter()
                .filter(|(w, _)| members.contains(w))
                .cloned()
                .collect();
            if verdicts.is_empty() {
                continue;
            }
            let p = Instant::now();
            let batch = CommitteeBatch::from_verdicts(epoch, c, verdicts, 0);
            let shipped = wire::decode_committee_batch(wire::encode_committee_batch(&batch));
            let audits_ok = audit_indices(seed, epoch, c, h.q_top, batch.verdicts.len())
                .into_iter()
                .all(|i| {
                    let (w, v) = &batch.verdicts[i];
                    batch.verify_inclusion(&batch.prove(i), *w, v)
                });
            t.batch_s += p.elapsed().as_secs_f64();
            let consistent = shipped.is_ok_and(|b| b.root_consistent() && b == batch);
            if !(consistent && audits_ok) {
                t.probe_errors
                    .push(format!("epoch {epoch} committee {c}: batch probe failed"));
            }
        }
    }
}
