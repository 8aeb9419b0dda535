//! Epoch-pipeline benchmark emitting `BENCH_pool.json`.
//!
//! Compares a *scoped* epoch pipeline (hard barrier between training and
//! verification, serial calibration and evaluation) against the
//! persistent-executor *overlapped* pipeline at 1, 2 and 8 worker threads.
//!
//! CI hosts for this repo expose a single hardware thread, so wall-clock
//! cannot show multi-thread scaling. The benchmark therefore reports two
//! complementary views:
//!
//! * **modeled** — an instrumented *serial* run records the real duration
//!   of every schedulable unit (calibration trace + replay units, per
//!   worker training, per-sample verification, evaluation chunks) via
//!   wall-clock spans, then a list-scheduling simulation computes the
//!   makespan each pipeline would reach on `W` hardware threads. The
//!   scoped model keeps calibration and evaluation serial and puts a
//!   barrier between training and verification (the schedule of a
//!   per-epoch thread-per-worker runtime, computed from the spans alone);
//!   the overlapped model fans calibration
//!   units and eval chunks across lanes and releases each worker's
//!   verification tasks the moment that worker's training finishes
//!   (exactly what `run_epoch_parallel` schedules on the executor). Both
//!   models carry the measured non-parallel remainder (aggregation,
//!   commitment checks, reduction) so absolute epochs/s stay anchored to
//!   the real epoch duration.
//! * **measured_wall** — honest end-to-end epochs/s of the serial and
//!   overlapped runtimes on this host, labeled with the host's hardware
//!   thread count. On a 1-thread host these are expected to be flat; on a
//!   multi-thread host the overlapped runtime must not be *slower* than
//!   serial (`scripts/check_bench.sh`).
//!
//! Both runtimes are additionally asserted to produce the same accuracy
//! curve — a benchmark of a diverged pipeline is worthless.
//!
//! `BENCH_SMOKE=1` shrinks the pool for the CI regression gate
//! (`scripts/check_bench.sh`); the committed baseline comes from a full
//! run (`scripts/bench_pool.sh`).
//!
//! Usage: `cargo run --release -p rpol-bench --bin pool_bench [out.json]`

use rpol::adversary::WorkerBehavior;
use rpol::pool::{MiningPool, PoolConfig, Scheme};
use rpol::transport::FaultConfig;
use rpol_obs::{Event, EventKind, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// Every schedulable unit of one epoch, with measured durations (ns).
#[derive(Default, Clone)]
struct EpochSpans {
    /// Calibration sub-task training (serial in both pipelines).
    trace: u64,
    /// Calibration replay measurements (independent units).
    calib_units: Vec<u64>,
    /// Per-worker local training.
    train: Vec<u64>,
    /// Per-worker whole-verification spans (the scoped unit).
    verify_workers: Vec<u64>,
    /// Per-worker, per-sample replay spans (the overlapped unit).
    verify_samples: Vec<Vec<u64>>,
    /// Held-out evaluation chunks.
    eval_chunks: Vec<u64>,
    /// Full `rpol.pool.epoch` duration.
    total: u64,
}

impl EpochSpans {
    /// Measured time not covered by any schedulable unit: aggregation,
    /// commitment verification, sampling, reduction. Serial in both
    /// pipelines, so both models carry it unchanged.
    fn remainder(&self) -> u64 {
        let covered = self.trace
            + self.calib_units.iter().sum::<u64>()
            + self.train.iter().sum::<u64>()
            + self.verify_workers.iter().sum::<u64>()
            + self.eval_chunks.iter().sum::<u64>();
        self.total.saturating_sub(covered)
    }
}

/// Splits a serial run's event stream into per-epoch span groups. Events
/// arrive in close order, so nested spans (per-sample replays) precede
/// their enclosing span (the worker verification) and everything precedes
/// the epoch span that closes last.
fn collect_epochs(events: &[Event]) -> Vec<EpochSpans> {
    let mut epochs = Vec::new();
    let mut cur = EpochSpans::default();
    let mut pending_samples: Vec<u64> = Vec::new();
    for ev in events {
        if ev.kind != EventKind::Span {
            continue;
        }
        let Some(dur) = ev.dur else { continue };
        match ev.name.as_str() {
            "rpol.calibrate.trace" => cur.trace = dur,
            "rpol.calibrate.unit" => cur.calib_units.push(dur),
            "rpol.worker.train_epoch" => cur.train.push(dur),
            "rpol.verify.replay_segment" => pending_samples.push(dur),
            "rpol.verify.worker" => {
                cur.verify_workers.push(dur);
                cur.verify_samples
                    .push(std::mem::take(&mut pending_samples));
            }
            "rpol.pool.eval_chunk" => cur.eval_chunks.push(dur),
            "rpol.pool.epoch" => {
                cur.total = dur;
                epochs.push(std::mem::take(&mut cur));
                pending_samples.clear();
            }
            _ => {}
        }
    }
    epochs
}

/// Longest-processing-time list schedule of independent tasks over
/// `lanes` identical lanes; returns the makespan.
fn lpt(tasks: &[u64], lanes: usize) -> u64 {
    let mut sorted: Vec<u64> = tasks.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let mut lane = vec![0u64; lanes.max(1)];
    for t in sorted {
        let min = lane.iter_mut().min().expect("at least one lane");
        *min += t;
    }
    lane.into_iter().max().unwrap_or(0)
}

/// Modeled makespan of one *scoped* epoch on `w` threads: serial
/// calibration, LPT-parallel training, a barrier, LPT-parallel
/// worker-granular verification, serial evaluation.
fn scoped_makespan(e: &EpochSpans, w: usize) -> u64 {
    let calib = e.trace + e.calib_units.iter().sum::<u64>();
    let train = lpt(&e.train, w);
    let verify = lpt(&e.verify_workers, w);
    let eval: u64 = e.eval_chunks.iter().sum();
    calib + train + verify + eval + e.remainder()
}

/// Modeled makespan of one *overlapped* epoch on `w` threads: the
/// calibration trace stays serial but its replay units fan out; each
/// worker's per-sample verification tasks are *released* the moment that
/// worker's training completes (no barrier); evaluation chunks fan out.
fn overlapped_makespan(e: &EpochSpans, w: usize) -> u64 {
    let lanes_n = w.max(1);
    let calib = e.trace + lpt(&e.calib_units, lanes_n);

    // Training + verification as a release-time list schedule.
    let mut lane = vec![0u64; lanes_n];
    let mut order: Vec<usize> = (0..e.train.len()).collect();
    order.sort_unstable_by(|&a, &b| e.train[b].cmp(&e.train[a]));
    let mut releases: Vec<(u64, u64)> = Vec::new();
    for &wk in &order {
        let min = lane.iter_mut().min().expect("lane");
        *min += e.train[wk];
        let finish = *min;
        if let Some(samples) = e.verify_samples.get(wk) {
            for &s in samples {
                releases.push((finish, s));
            }
        }
    }
    releases.sort_unstable();
    for (release, dur) in releases {
        let min = lane.iter_mut().min().expect("lane");
        *min = (*min).max(release) + dur;
    }
    let train_verify = lane.into_iter().max().unwrap_or(0);

    let eval = lpt(&e.eval_chunks, lanes_n);
    calib + train_verify + eval + e.remainder()
}

fn epochs_per_s(total_ns: u64, epochs: usize) -> f64 {
    epochs as f64 * 1e9 / total_ns as f64
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pool.json".to_string());
    let smoke = std::env::var("BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    // The paper's 10-worker pool shape with multi-segment epochs and an
    // eval-heavy held-out set: workers outnumber lanes (so the scoped
    // train→verify barrier strands lane time) and the scoped pipeline's
    // serial phases (calibration replay units, evaluation) dominate.
    let (workers, steps, q, test_samples, epochs) = if smoke {
        (4usize, 8usize, 2usize, 96usize, 1usize)
    } else {
        (10, 16, 4, 2048, 3)
    };
    let mut config = PoolConfig::tiny_demo(Scheme::RPoLv2);
    config.epochs = epochs;
    config.steps_per_epoch = steps;
    config.q_samples = q;
    config.test_samples = test_samples;
    config.train_samples = (workers + 1) * 80;
    let behaviors = vec![WorkerBehavior::Honest; workers];

    // --- Instrumented serial reference run: real unit durations. ---
    let rec = Arc::new(Recorder::wall());
    let mut serial_pool = MiningPool::new(config, behaviors.clone()).with_recorder(rec.clone());
    let t0 = Instant::now();
    let serial_report = serial_pool.run();
    let serial_wall_ns = t0.elapsed().as_nanos() as u64;
    let spans = collect_epochs(&rec.events());
    assert_eq!(spans.len(), epochs, "one span group per epoch");
    for e in &spans {
        assert_eq!(e.train.len(), workers, "one training span per worker");
        assert_eq!(
            e.verify_workers.len(),
            workers,
            "one verification span per worker"
        );
        assert!(e.trace > 0, "calibration trace span missing");
        assert!(!e.eval_chunks.is_empty(), "evaluation chunk spans missing");
    }

    // --- Honest wall-clock run of the executor runtime. ---
    let t0 = Instant::now();
    let overlapped_report = MiningPool::new(config, behaviors.clone())
        .with_threads(8)
        .run_parallel();
    let overlapped_wall_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(
        serial_report.accuracy_curve(),
        overlapped_report.accuracy_curve(),
        "overlapped runtime diverged from serial"
    );

    // --- Modeled makespans at 1/2/8 threads. ---
    let thread_counts = [1usize, 2, 8];
    let mut modeled = Vec::new();
    for &w in &thread_counts {
        let scoped_ns: u64 = spans.iter().map(|e| scoped_makespan(e, w)).sum();
        let overlapped_ns: u64 = spans.iter().map(|e| overlapped_makespan(e, w)).sum();
        let scoped_eps = epochs_per_s(scoped_ns, epochs);
        let overlapped_eps = epochs_per_s(overlapped_ns, epochs);
        modeled.push((w, scoped_eps, overlapped_eps, overlapped_eps / scoped_eps));
    }

    // --- Compressed-frame case (RPoLv3): the same mixed pool over the
    // in-memory transport under RPoLv1 (raw f32 framing) and RPoLv3
    // (packed bf16 framing). Detection must be identical — honest workers
    // accepted, the replayer rejected, epoch by epoch — before the byte
    // counts mean anything; only then are wire totals recorded.
    let wire_behaviors = vec![
        WorkerBehavior::Honest,
        WorkerBehavior::Honest,
        WorkerBehavior::ReplayPrevious,
    ];
    let v1_report = MiningPool::new(
        PoolConfig::tiny_demo(Scheme::RPoLv1).with_faults(FaultConfig::ideal(3)),
        wire_behaviors.clone(),
    )
    .run();
    let v3_report = MiningPool::new(
        PoolConfig::tiny_demo(Scheme::RPoLv3).with_faults(FaultConfig::ideal(3)),
        wire_behaviors,
    )
    .run();
    for (e, (v1e, v3e)) in v1_report.epochs.iter().zip(&v3_report.epochs).enumerate() {
        assert_eq!(
            v1e.report.accepted, v3e.report.accepted,
            "epoch {e}: v3 accepted set diverged from v1"
        );
        assert_eq!(
            v1e.report.rejected, v3e.report.rejected,
            "epoch {e}: v3 rejected set diverged from v1"
        );
    }
    assert!(v3_report.rejections() > 0, "replayer must be caught");
    let v1_wire = v1_report.transport_totals().wire_bytes;
    let v3_wire = v3_report.transport_totals().wire_bytes;
    let v3_saved = v3_report.transport_totals().bytes_saved;
    assert!(v3_wire < v1_wire, "packed framing must shrink the wire");
    let wire_reduction = 1.0 - v3_wire as f64 / v1_wire as f64;

    let hw_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"workers\": {workers}, \"steps_per_epoch\": {steps}, \"q_samples\": {q}, \"test_samples\": {test_samples}, \"epochs\": {epochs}, \"scheme\": \"RPoLv2\"}},\n"
    ));
    json.push_str(&format!("  \"host_hw_threads\": {hw_threads},\n"));
    json.push_str("  \"modeled\": [\n");
    for (i, (w, s, o, speedup)) in modeled.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {w}, \"scoped_epochs_per_s\": {s:.4}, \"overlapped_epochs_per_s\": {o:.4}, \"overlapped_vs_scoped\": {speedup:.3}}}{}\n",
            if i + 1 < modeled.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // Wall-clock numbers are only comparable across modes when the host
    // actually has lanes to schedule on, so each mode records the thread
    // count it ran under; `check_bench.sh` skips ratio gating at 1.
    json.push_str("  \"measured_wall\": [\n");
    json.push_str(&format!(
        "    {{\"mode\": \"serial\", \"epochs_per_s\": {:.4}, \"host_hw_threads\": {hw_threads}}},\n",
        epochs_per_s(serial_wall_ns, epochs)
    ));
    json.push_str(&format!(
        "    {{\"mode\": \"overlapped_8t\", \"epochs_per_s\": {:.4}, \"host_hw_threads\": {hw_threads}}}\n",
        epochs_per_s(overlapped_wall_ns, epochs)
    ));
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"wire\": {{\"pool\": \"2 honest + 1 replayer, ideal transport\", \"v1_wire_bytes\": {v1_wire}, \"v3_wire_bytes\": {v3_wire}, \"v3_bytes_saved\": {v3_saved}, \"wire_reduction\": {wire_reduction:.3}, \"detection_identical\": true}}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write benchmark output");

    println!("host hardware threads: {hw_threads}");
    for (i, e) in spans.iter().enumerate() {
        println!(
            "epoch {i}: trace {:.2}ms, calib_units {:.2}ms, train {:.2}ms, verify {:.2}ms, eval {:.2}ms, remainder {:.2}ms (total {:.2}ms)",
            e.trace as f64 / 1e6,
            e.calib_units.iter().sum::<u64>() as f64 / 1e6,
            e.train.iter().sum::<u64>() as f64 / 1e6,
            e.verify_workers.iter().sum::<u64>() as f64 / 1e6,
            e.eval_chunks.iter().sum::<u64>() as f64 / 1e6,
            e.remainder() as f64 / 1e6,
            e.total as f64 / 1e6,
        );
    }
    for (w, s, o, speedup) in &modeled {
        println!("modeled {w}t: scoped {s:.4} ep/s, overlapped {o:.4} ep/s ({speedup:.3}x)");
    }
    println!(
        "measured wall: serial {:.4} ep/s, overlapped(8t) {:.4} ep/s",
        epochs_per_s(serial_wall_ns, epochs),
        epochs_per_s(overlapped_wall_ns, epochs)
    );
    println!(
        "wire: v1 {v1_wire} B, v3 {v3_wire} B ({:.1}% reduction, {v3_saved} B saved), detection identical",
        wire_reduction * 100.0
    );
    println!("wrote {out_path}");
}
