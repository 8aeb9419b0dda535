//! `poolbench`: the measured pool benchmark.
//!
//! ```text
//! poolbench --workload <honest_v2|audit_committees|lossy_transport> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the workload end to end through the pool's public entry points
//! for `--seconds` (closed loop: every epoch waits for all workers), then
//! a single-threaded traced pass through the public phase API (plus, for
//! `lossy_transport`, loopback socket runs of the same config), checks the
//! outputs, and prints every metric by name and unit. The last line of
//! standard output is one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. Exits non-zero when an
//! output check fails. README.md explains the workloads and metrics.

mod inproc;
mod outcome;
mod socket;
mod stats;
mod workloads;

use outcome::Window;
use stats::{failed_share, median, per, ratio, tail_percentile, unattributed_share};
use std::process::ExitCode;
use workloads::Workload;

/// Samples the tail statistic keeps beyond itself.
const TAIL_BEYOND: usize = 10;
/// Loopback socket runs in the lossy-transport workload's traced pass.
const SOCKET_RUNS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let get = |key: &str| -> Result<&str, String> {
            raw.iter()
                .position(|a| a == key)
                .and_then(|i| raw.get(i + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("missing {key}"))
        };
        let workload = get("--workload")?;
        let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload:?}"))?,
            seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
            seconds,
            trace: match get("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
        })
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("poolbench: {e}");
            eprintln!(
                "usage: poolbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("poolbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> std::io::Result<bool> {
    let spec = args.workload.spec(args.seed);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let lossy = args.workload == Workload::LossyTransport;
    let mut failures: Vec<String> = Vec::new();

    let (window, repeatable) = inproc::window(
        &spec,
        threads,
        args.seconds,
        args.workload.min_timed_epochs(),
    );
    let peak_rss_mb = peak_rss_mb()?;
    if !repeatable {
        failures.push(
            "runs of one seed disagree on verdict sets, accuracy bits or transport counters".into(),
        );
    }
    let traced = inproc::traced(&spec);
    if window.first.as_ref() != Some(&traced.outcome) {
        failures.push("traced phase driver disagrees with the end-to-end run".into());
    }
    failures.extend(traced.probe_errors.iter().cloned());
    let (backend, sockets) = if lossy {
        let sockets = socket::runs(&spec, SOCKET_RUNS)?;
        if sockets.outcomes.iter().any(|(o, t)| {
            window.first.as_ref() != Some(o) || window.first_transport.as_ref() != Some(t)
        }) {
            failures.push(
                "socket runs disagree with the in-process fault transport on verdict sets, \
                 accuracy bits or transport counters"
                    .into(),
            );
        }
        (socket::probe_backend(&spec)?, sockets)
    } else {
        (
            "none (in-process)".to_string(),
            socket::SocketRuns::default(),
        )
    };
    if window.honest_rejected + window.honest_quarantined > 0 {
        failures.push(format!(
            "honest workers failed: {} rejected, {} quarantined",
            window.honest_rejected, window.honest_quarantined
        ));
    }

    let p50 = median(&window.epoch_s);
    let (tail_p, tail_s) =
        tail_percentile(&window.epoch_s, TAIL_BEYOND).expect("window holds enough epochs");
    let e2e: Vec<Metric> = vec![
        ("epoch_s_p50", p50, "s"),
        ("epoch_s_tail", tail_s, "s"),
        (
            "submissions_per_s",
            window.classified as f64 / window.epoch_s.iter().sum::<f64>(),
            "1/s",
        ),
        (
            "wire_bytes_per_submission",
            per(window.protocol_bytes as f64, window.classified),
            "B",
        ),
        (
            "final_accuracy",
            f64::from(window.final_accuracy),
            "fraction",
        ),
        ("setup_s", median(&window.setup_s), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let layers = per_layer(&window, &traced, &sockets, p50);

    let correct = failures.is_empty();
    let failed = window.quarantined + window.honest_rejected;
    println!(
        "workload {} seed {} | entry {} | executor width {threads} | nproc {threads} | reactor backend {backend}",
        args.workload.name(),
        args.seed,
        args.workload.entry_point(),
    );
    println!(
        "runs {} | timed epochs {} (epoch 0 of each run is set-up) | tail = p{tail_p}, {} beyond | \
         attempted {} | failed {} | failed_share {:.6}",
        window.runs,
        window.timed_epochs(),
        window.epoch_s.iter().filter(|&&x| x > tail_s).count(),
        window.attempted,
        failed,
        failed_share(window.quarantined, window.honest_rejected, window.attempted),
    );
    print_table("end_to_end", &e2e);
    print_table("per_layer (traced pass, per timed epoch)", &layers);
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let shown = if args.trace { &layers } else { &e2e };
    let metrics: Vec<String> = shown
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        window.attempted,
        metrics.join(", ")
    );
    Ok(correct)
}

fn per_layer(w: &Window, t: &inproc::Traced, s: &socket::SocketRuns, p50: f64) -> Vec<Metric> {
    let e = t.epochs;
    let busy = t.calibrate_s + t.train_s + t.verify_s + t.eval_s;
    let timed = w.timed_epochs();
    let frames = (s.net.frames_in + s.net.frames_out) as f64;
    let socket_bytes = (s.net.bytes_in + s.net.bytes_out) as f64;
    let pool_lookups = (s.net.buf_pool_hits + s.net.buf_pool_misses) as f64;
    // Socket layers are bypassed (0) on workloads without socket runs.
    let (socket_overhead_s, handshake_s) = if s.epoch_s.is_empty() {
        (0.0, 0.0)
    } else {
        (median(&s.epoch_s) - p50, median(&s.handshake_s))
    };
    vec![
        ("pool.traced_epoch_s", per(t.epoch_s, e), "s"),
        (
            "pool.parallel_speedup",
            ratio(per(t.epoch_s, e), p50),
            "ratio",
        ),
        (
            "pool.unattributed_share",
            unattributed_share(t.epoch_s, &[t.calibrate_s, t.train_s, t.verify_s, t.eval_s]),
            "ratio",
        ),
        ("calibrate.busy_s", per(t.calibrate_s, e), "s"),
        ("calibrate.share", ratio(t.calibrate_s, t.epoch_s), "ratio"),
        ("worker.train_s", per(t.train_s, e), "s"),
        ("worker.train_share", ratio(t.train_s, t.epoch_s), "ratio"),
        ("worker.steps", per(t.train_backwards as f64, e), "count"),
        ("tensor.gemm_calls", per(t.gemm_calls as f64, e), "count"),
        (
            "tensor.gemm_gflop",
            per(t.gemm_flops as f64 / 1e9, e),
            "GFLOP",
        ),
        (
            "tensor.gemm_gflops",
            ratio(t.gemm_flops as f64 / 1e9, busy),
            "GFLOP/s",
        ),
        ("nn.forwards", per(t.forwards as f64, e), "count"),
        ("nn.backwards", per(t.backwards as f64, e), "count"),
        ("commitment.commit_s", per(t.commit_s, e), "s"),
        (
            "commitment.bytes_hashed",
            per(t.bytes_hashed as f64, e),
            "B",
        ),
        ("lsh.hash_s", per(t.lsh_s, e), "s"),
        ("verify.busy_s", per(t.verify_s, e), "s"),
        ("verify.share", ratio(t.verify_s, t.epoch_s), "ratio"),
        (
            "verify.replayed_steps",
            per(t.replayed_steps as f64, e),
            "count",
        ),
        (
            "verify.double_checks",
            per(t.double_checks as f64, e),
            "count",
        ),
        ("verify.proof_bytes", per(t.proof_bytes as f64, e), "B"),
        (
            "verify.missed_cheats",
            per(t.missed_cheats as f64, e),
            "count",
        ),
        ("committee.batch_s", per(t.batch_s, e), "s"),
        ("committee.audits", per(w.audits as f64, timed), "count"),
        (
            "committee.audit_replayed_steps",
            per(w.audit_replayed_steps as f64, timed),
            "count",
        ),
        (
            "committee.batch_bytes",
            per(w.batch_bytes as f64, timed),
            "B",
        ),
        ("eval.busy_s", per(t.eval_s, e), "s"),
        ("wire.submission_codec_s", per(t.submission_codec_s, e), "s"),
        ("wire.proof_codec_s", per(t.proof_codec_s, e), "s"),
        (
            "server.frames_per_submission",
            per(frames, s.submissions),
            "count",
        ),
        (
            "server.socket_bytes_per_submission",
            per(socket_bytes, s.submissions),
            "B",
        ),
        (
            "server.buf_pool_hit_ratio",
            ratio(s.net.buf_pool_hits as f64, pool_lookups),
            "ratio",
        ),
        (
            "transport.attempts",
            per(w.transport.attempts as f64, timed),
            "count",
        ),
        (
            "transport.retries",
            per(w.transport.retries as f64, timed),
            "count",
        ),
        (
            "transport.timeouts",
            per(w.transport.timeouts as f64, timed),
            "count",
        ),
        (
            "transport.retry_ratio",
            ratio(w.transport.retries as f64, w.transport.attempts as f64),
            "ratio",
        ),
        (
            "server.corrupt_frames",
            per(s.net.corrupt_frames as f64, s.epochs),
            "count",
        ),
        (
            "client.reconnects",
            per(s.client_reconnects as f64, s.epochs),
            "count",
        ),
        (
            "client.corrupt_frames",
            per(s.client_corrupt_frames as f64, s.epochs),
            "count",
        ),
        ("server.socket_overhead_s", socket_overhead_s, "s"),
        ("server.handshake_s", handshake_s, "s"),
    ]
}

fn print_table(title: &str, rows: &[Metric]) {
    println!("{title}:");
    for (name, value, unit) in rows {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
}

/// Rust's shortest round-trip float formatting, which is valid JSON for
/// every finite value.
fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric {x}");
    format!("{x:?}")
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM"))
}
