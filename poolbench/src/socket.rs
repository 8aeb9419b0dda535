//! Loopback socket runs of the lossy-transport workload: a `PoolServer`
//! and one `WorkerClient` thread per worker, with the same config and
//! chaos seed as the in-process end-to-end run, plus the reactor-backend
//! probe.

use crate::outcome::{outcome_of, transport_of, Outcome};
use crate::workloads::Spec;
use rpol::client::{ClientReport, ClientTuning, WorkerClient};
use rpol::pool::MiningPool;
use rpol::server::{BindAddr, NetStats, PoolServer, ServerConfig};
use rpol::transport::TransportStats;
use rpol::wire::{self, NetControl};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const CONNECT_DEADLINE: Duration = Duration::from_secs(30);

/// What the socket runs measured. Socket-layer counters cover whole runs
/// (they cannot be split by epoch), so they come with the epochs and
/// classified submissions they cover.
#[derive(Debug, Default)]
pub struct SocketRuns {
    /// Timed (post-warm-up) epoch walls.
    pub epoch_s: Vec<f64>,
    pub handshake_s: Vec<f64>,
    pub net: NetStats,
    pub epochs: u64,
    pub submissions: u64,
    pub client_reconnects: u64,
    pub client_corrupt_frames: u64,
    /// Each run's decisions and per-epoch transport counters, compared
    /// with the in-process run's.
    pub outcomes: Vec<(Outcome, Vec<TransportStats>)>,
}

/// Runs the workload `runs` times over loopback TCP: bind, spawn the
/// clients, time the roster handshake, run every epoch, join the clients.
pub fn runs(spec: &Spec, runs: usize) -> io::Result<SocketRuns> {
    let config = spec.config;
    let mut out = SocketRuns::default();
    for _ in 0..runs {
        let pool = MiningPool::new(config, spec.roster.clone());
        let mut server = PoolServer::bind(pool, &BindAddr::loopback(), ServerConfig::default())?;
        let addr = server.local_addr();
        let clients: Vec<thread::JoinHandle<ClientReport>> =
            MiningPool::new(config, spec.roster.clone())
                .into_workers()
                .into_iter()
                .map(|worker| {
                    let addr = addr.clone();
                    let tuning = ClientTuning::default();
                    thread::spawn(move || WorkerClient::new(config, worker, addr, tuning).run())
                })
                .collect();
        let t = Instant::now();
        let ready = server.wait_for_workers(spec.roster.len(), CONNECT_DEADLINE);
        out.handshake_s.push(t.elapsed().as_secs_f64());
        let report = ready.and_then(|()| server.run());
        let net = server.net_stats();
        drop(server); // closes the listener, so clients of a failed run give up
        let clients: Vec<ClientReport> = clients
            .into_iter()
            .map(|c| c.join().expect("worker client thread panicked"))
            .collect();
        let report = report?;

        out.epoch_s
            .extend(report.epochs.iter().skip(1).map(|e| e.wall_seconds));
        out.epochs += report.epochs.len() as u64;
        out.submissions += report
            .epochs
            .iter()
            .map(|e| (e.report.accepted.len() + e.report.rejected.len()) as u64)
            .sum::<u64>();
        out.net.frames_in += net.frames_in;
        out.net.frames_out += net.frames_out;
        out.net.bytes_in += net.bytes_in;
        out.net.bytes_out += net.bytes_out;
        out.net.corrupt_frames += net.corrupt_frames;
        out.net.buf_pool_hits += net.buf_pool_hits;
        out.net.buf_pool_misses += net.buf_pool_misses;
        out.client_reconnects += clients.iter().map(|c| c.reconnects).sum::<u64>();
        out.client_corrupt_frames += clients.iter().map(|c| c.corrupt_frames).sum::<u64>();
        out.outcomes
            .push((outcome_of(&report), transport_of(&report)));
    }
    Ok(out)
}

/// Asks a freshly bound server which reactor backend it actually runs
/// (the status plane reports it): a requested readiness backend degrades
/// to scan where epoll is unavailable.
pub fn probe_backend(spec: &Spec) -> io::Result<String> {
    let pool = MiningPool::new(spec.config, spec.roster.clone());
    let server = PoolServer::bind(pool, &BindAddr::loopback(), ServerConfig::default())?;
    let addr = server.local_addr();
    let done = Arc::new(AtomicBool::new(false));
    let prober = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let answer = status_backend(&addr);
            done.store(true, Ordering::Release);
            answer
        })
    };
    while !done.load(Ordering::Acquire) {
        // A roster that never completes: pumps the reactor for 20 ms.
        let _ = server.wait_for_workers(usize::MAX, Duration::from_millis(20));
    }
    prober.join().expect("status prober panicked")
}

fn status_backend(addr: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(&wire::seal_frame(&wire::encode_net_control(
        &NetControl::Status,
    )))?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let payload = loop {
        let k = stream.read(&mut chunk)?;
        if k == 0 {
            return Err(bad("server closed before answering"));
        }
        buf.extend_from_slice(&chunk[..k]);
        if let Ok(payload) = wire::open_frame(bytes::Bytes::from(buf.clone())) {
            break payload;
        }
    };
    let Ok(NetControl::StatusReport { json }) = wire::decode_net_control(payload) else {
        return Err(bad("not a status report"));
    };
    rpol_json::parse(&json)
        .ok()
        .and_then(|v| {
            v.get("backend")
                .and_then(|b| b.as_str())
                .map(str::to_string)
        })
        .ok_or_else(|| bad("status report without a backend"))
}
