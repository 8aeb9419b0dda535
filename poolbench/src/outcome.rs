//! What a run decided, and the accounting the end-to-end window keeps.

use rpol::adversary::WorkerBehavior;
use rpol::pool::PoolReport;
use rpol::transport::TransportStats;

/// One epoch's decisions, compared bit for bit across runs of a seed,
/// against the traced phase driver and against the socket run's
/// in-process twin.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    pub accepted: Vec<usize>,
    pub rejected: Vec<usize>,
    pub quarantined: Vec<usize>,
    pub accuracy_bits: u32,
}

/// Every epoch's decisions for one run of the fixed epoch count.
pub type Outcome = Vec<EpochOutcome>;

pub fn outcome_of(report: &PoolReport) -> Outcome {
    report
        .epochs
        .iter()
        .map(|e| EpochOutcome {
            accepted: e.report.accepted.clone(),
            rejected: e.report.rejected.clone(),
            quarantined: e.report.quarantined.clone(),
            accuracy_bits: e.test_accuracy.to_bits(),
        })
        .collect()
}

/// Per-epoch transport counters, compared between the socket run and its
/// twin.
pub fn transport_of(report: &PoolReport) -> Vec<TransportStats> {
    report.epochs.iter().map(|e| e.report.transport).collect()
}

/// Everything the timed window accumulates across its runs. Epoch 0 of
/// every run is the warm-up epoch: it counts toward set-up, not toward
/// the epoch statistics.
#[derive(Debug, Default)]
pub struct Window {
    pub runs: u64,
    pub setup_s: Vec<f64>,
    pub epoch_s: Vec<f64>,
    pub attempted: u64,
    pub classified: u64,
    pub quarantined: u64,
    pub honest_quarantined: u64,
    pub honest_rejected: u64,
    pub protocol_bytes: u64,
    pub final_accuracy: f32,
    pub audits: u64,
    pub audit_replayed_steps: u64,
    pub batch_bytes: u64,
    pub transport: TransportStats,
    /// The first run's decisions; every later run must repeat them.
    pub first: Option<Outcome>,
    pub first_transport: Option<Vec<TransportStats>>,
}

impl Window {
    /// Folds one run's report in. Returns false when its decisions differ
    /// from the first run's.
    pub fn absorb(&mut self, report: &PoolReport, roster: &[WorkerBehavior], setup_s: f64) -> bool {
        self.runs += 1;
        self.setup_s.push(setup_s);
        for e in report.epochs.iter().skip(1) {
            let r = &e.report;
            self.epoch_s.push(e.wall_seconds);
            self.attempted += roster.len() as u64;
            self.classified += (r.accepted.len() + r.rejected.len()) as u64;
            let honest =
                |ws: &[usize]| ws.iter().filter(|&&w| !roster[w].is_adversarial()).count() as u64;
            self.quarantined += r.quarantined.len() as u64;
            self.honest_quarantined += honest(&r.quarantined);
            self.honest_rejected += honest(&r.rejected);
            self.protocol_bytes += r.comm.total();
            if let Some(h) = &r.hierarchy {
                self.audits += h.audits;
                self.audit_replayed_steps += h.audit_replayed_steps;
                self.batch_bytes += h.batch_bytes;
            }
            self.transport.merge(&r.transport);
        }
        self.final_accuracy = report.final_accuracy();
        let outcome = outcome_of(report);
        let transport = transport_of(report);
        match (&self.first, &self.first_transport) {
            (Some(o), Some(t)) => *o == outcome && *t == transport,
            _ => {
                self.first = Some(outcome);
                self.first_transport = Some(transport);
                true
            }
        }
    }

    /// Timed (post-warm-up) epochs across all runs.
    pub fn timed_epochs(&self) -> u64 {
        self.epoch_s.len() as u64
    }
}
