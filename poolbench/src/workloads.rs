//! The three workloads and how each one's pool config is generated from
//! the benchmark seed. The program only ever sees the generated config;
//! README.md records why each workload exists.

use rpol::adversary::WorkerBehavior;
use rpol::committee::{partition, Hierarchy};
use rpol::pool::{PoolConfig, Scheme};
use rpol::tasks::TaskConfig;
use rpol::transport::FaultConfig;

/// Training samples per shard (each worker and the manager hold one).
const SHARD_SAMPLES: usize = 160;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The common honest pool: RPoLv2, task A, 4 honest workers.
    HonestV2,
    /// The verifier-bound pool: RPoLv3, task A, 8 workers (6 cheating)
    /// verified by 2 committees with top-tier spot audits.
    AuditCommittees,
    /// The wire-bound pool: RPoLv1, task A, 2 workers behind a seeded
    /// lossy chaos proxy, in process end to end and over loopback TCP in
    /// the traced pass.
    LossyTransport,
}

/// Everything one workload hands the program.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Pool config, seeds included. `epochs` counts the warm-up epoch 0.
    pub config: PoolConfig,
    /// One behaviour per worker.
    pub roster: Vec<WorkerBehavior>,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HonestV2,
        Workload::AuditCommittees,
        Workload::LossyTransport,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HonestV2 => "honest_v2",
            Workload::AuditCommittees => "audit_committees",
            Workload::LossyTransport => "lossy_transport",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The public entry point the end-to-end run drives.
    pub fn entry_point(self) -> &'static str {
        match self {
            Workload::HonestV2 | Workload::AuditCommittees => "MiningPool::run_parallel",
            Workload::LossyTransport => {
                "MiningPool::run_parallel over the fault transport; traced: PoolServer::run + WorkerClient::run"
            }
        }
    }

    /// Timed epochs a window collects at least, whatever `--seconds` says:
    /// enough for the tail statistic to sit well above the median. The
    /// audit workload's runs drift by up to ±10% from one run to the next
    /// on a 2-vCPU host, so its window covers more runs.
    pub fn min_timed_epochs(self) -> u64 {
        match self {
            Workload::AuditCommittees => 50,
            Workload::HonestV2 | Workload::LossyTransport => 40,
        }
    }

    /// Generates the workload's config and roster from the benchmark seed.
    pub fn spec(self, seed: u64) -> Spec {
        let pool_seed = mix(seed ^ 0x504F_4F4C); // "POOL"
        match self {
            Workload::HonestV2 => Spec {
                config: config(TaskConfig::task_a(), Scheme::RPoLv2, 4, 6, 20, 2, pool_seed),
                roster: vec![WorkerBehavior::Honest; 4],
            },
            Workload::AuditCommittees => audit_committees(pool_seed),
            Workload::LossyTransport => {
                let mut fault = FaultConfig::lossy(mix(seed ^ 0x0043_4841_4F53)); // "CHAOS"
                                                                                  // Ten attempts put an honest worker's quarantine odds near
                                                                                  // 1e-9 per exchange: the workload measures retries, and a
                                                                                  // run on which an operation fails is not a measurement.
                fault.policy.max_attempts = 10;
                let config = config(
                    TaskConfig::task_a(),
                    Scheme::RPoLv1,
                    2,
                    31,
                    20,
                    2,
                    pool_seed,
                );
                Spec {
                    config: config.with_faults(fault),
                    roster: vec![WorkerBehavior::Honest, WorkerBehavior::ReplayPrevious],
                }
            }
        }
    }
}

fn config(
    task: TaskConfig,
    scheme: Scheme,
    workers: usize,
    epochs: usize,
    steps: usize,
    q: usize,
    seed: u64,
) -> PoolConfig {
    PoolConfig {
        task,
        scheme,
        epochs,
        steps_per_epoch: steps,
        train_samples: (workers + 1) * SHARD_SAMPLES,
        test_samples: 400,
        q_samples: q,
        seed,
        fault: None,
        hierarchy: None,
    }
}

/// Two committees of four, each holding two replayers, one partial
/// spoofer and one honest worker, whatever the seed: the pool seed is the
/// first candidate whose rendezvous partition splits 4/4, and behaviours
/// are laid out per committee. A lopsided split or an all-cheater
/// committee would change what the workload measures from seed to seed.
fn audit_committees(seed: u64) -> Spec {
    const WORKERS: usize = 8;
    const COMMITTEES: usize = 2;
    let (seed, committees) = (0u64..)
        .map(|k| mix(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .map(|s| (s, partition(s, WORKERS, COMMITTEES)))
        .find(|(_, parts)| parts.iter().all(|m| m.len() == WORKERS / COMMITTEES))
        .expect("some candidate seed splits evenly");
    let spoof = WorkerBehavior::PartialSpoof {
        honest_fraction: 0.25,
        lambda: 1.0,
    };
    let layout = [
        WorkerBehavior::ReplayPrevious,
        WorkerBehavior::ReplayPrevious,
        spoof,
        WorkerBehavior::Honest,
    ];
    let mut roster = vec![WorkerBehavior::Honest; WORKERS];
    for members in &committees {
        for (&w, &behavior) in members.iter().zip(&layout) {
            roster[w] = behavior;
        }
    }
    let hierarchy = Hierarchy::new(COMMITTEES, 1).expect("two committees");
    Spec {
        config: config(
            TaskConfig::task_a(),
            Scheme::RPoLv3,
            WORKERS,
            11,
            30,
            6,
            seed,
        )
        .with_hierarchy(hierarchy),
        roster,
    }
}

/// SplitMix64 finalizer: derives independent pool and chaos seeds from
/// the one benchmark seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
