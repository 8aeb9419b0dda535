//! Flat-vs-hierarchical determinism contract (DESIGN.md §15): at equal
//! sampling parameters, the two-tier committee pipeline must produce
//! **bitwise identical** accept/reject/quarantine sets, verdicts,
//! communication accounting, and aggregated model (observed through the
//! accuracy bits) as the flat single-manager pipeline — serially and at
//! every executor width. Committees change where verification runs and
//! how much memory peaks, never what is decided.

use rpol::adversary::WorkerBehavior;
use rpol::committee::Hierarchy;
use rpol::pool::{MiningPool, PoolConfig, PoolReport, Scheme};

fn behaviors() -> Vec<WorkerBehavior> {
    vec![
        WorkerBehavior::Honest,
        WorkerBehavior::ReplayPrevious,
        WorkerBehavior::Honest,
        WorkerBehavior::Honest,
        WorkerBehavior::ReplayPrevious,
        WorkerBehavior::Honest,
    ]
}

fn run(hierarchy: Option<Hierarchy>, threads: Option<usize>) -> PoolReport {
    let mut cfg = PoolConfig::tiny_demo(Scheme::RPoLv2);
    if let Some(h) = hierarchy {
        cfg = cfg.with_hierarchy(h);
    }
    match threads {
        None => MiningPool::new(cfg, behaviors()).run(),
        Some(t) => MiningPool::new(cfg, behaviors())
            .with_threads(t)
            .run_parallel(),
    }
}

/// The decision surface flat and hierarchical runs must agree on
/// bitwise: everything in the epoch report except the fields that *are*
/// the hierarchy's value proposition (peak memory and committee
/// accounting), plus the exact accuracy bits.
fn decision_key(report: &PoolReport) -> Vec<String> {
    report
        .epochs
        .iter()
        .map(|rec| {
            let mut body = rec.report.clone();
            body.peak_commit_bytes = 0;
            body.hierarchy = None;
            let body = rpol_json::to_string(&body).expect("serialize epoch report");
            format!("{body}|acc={:08x}", rec.test_accuracy.to_bits())
        })
        .collect()
}

#[test]
fn hierarchical_matches_flat_at_every_thread_count() {
    let flat = run(None, None);
    let flat_key = decision_key(&flat);
    assert!(!flat_key.is_empty(), "reference run produced no epochs");
    // Adversaries must actually be caught, or the parity is vacuous.
    assert!(flat.rejections() > 0, "no rejections to compare");
    let hierarchy = Hierarchy::new(3, 1).expect("valid hierarchy");
    let serial_hier = run(Some(hierarchy), None);
    assert_eq!(
        decision_key(&serial_hier),
        flat_key,
        "serial hierarchical run diverged from flat"
    );
    for threads in [1, 2, 8] {
        let hier = run(Some(hierarchy), Some(threads));
        assert_eq!(
            decision_key(&hier),
            flat_key,
            "{threads}-thread hierarchical run diverged from flat"
        );
        assert_eq!(
            flat.accuracy_curve(),
            hier.accuracy_curve(),
            "{threads}-thread accuracy curve diverged"
        );
    }
}

#[test]
fn committee_count_never_changes_decisions() {
    let flat_key = decision_key(&run(None, None));
    for committees in [1, 2, 6] {
        let hier = run(Some(Hierarchy::new(committees, 1).expect("valid")), Some(2));
        assert_eq!(
            decision_key(&hier),
            flat_key,
            "{committees}-committee run diverged from flat"
        );
    }
}

#[test]
fn hierarchical_runs_stream_with_bounded_peak_memory() {
    let flat = run(None, None);
    let hier = run(Some(Hierarchy::new(3, 1).expect("valid")), Some(2));
    for (a, b) in flat.epochs.iter().zip(&hier.epochs) {
        // Flat materializes every commitment at once; streaming peaks at
        // the largest committee's share of the same total.
        assert_eq!(a.report.peak_commit_bytes, a.report.commit_bytes_hashed);
        assert_eq!(a.report.commit_bytes_hashed, b.report.commit_bytes_hashed);
        assert!(
            b.report.peak_commit_bytes < a.report.peak_commit_bytes,
            "streaming did not lower the peak: {} vs {}",
            b.report.peak_commit_bytes,
            a.report.peak_commit_bytes
        );
        let h = b.report.hierarchy.expect("hierarchical runs report");
        assert_eq!(h.verdicts as usize, behaviors().len());
        assert!(h.audits > 0, "top tier audited nothing");
        assert_eq!(h.audit_mismatches, 0, "in-process sub-managers are honest");
        // Audit replay cost is real and charged to the hierarchy report,
        // never to the tier-1 accounting the parity key covers.
        assert!(h.audit_replayed_steps > 0);
        assert!(h.batch_bytes > 0);
    }
}

/// The serial hierarchical loop (`threads: None`) or the overlapped task
/// graph, on an RPoLv3 roster with both adversaries and honest workers.
fn run_v3(committees: usize, threads: Option<usize>) -> PoolReport {
    use WorkerBehavior::{Honest, ReplayPrevious};
    let spoof = WorkerBehavior::PartialSpoof {
        honest_fraction: 0.25,
        lambda: 1.0,
    };
    let roster = vec![Honest, spoof, ReplayPrevious, Honest, ReplayPrevious, spoof];
    let hierarchy = Hierarchy::new(committees, 1).expect("valid hierarchy");
    let pool = MiningPool::new(
        PoolConfig::tiny_demo(Scheme::RPoLv3).with_hierarchy(hierarchy),
        roster,
    );
    match threads {
        None => {
            let mut pool = pool;
            pool.run()
        }
        Some(t) => pool.with_threads(t).run_parallel(),
    }
}

#[test]
fn overlapped_committees_match_the_serial_committee_loop() {
    // The full epoch report — `HierarchyReport` included — plus the
    // accuracy bits.
    let full_key = |r: &PoolReport| -> Vec<String> {
        let key = |e: &rpol::pool::EpochRecord| {
            format!("{:?}|{:08x}", e.report, e.test_accuracy.to_bits())
        };
        r.epochs.iter().map(key).collect()
    };
    for committees in [1, 2, 3] {
        let serial = run_v3(committees, None);
        assert!(serial.rejections() > 0, "no rejections to compare");
        for rec in &serial.epochs {
            let h = rec.report.hierarchy.expect("hierarchical run");
            assert!(h.audits > 0 && h.audit_replayed_steps > 0 && h.batch_bytes > 0);
            assert_eq!(h.audit_mismatches, 0, "in-process sub-managers are honest");
        }
        for threads in [1, 2, 8] {
            let overlapped = run_v3(committees, Some(threads));
            let msg = format!("C={committees}, {threads} threads diverged from serial");
            assert_eq!(full_key(&overlapped), full_key(&serial), "{msg}");
            assert_eq!(decision_key(&overlapped), decision_key(&serial), "{msg}");
        }
    }
}
