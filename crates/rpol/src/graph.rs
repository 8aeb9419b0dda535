//! The overlapped epoch task graph behind `MiningPool::run_epoch_parallel`
//! (DESIGN.md §12, §15), flat or committee-sharded, with no phase
//! barriers. Each training is a task; a landed submission spawns one
//! verification task per sampled checkpoint; a committee's last sample
//! seals its batch and spawns its audits per sample; committees fold in
//! committee order. Committee `c + 1` trains once `c` has landed and
//! `c − 1` is folded, so at most two committees' submissions are
//! resident. A flat epoch is the one-group case with no seal.

use crate::committee::{partition, Hierarchy};
use crate::manager::{CommStats, EpochPlan, EpochReport, HierarchicalIngest, Participant};
use crate::manager::{PoolManager, PreparedVerification, SealedCommittee};
use crate::pool::MiningPool;
use crate::verify::{SampleVerdict, WorkerVerdict};
use crate::worker::{EpochSubmission, PoolWorker};
use parking_lot::{Mutex, RwLock};
use rpol_exec::Scope;
use rpol_obs::{span, Recorder};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};

#[cfg(test)]
thread_local! {
    /// Most committees resident at once in this thread's last epoch
    /// (scheduling-dependent, so never exported).
    static RESIDENT_PEAK: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One worker: its submission is resident from training until its
/// committee folds, its per-sample verdicts land in `samples`.
struct Slot {
    worker: Option<PoolWorker>,
    submission: Option<EpochSubmission>,
    samples: Vec<Mutex<Option<SampleVerdict>>>,
}

impl Slot {
    fn participant(&self, id: usize) -> Participant<'_> {
        let worker = self.worker.as_ref().expect("trained worker stored");
        Participant {
            id,
            address: worker.address,
            shard: worker.shard(),
            submission: self.submission.as_ref().expect("submission resident"),
            provider: worker,
        }
    }

    /// Merges the per-sample verdicts in sample-index order.
    fn take_verdict(&self) -> WorkerVerdict {
        WorkerVerdict::from_samples(
            self.samples
                .iter()
                .map(|m| m.lock().take().expect("sample verified")),
        )
    }
}

/// A committee, or the whole roster on flat epochs.
struct Group {
    committee: usize,
    members: Vec<usize>,
    /// Trainings plus sampled checkpoints not yet verified.
    unverified: AtomicUsize,
    /// Audit replays not yet landed.
    unaudited: AtomicUsize,
}

/// Admission and fold state, advanced in group order under one lock.
struct Progress {
    untrained: Vec<usize>,
    admitted: usize,
    folded: usize,
    sealed: Vec<Option<SealedCommittee>>,
    ingest: Option<HierarchicalIngest>,
    #[cfg(test)]
    resident_peak: usize,
}

struct EpochGraph<'a> {
    manager: &'a PoolManager,
    plan: &'a EpochPlan,
    prepared: Option<&'a PreparedVerification>,
    recorder: &'a Recorder,
    /// Committee epochs: the hierarchy and the pool seed.
    hierarchy: Option<(Hierarchy, u64)>,
    groups: Vec<Group>,
    slots: Vec<RwLock<Slot>>,
    upload_bytes: AtomicU64,
    progress: Mutex<Progress>,
}

/// Runs one overlapped epoch of `pool` on its executor and closes it
/// through the manager, flat or two-tier per the pool's config.
pub(crate) fn run_epoch(pool: &mut MiningPool, epoch: u64) -> EpochReport {
    let exec = pool.ensure_executor();
    let hierarchy = pool.config.hierarchy.map(|h| (h, pool.config.seed));
    let (manager, n) = (&mut pool.manager, pool.workers.len());
    // The serial paths' RNG order: nonces, then the whole verification
    // schedule (`None` for the baseline scheme), drawn eagerly.
    let plan = manager.begin_epoch(n, epoch);
    let prepared = manager.prepare_verification(&plan, n);
    let sample_count = |w: usize| prepared.as_ref().map_or(0, |p| p.sample_count(w));
    let groups: Vec<Group> = match hierarchy {
        Some((h, seed)) => partition(seed, n, h.committees),
        None => vec![(0..n).collect()],
    }
    .into_iter()
    .enumerate()
    .filter(|(_, members)| !members.is_empty())
    .map(|(committee, members)| Group {
        committee,
        unverified: AtomicUsize::new(members.iter().map(|&w| 1 + sample_count(w)).sum()),
        unaudited: AtomicUsize::new(0),
        members,
    })
    .collect();
    let graph = EpochGraph {
        progress: Mutex::new(Progress {
            untrained: groups.iter().map(|g| g.members.len()).collect(),
            admitted: 0,
            folded: 0,
            sealed: groups.iter().map(|_| None).collect(),
            ingest: hierarchy.map(|(h, _)| manager.ingest_begin(h, &[])),
            #[cfg(test)]
            resident_peak: 0,
        }),
        slots: std::mem::take(&mut pool.workers)
            .into_iter()
            .enumerate()
            .map(|(w, worker)| {
                RwLock::new(Slot {
                    worker: Some(worker),
                    submission: None,
                    samples: (0..sample_count(w)).map(|_| Mutex::new(None)).collect(),
                })
            })
            .collect(),
        manager: &*manager,
        plan: &plan,
        prepared: prepared.as_ref(),
        recorder: &pool.recorder,
        hierarchy,
        groups,
        upload_bytes: AtomicU64::new(0),
    };
    exec.scope(|s| graph.advance(s, |_| {}));

    let (progress, slots) = (graph.progress.into_inner(), graph.slots);
    #[cfg(test)]
    RESIDENT_PEAK.with(|c| c.set(progress.resident_peak));
    let slots: Vec<Slot> = slots.into_iter().map(RwLock::into_inner).collect();
    let comm = CommStats {
        broadcast_bytes: (manager.global_weights().len() * 4 * n) as u64,
        submission_bytes: graph.upload_bytes.into_inner(),
        ..CommStats::default()
    };
    let report = match progress.ingest {
        Some(ingest) => manager.ingest_finish(ingest, &plan, comm),
        None => {
            let parts: Vec<_> = slots
                .iter()
                .enumerate()
                .map(|(w, s)| s.participant(w))
                .collect();
            let verdicts = prepared
                .as_ref()
                .map(|_| slots.iter().map(Slot::take_verdict).collect());
            manager.reduce_epoch(&plan, &parts, &[], comm, verdicts)
        }
    };
    pool.workers = slots
        .into_iter()
        .map(|s| s.worker.expect("worker returned"))
        .collect();
    report
}

impl EpochGraph<'_> {
    /// Trains worker `w` of group `g`, then fans its sampled checkpoints
    /// out as verification tasks right away.
    fn train<'s>(&'s self, s: &'s Scope<'s, '_>, g: usize, w: usize) {
        let (plan, manager, epoch) = (self.plan, self.manager, self.plan.epoch);
        let mut worker = self.slots[w].write().worker.take().expect("worker present");
        let submission = worker.train_planned(
            self.recorder,
            manager.config(),
            manager.global_weights(),
            plan,
        );
        self.upload_bytes.fetch_add(submission.upload_bytes, SeqCst);
        let samples = {
            let mut slot = self.slots[w].write();
            slot.worker = Some(worker);
            slot.submission = Some(submission);
            slot.samples.len()
        };
        if self.prepared.is_some() {
            span!(
                self.recorder,
                "rpol.verify.worker",
                epoch,
                worker = w,
                samples
            );
        }
        for pos in 0..samples {
            s.spawn(move || {
                self.replay(w, pos);
                self.verified(s, g);
            });
        }
        self.advance(s, |p| p.untrained[g] -= 1);
        self.verified(s, g);
    }

    /// Replays sampled checkpoint `pos` of worker `w` into its slot.
    fn replay(&self, w: usize, pos: usize) {
        let prepared = self.prepared.expect("verifying scheme");
        let slot = self.slots[w].read();
        let part = slot.participant(w);
        let verdict = self
            .manager
            .verify_prepared_sample(&part, self.plan, prepared, pos);
        *slot.samples[pos].lock() = Some(verdict);
    }

    /// Counts one landed training or sample of group `g`; on committee
    /// epochs the last one seals the batch and spawns the audits.
    fn verified<'s>(&'s self, s: &'s Scope<'s, '_>, g: usize) {
        let group = &self.groups[g];
        if group.unverified.fetch_sub(1, SeqCst) != 1 {
            return;
        }
        // Flat epochs reduce after the scope.
        let Some((hierarchy, seed)) = self.hierarchy else {
            return;
        };
        let verdicts = group
            .members
            .iter()
            .map(|&w| self.slots[w].read().take_verdict())
            .collect();
        let (q_top, c) = (hierarchy.q_top, group.committee);
        let sealed = self.with_members(&group.members, |parts| {
            self.manager
                .seal_committee(q_top, seed, self.plan, c, parts, verdicts)
        });
        let audits: Vec<(usize, usize)> = sealed
            .audits
            .iter()
            .map(|&i| group.members[i])
            .flat_map(|w| (0..self.slots[w].read().samples.len()).map(move |pos| (w, pos)))
            .collect();
        group.unaudited.store(audits.len(), SeqCst);
        self.advance(s, |p| p.sealed[g] = Some(sealed));
        for (w, pos) in audits {
            s.spawn(move || {
                self.replay(w, pos);
                if group.unaudited.fetch_sub(1, SeqCst) == 1 {
                    self.advance(s, |_| {});
                }
            });
        }
    }

    /// Applies `update`, folds every sealed and audited group in order
    /// (retiring its submissions), and spawns the trainings of the groups
    /// that became admissible.
    fn advance<'s>(&'s self, s: &'s Scope<'s, '_>, update: impl FnOnce(&mut Progress)) {
        let admit = {
            let mut guard = self.progress.lock();
            let p = &mut *guard;
            update(p);
            while let Some(group) = self.groups.get(p.folded) {
                let audits_landed = group.unaudited.load(SeqCst) == 0;
                let Some(sealed) = p.sealed[p.folded].take_if(|_| audits_landed) else {
                    break;
                };
                let members = &group.members;
                let audited = sealed
                    .audits
                    .iter()
                    .map(|&i| self.slots[members[i]].read().take_verdict())
                    .collect();
                let ingest = p.ingest.as_mut().expect("committee epoch");
                self.with_members(members, |parts| {
                    self.manager.fold_committee(ingest, sealed, parts, audited)
                });
                for &w in members {
                    self.slots[w].write().submission = None;
                }
                p.folded += 1;
            }
            // Admit group k once group k − 1 has trained and group k − 2
            // is folded: at most two groups' submissions are resident.
            let first = p.admitted;
            while p.admitted < self.groups.len()
                && (p.admitted == 0 || p.untrained[p.admitted - 1] == 0)
                && p.folded + 1 >= p.admitted
            {
                p.admitted += 1;
            }
            #[cfg(test)]
            {
                p.resident_peak = p.resident_peak.max(p.admitted - p.folded);
            }
            first..p.admitted
        };
        for g in admit {
            let group = &self.groups[g];
            if self.hierarchy.is_some() {
                span!(
                    self.recorder,
                    "rpol.pool.committee",
                    epoch = self.plan.epoch,
                    committee = group.committee,
                    members = group.members.len()
                );
            }
            for &w in &group.members {
                s.spawn(move || self.train(s, g, w));
            }
        }
    }

    /// Runs `f` over `members` as participants.
    fn with_members<R>(&self, members: &[usize], f: impl FnOnce(&[Participant<'_>]) -> R) -> R {
        let slots: Vec<_> = members.iter().map(|&w| self.slots[w].read()).collect();
        let parts: Vec<_> = members
            .iter()
            .zip(&slots)
            .map(|(&w, s)| s.participant(w))
            .collect();
        f(&parts)
    }
}

#[cfg(test)]
mod tests {
    use super::RESIDENT_PEAK;
    use crate::adversary::WorkerBehavior::{Honest, ReplayPrevious};
    use crate::committee::{partition, Hierarchy};
    use crate::pool::{MiningPool, PoolConfig, Scheme};

    #[test]
    fn at_most_two_committees_are_ever_resident() {
        let hierarchy = Hierarchy::new(6, 1).expect("valid");
        let config = PoolConfig::tiny_demo(Scheme::RPoLv2).with_hierarchy(hierarchy);
        let behaviors: Vec<_> = (0..8).map(|w| [Honest, ReplayPrevious][w % 2]).collect();
        let committees = partition(config.seed, 8, 6);
        assert!(committees.iter().filter(|m| !m.is_empty()).count() > 2);
        for threads in [2, 8] {
            let mut pool = MiningPool::new(config, behaviors.clone()).with_threads(threads);
            for epoch in 0..config.epochs as u64 {
                pool.run_epoch_parallel(epoch);
                let peak = RESIDENT_PEAK.with(|c| c.get());
                assert!(
                    (1..=2).contains(&peak),
                    "{threads} threads: {peak} resident"
                );
            }
        }
    }
}
