//! One wire epoch (DESIGN.md §9, §14): the manager ↔ worker phase
//! sequence of a chaos-proxied run — task broadcast, training, submission
//! upload, sampled proof openings — written once, generic over a [`Link`]
//! that only moves bytes.
//!
//! Two links implement it: the in-process seeded-chaos transport
//! ([`crate::pool`], workers train in this process) and the socket server
//! ([`crate::server`], workers are remote clients). Every fault draw the
//! manager accounts is made here, in worker-id order (proof openings in
//! per-worker request order), from the exchange coordinates and payload
//! length alone. That is what makes the two links agree bit for bit on
//! stats, simulated clock, quarantine decisions and verdicts at the same
//! fault seed (`tests/net_parity.rs`).

use std::borrow::Cow;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::manager::{CommStats, EpochPlan, EpochReport, Participant};
use crate::pool::{EpochRecord, MiningPool};
use crate::transport::{LinkState, MsgKind, Transport, TransportStats};
use crate::verify::{ProofProvider, ProofUnavailable};
use crate::wire::{self, DecodeError};
use crate::worker::{CommitMode, EpochSubmission, PoolWorker};
use rpol_obs::{event, Recorder, SpanGuard, TraceContext, Value};
use rpol_sim::SimClock;

/// What arrived from a worker for one upload (a submission or a proof
/// response).
pub(crate) enum Upload {
    /// The payload, with the sender's trace context when it carried one.
    /// Its chaos draws are re-derived from its length on ingest: a socket
    /// payload only arrives once they succeeded, an in-process one is
    /// handed over before they are drawn.
    Payload(Option<TraceContext>, Bytes),
    /// The sender's draws exhausted the retry budget; only the lengths
    /// crossed, enough to re-derive the identical accounting.
    Gone {
        seq: u64,
        payload_len: u32,
        raw_len: u32,
    },
    /// Refused by load shedding: quarantined without chaos accounting.
    Shed,
}

/// How one wire epoch's bytes move between the manager and its workers.
/// [`run_wire_epoch`] owns the phase sequence, the chaos draws and every
/// account; a link carries frames and reports what arrived.
pub(crate) trait Link: Sync {
    /// The seeded chaos channel both ends draw from.
    fn transport(&self) -> &Transport;
    /// The distributed trace id when the link crosses a process boundary:
    /// spans become children of the cross-process trace and outbound
    /// frames carry a context. `None` keeps spans process-local.
    fn trace_id(&self) -> Option<u64> {
        None
    }
    /// The receiving end of one leg of `worker`'s exchanges.
    fn link_state(&self, _worker: &PoolWorker, _epoch: u64, _kind: MsgKind) -> LinkState {
        LinkState::healthy()
    }
    /// Epoch preamble, after the plan is drawn and before the broadcast.
    fn begin(&mut self, _plan: &EpochPlan) {}
    /// Carries one manager → worker leg to worker `w`: its task, or proof
    /// request `request` — `writes` as drawn, `payload` the message they
    /// frame. Returns whether the message reached the worker; in process,
    /// exactly when the draws `delivered` it.
    fn send(
        &self,
        _w: usize,
        _request: Option<u64>,
        _payload: &Bytes,
        _writes: Vec<Bytes>,
        delivered: bool,
        _ctx: Option<TraceContext>,
    ) -> bool {
        delivered
    }
    /// The training window: ends once every tasked worker has uploaded
    /// its submission or can no longer do so, and takes the uploads, one
    /// slot per worker (`None`: nothing arrived). The tasks carried
    /// `global`.
    fn train(
        &mut self,
        plan: &EpochPlan,
        global: &[f32],
        workers: &mut [PoolWorker],
        tasked: &[bool],
    ) -> Vec<Option<Upload>>;
    /// Charges a tasked worker whose submission never came.
    fn deadline_miss(&self, epoch: u64, w: usize, stats: &mut TransportStats, clock: &mut SimClock);
    /// Waits for the worker's response to its next proof request (opening
    /// checkpoint `index`); `None` when none can come.
    fn proof_response(&self, worker: &PoolWorker, index: usize) -> Option<Upload>;
    /// Takes back decoded submission payloads for buffer reuse.
    fn recycle(&mut self, _spent: Vec<Bytes>) {}
    /// Epoch epilogue, after verification.
    fn end(&mut self, _report: &EpochReport) {}
}

/// Runs one epoch with every protocol message crossing `link`.
///
/// 1. **Task broadcast** — each worker's [`wire::EpochTask`] (nonce +
///    global model) crosses its link; a task that does not arrive
///    quarantines the worker before it trains.
/// 2. **Training** — the tasked workers train and upload (in process:
///    serially or on the pool's executor; over sockets: remotely, while
///    the link waits on its mailboxes).
/// 3. **Submission** — uploads are accounted serially in worker order; a
///    silent peer costs the link's deadline, an exhausted retry budget
///    quarantines.
/// 4. **Verification** — proof RPCs ride the same link; openings that
///    stop arriving quarantine the worker instead of rejecting it.
///    Aggregation and credit run over the survivors, flat or through the
///    committee hierarchy. With `parallel`, verification fans out on the
///    executor; proof-channel traffic still merges in worker-id order.
///
/// Byte accounting: [`CommStats`] counts each logical payload once (what
/// the protocol *moved*); [`TransportStats::wire_bytes`] counts physical
/// frames including retransmissions (what the network *carried*).
pub(crate) fn run_wire_epoch<L: Link>(
    pool: &mut MiningPool,
    link: &mut L,
    epoch: u64,
    parallel: bool,
) -> EpochRecord {
    let start = Instant::now();
    let recorder = pool.recorder.clone();
    let (trace, _epoch_span) = EpochTrace::open(&recorder, link.trace_id(), epoch);
    let n = pool.workers.len();
    let plan = pool.manager.begin_epoch(n, epoch);
    let mut stats = TransportStats::default();
    let mut clock = SimClock::new();
    let mut quarantined: Vec<usize> = Vec::new();
    let mut comm = CommStats::default();
    link.begin(&plan);

    // Phase 1: task broadcast, serial in worker order.
    let (phase, broadcast_sid) = trace.phase("rpol.pool.task_broadcast", epoch);
    let global = pool.manager.global_weights().to_vec();
    let mut tasked = vec![false; n];
    for (w, worker) in pool.workers.iter().enumerate() {
        let task = wire::EpochTask {
            epoch,
            nonce: plan.nonces[w],
            steps: plan.steps as u32,
            global_weights: global.clone(),
        };
        let payload = wire::encode_epoch_task(&task);
        comm.broadcast_bytes += payload.len() as u64;
        let (writes, outcome) = link.transport().chaos_frames(
            epoch,
            w,
            MsgKind::Task,
            0,
            &payload,
            link.link_state(worker, epoch, MsgKind::Task),
            &mut stats,
            &mut clock,
            &recorder,
        );
        let ctx = trace.outbound(broadcast_sid, outcome.is_ok());
        tasked[w] = link.send(w, None, &payload, writes, outcome.is_ok(), ctx);
        if !tasked[w] {
            quarantined.push(w);
        }
    }
    drop(phase);

    // Phase 2: training and upload.
    let (phase, _) = trace.phase("rpol.pool.training", epoch);
    let uploads = link.train(&plan, &global, &mut pool.workers, &tasked);
    drop(phase);

    // Phase 3: submission ingest, serial in worker order — the receiving
    // half of every upload's chaos draws, recomputed from its length.
    let (phase, submission_sid) = trace.phase("rpol.pool.submission", epoch);
    let hashes_per_group = match plan.commit_mode() {
        CommitMode::V2(f) | CommitMode::V3(f) => f.params().k,
        _ => 0,
    };
    let batch_span = trace.ingest_batch(epoch, submission_sid, uploads.iter().flatten().count());
    let mut spent: Vec<Bytes> = Vec::new();
    let mut delivered: Vec<Option<EpochSubmission>> = (0..n).map(|_| None).collect();
    for (w, upload) in uploads.into_iter().enumerate() {
        if !tasked[w] {
            continue; // already quarantined at task delivery
        }
        let upload = match upload {
            Some(Upload::Shed) => {
                event!(recorder, "rpol.server.shed", epoch, worker = w);
                None
            }
            Some(upload) => Some(upload),
            None => {
                link.deadline_miss(epoch, w, &mut stats, &mut clock);
                None
            }
        };
        if let Some(Upload::Payload(Some(ctx), _)) = &upload {
            // Serial ingest point (worker-id order), so the cross-process
            // causal edge lands deterministically.
            recorder.child_event(
                "rpol.server.ingest_submission",
                *ctx,
                &[("epoch", Value::from(epoch)), ("worker", Value::from(w))],
            );
        }
        let leg = Leg {
            transport: link.transport(),
            rec: &recorder,
            epoch,
            worker: w,
            kind: MsgKind::Submission,
            seq: 0,
            link: link.link_state(&pool.workers[w], epoch, MsgKind::Submission),
        };
        let decode = |payload: &mut Bytes| {
            let upload_bytes = payload.len() as u64;
            let (final_weights, commitment) = wire::decode_submission_in(payload)?;
            let raw = wire::submission_raw_wire_size(final_weights.len(), commitment.as_ref());
            // The manager works from what the wire delivered, not from the
            // worker's state. Hashing cost is recomputed from the decoded
            // commitment — a pure function of model size and scheme, so both
            // sides of the wire account the same number.
            let commit_bytes_hashed = commitment
                .as_ref()
                .map_or(0, |c| c.bytes_hashed(final_weights.len(), hashes_per_group));
            let sub = EpochSubmission {
                worker_id: w,
                final_weights,
                commitment,
                upload_bytes,
                commit_bytes_hashed,
            };
            Ok((sub, raw))
        };
        delivered[w] = upload.and_then(|upload| {
            leg.receive(upload, &mut stats, &mut clock, Some(&mut spent), decode)
        });
        if delivered[w].is_none() {
            quarantined.push(w);
        }
    }
    comm.submission_bytes = delivered.iter().flatten().map(|s| s.upload_bytes).sum();
    drop(batch_span);
    link.recycle(spent);
    drop(phase);

    // Phase 4: verification over the survivors, openings served through
    // per-worker providers on the same link.
    let (phase, verify_sid) = trace.phase("rpol.pool.verification", epoch);
    let shared: &L = link;
    let providers: Vec<Option<WireProvider<'_, L>>> = pool
        .workers
        .iter()
        .zip(&delivered)
        .map(|(worker, sub)| {
            sub.as_ref().map(|_| WireProvider {
                link: shared,
                worker,
                epoch,
                trace: &trace,
                parent_span: verify_sid,
                state: Mutex::new(ProviderState::default()),
            })
        })
        .collect();
    let participants: Vec<Participant<'_>> = pool
        .workers
        .iter()
        .zip(delivered.iter().zip(&providers))
        .filter_map(|(worker, (submission, provider))| {
            Some(Participant {
                id: worker.id,
                address: worker.address,
                shard: worker.shard(),
                submission: submission.as_ref()?,
                provider: provider.as_ref()?,
            })
        })
        .collect();
    let mut report = match pool.config.hierarchy {
        // Two-tier reduction: the delivered participants are grouped into
        // their rendezvous committees and stream through the sub-manager →
        // batch → audit pipeline (DESIGN.md §15), each under its own child
        // span of the verification phase.
        Some(hierarchy) => {
            let prepared = pool
                .manager
                .prepare_verification(&plan, n)
                .expect("hierarchy requires a verifying scheme");
            pool.manager.ingest_partitioned(
                hierarchy,
                pool.config.seed,
                n,
                &participants,
                &quarantined,
                &plan,
                &prepared,
                parallel,
                comm,
                |c, members| {
                    let fields = [
                        ("epoch", Value::from(epoch)),
                        ("committee", Value::from(c)),
                        ("members", Value::from(members)),
                    ];
                    trace.child("rpol.server.committee", verify_sid, &fields).0
                },
            )
        }
        None => {
            pool.manager
                .finish_epoch_partial(&plan, n, &participants, &quarantined, comm, parallel)
        }
    };
    drop(participants);
    // Merge proof-channel traffic in worker-id order: deterministic
    // regardless of verification scheduling.
    for provider in providers.into_iter().flatten() {
        let state = provider.state.into_inner();
        stats.merge(&state.stats);
        clock.merge(&state.clock);
    }
    report.transport = stats;
    drop(phase);
    link.end(&report);
    pool.record(start, report, clock)
}

/// How a wire epoch's spans hang together: process-local spans in
/// process; over sockets, children of the distributed trace keyed by the
/// pool seed, with outbound frames carrying a context whose parent is the
/// phase that caused them (DESIGN.md §16).
struct EpochTrace<'r> {
    rec: &'r Recorder,
    trace_id: Option<u64>,
    epoch_span: u64,
}

impl<'r> EpochTrace<'r> {
    fn open(rec: &'r Recorder, trace_id: Option<u64>, epoch: u64) -> (Self, SpanGuard<'r>) {
        let mut trace = Self {
            rec,
            trace_id,
            epoch_span: 0,
        };
        let name = if trace_id.is_some() {
            "rpol.server.epoch"
        } else {
            "rpol.pool.epoch"
        };
        let (guard, epoch_span) = trace.phase(name, epoch);
        trace.epoch_span = epoch_span;
        (trace, guard)
    }

    /// A context under span id `parent` of the distributed trace, its
    /// watermark read only then; `None` in process.
    fn context(&self, parent: u64, watermark: impl FnOnce() -> u64) -> Option<TraceContext> {
        let trace_id = self.trace_id?;
        let watermark = watermark();
        Some(TraceContext {
            trace_id,
            parent_span: parent,
            watermark,
        })
    }

    /// A span under span id `parent`, returned with its own id.
    fn child(&self, name: &str, parent: u64, fields: &[(&str, Value)]) -> (SpanGuard<'r>, u64) {
        match self.context(parent, || 0) {
            None => (self.rec.span(name, fields), 0),
            Some(ctx) => self.rec.child_span(name, ctx, fields),
        }
    }

    /// A phase span under the epoch span.
    fn phase(&self, name: &str, epoch: u64) -> (SpanGuard<'r>, u64) {
        self.child(name, self.epoch_span, &[("epoch", Value::from(epoch))])
    }

    /// The context a delivered outbound frame carries, stamped after its
    /// chaos draws so tracing never shifts a fault outcome.
    fn outbound(&self, parent: u64, delivered: bool) -> Option<TraceContext> {
        let traced = delivered && self.rec.enabled();
        traced.then(|| self.context(parent, || self.rec.now_ns()))?
    }

    /// The batched submission drain of a distributed epoch, under the
    /// submission phase.
    fn ingest_batch(&self, epoch: u64, parent: u64, drained: usize) -> Option<SpanGuard<'r>> {
        let ctx = self.context(parent, || self.rec.now_ns())?;
        let fields = [
            ("epoch", Value::from(epoch)),
            ("drained", Value::from(drained)),
        ];
        Some(
            self.rec
                .child_span("rpol.server.ingest_batch", ctx, &fields)
                .0,
        )
    }
}

/// One exchange's coordinates on the chaos channel.
struct Leg<'a> {
    transport: &'a Transport,
    rec: &'a Recorder,
    epoch: u64,
    worker: usize,
    kind: MsgKind,
    seq: u64,
    link: LinkState,
}

impl Leg<'_> {
    /// The receiving half of one worker → manager exchange: re-derives the
    /// sender's chaos draws from the payload length, decodes the payload
    /// (handing its buffer to `spent`, when given) and credits the bytes
    /// its encoding saved over raw framing. `decode` returns the value and
    /// the raw-framing size. Yields the value only when the payload both
    /// crossed and decoded.
    fn receive<T>(
        &self,
        upload: Upload,
        stats: &mut TransportStats,
        clock: &mut SimClock,
        spent: Option<&mut Vec<Bytes>>,
        decode: impl FnOnce(&mut Bytes) -> Result<(T, usize), DecodeError>,
    ) -> Option<T> {
        let (epoch, worker, kind, seq, link) =
            (self.epoch, self.worker, self.kind, self.seq, self.link);
        let mut draw = |len, stats: &mut TransportStats| {
            let t = self.transport;
            t.chaos_outcome(epoch, worker, kind, seq, len, link, stats, clock, self.rec)
        };
        match upload {
            Upload::Payload(_, mut payload) => {
                let len = payload.len();
                let outcome = draw(len, stats);
                let decoded = decode(&mut payload);
                if let Some(spent) = spent {
                    spent.push(payload);
                }
                let (value, raw) = decoded.ok()?;
                stats.bytes_saved += (raw as u64).saturating_sub(len as u64);
                outcome.ok().map(|()| value)
            }
            Upload::Gone {
                seq: gone_seq,
                payload_len,
                raw_len,
            } => {
                debug_assert_eq!(gone_seq, seq, "upload out of sync with its exchange");
                stats.bytes_saved += u64::from(raw_len.saturating_sub(payload_len));
                let outcome = draw(payload_len as usize, stats);
                debug_assert!(outcome.is_err(), "Gone implies exhausted draws");
                None
            }
            Upload::Shed => None,
        }
    }
}

/// Per-provider mutable state: the RPC sequence counter plus the stats
/// and clock this worker's proof traffic accumulates. Kept behind a mutex
/// so a provider can be shared with the parallel verification fan-out;
/// the counters are merged back into the epoch totals in worker-id order,
/// so scheduling never shows in the report.
#[derive(Default)]
struct ProviderState {
    seq: u64,
    stats: TransportStats,
    clock: SimClock,
}

/// A [`ProofProvider`] that reaches its worker through a [`Link`]: each
/// opening is a proof-request / proof-response RPC whose legs can drop,
/// corrupt, truncate, or time out. Exhausted retries surface as
/// [`ProofUnavailable`] and quarantine the worker. The per-opening `seq`
/// advances even when a request leg exhausts and nothing ever reaches the
/// worker, so both ends key their draws identically.
struct WireProvider<'a, L> {
    link: &'a L,
    worker: &'a PoolWorker,
    epoch: u64,
    trace: &'a EpochTrace<'a>,
    /// Span id of the verification phase, the requests' trace parent.
    parent_span: u64,
    state: Mutex<ProviderState>,
}

impl<L: Link> ProofProvider for WireProvider<'_, L> {
    fn open_checkpoint(&self, index: usize) -> Result<Cow<'_, [f32]>, ProofUnavailable> {
        let unavailable = ProofUnavailable { index };
        let mut guard = self.state.lock();
        let seq = guard.seq;
        guard.seq += 1;
        let ProviderState { stats, clock, .. } = &mut *guard;
        let (w, rec, transport) = (self.worker.id, self.trace.rec, self.link.transport());
        let leg_link = |kind| self.link.link_state(self.worker, self.epoch, kind);

        // Request leg: manager → worker, drawn on this (the sending) side.
        let request = wire::encode_proof_request(&[index]);
        let (writes, outcome) = transport.chaos_frames(
            self.epoch,
            w,
            MsgKind::ProofRequest,
            seq,
            &request,
            leg_link(MsgKind::ProofRequest),
            stats,
            clock,
            rec,
        );
        let ctx = self.trace.outbound(self.parent_span, outcome.is_ok());
        if !self
            .link
            .send(w, Some(seq), &request, writes, outcome.is_ok(), ctx)
        {
            return Err(unavailable);
        }

        // Response leg: worker → manager, its draws re-derived here.
        let upload = self
            .link
            .proof_response(self.worker, index)
            .ok_or(unavailable)?;
        if let Upload::Payload(Some(ctx), _) = &upload {
            // Consumed here — per opening, under the provider's serialized
            // seq — not at nondeterministic arrival time.
            rec.child_event(
                "rpol.server.ingest_proof",
                *ctx,
                &[("worker", Value::from(w)), ("seq", Value::from(seq))],
            );
        }
        let leg = Leg {
            transport,
            rec,
            epoch: self.epoch,
            worker: w,
            kind: MsgKind::ProofResponse,
            seq,
            link: leg_link(MsgKind::ProofResponse),
        };
        let (got_index, weights) = leg
            .receive(upload, stats, clock, None, |payload| {
                let (got_index, weights) = wire::decode_proof_response_in(payload)?;
                let raw = wire::proof_response_raw_wire_size(weights.len());
                Ok(((got_index, weights), raw))
            })
            .ok_or(unavailable)?;
        if got_index != index {
            return Err(unavailable);
        }
        // Decoded off the wire: necessarily an owned buffer.
        Ok(Cow::Owned(weights))
    }
}
