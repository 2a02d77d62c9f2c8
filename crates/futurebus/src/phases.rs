//! The phased transaction pipeline.
//!
//! The paper's bus protocol is explicitly staged: connection and arbitration,
//! the broadcast address cycle with wired-OR snoop responses (Figures 1–2),
//! the BS abort-and-push restart (§3.2.2), the data transfer, and the
//! completion handshake in which every snooper commits its transition. The
//! engine mirrors that structure literally — [`Futurebus::execute`] runs one
//! straight pass through the six [`Phase`]s in order, and every recovery
//! concern from the fault model lives inside exactly one phase:
//!
//! * [`Phase::Arbitrate`] — bus acquisition; the watchdog times out a stalled
//!   snooper *here*, before the address cycle it would otherwise wedge, and
//!   the pipeline re-arbitrates.
//! * [`Phase::AddressBroadcast`] — every live module snoops the address and
//!   drives its response lines.
//! * [`Phase::SnoopResolve`] — the wired-OR settle window combines the
//!   responses; an injected consistency-line glitch is absorbed here at the
//!   cost of one settle delay (§2.2).
//! * [`Phase::AbortBackoff`] — a genuine BS abort runs the push-restart
//!   sequence, phantom storm rounds drain under the capped exponential
//!   [`RetryPolicy`](crate::RetryPolicy); either way the pipeline restarts
//!   from arbitration.
//! * [`Phase::DataTransfer`] — the unique DI owner (or memory) moves the
//!   line; broadcast writes reach memory and are fanned out at completion.
//! * [`Phase::Commit`] — every snooper observes the resolved CH value and
//!   commits its state transition; post-transaction soft errors land, the
//!   stats and trace are sealed.
//!
//! The pass runs the phases in sequence. Only a watchdog stall in
//! arbitration or a BS abort or storm round in abort-backoff goes back to
//! arbitration; an error ends the pass, with the bus time burned still
//! accounted by the caller. The fault-only work (a stall, a glitch, a storm
//! round, a soft error, a retired module to skip) is tested once per pass,
//! not once per module, so a clean transaction pays for none of it.
//!
//! Every nanosecond is charged to one phase; the bus's
//! [`PhaseHistograms`](crate::PhaseHistograms) record a sample only for a
//! phase that charged time and derive the zeros from the transaction count.

use crate::bus::Futurebus;
use crate::fault::{InjectedFault, TxnFaults};
use crate::module::{BusModule, BusObservation};
use crate::timing::{DataSourceLatency, Nanos};
use crate::trace::{TraceKind, TraceRecord};
use crate::transaction::{BusError, DataSource, TransactionKind, TransactionRequest};
use moesi::{MasterSignals, ResponseSignals};
use std::fmt;

/// The six stages of one bus transaction, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Bus acquisition; watchdog recovery of stalled snoopers.
    Arbitrate,
    /// Broadcast address cycle: every live module snoops.
    AddressBroadcast,
    /// Wired-OR combination and settle of the response lines.
    SnoopResolve,
    /// BS abort-push-restart and storm draining under bounded retry.
    AbortBackoff,
    /// The data phase: intervention, memory, or broadcast distribution.
    DataTransfer,
    /// Completion handshake: snoopers commit; stats and trace are sealed.
    Commit,
}

impl Phase {
    /// The pipeline, in execution order.
    pub const PIPELINE: [Phase; 6] = [
        Phase::Arbitrate,
        Phase::AddressBroadcast,
        Phase::SnoopResolve,
        Phase::AbortBackoff,
        Phase::DataTransfer,
        Phase::Commit,
    ];
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Arbitrate => "arbitrate",
            Phase::AddressBroadcast => "address-broadcast",
            Phase::SnoopResolve => "snoop-resolve",
            Phase::AbortBackoff => "abort-backoff",
            Phase::DataTransfer => "data-transfer",
            Phase::Commit => "commit",
        })
    }
}

/// Everything one in-flight transaction accumulates while it runs the
/// pipeline: the request, the wired-OR combination of the snoopers'
/// responses (the per-snooper replies stay in the bus's own buffer), the
/// fault decisions still pending, and the bus time burned so far. The
/// caller builds the [`TransactionOutcome`](crate::TransactionOutcome) from
/// it once the pass commits.
#[derive(Debug)]
pub(crate) struct TxnContext<'r> {
    /// The request being executed.
    pub(crate) req: &'r TransactionRequest<'r>,
    /// The system line size, cached off the bus memory.
    pub(crate) line_size: usize,
    /// Bus time consumed so far (sealed into stats at commit, and accounted
    /// on every error path by the pipeline driver).
    pub(crate) duration: Nanos,
    /// `duration` attributed to the phase that charged it, in
    /// [`Phase::PIPELINE`] order — every charge goes through
    /// [`TxnContext::charge`], so the six entries always sum to `duration`.
    pub(crate) phase_ns: [Nanos; 6],
    /// BS abort rounds suffered so far.
    pub(crate) aborts: u32,
    /// The fault plan's decisions for this transaction, consumed phase by
    /// phase (stall in arbitration, glitch at snoop-resolve, storm rounds at
    /// abort-backoff, corruption at commit).
    pub(crate) faults: TxnFaults,
    /// Phantom BS rounds still to inject.
    pub(crate) storm_left: u32,
    /// Whether the storm has already been logged to the fault plan.
    pub(crate) storm_recorded: bool,
    /// Wired-OR of the current address cycle's replies after the settle
    /// window.
    pub(crate) combined: ResponseSignals,
    /// Who served the data phase.
    pub(crate) source: DataSource,
}

impl<'r> TxnContext<'r> {
    /// Starts a context for `req` with the fault decisions already rolled.
    pub(crate) fn new(
        req: &'r TransactionRequest<'r>,
        line_size: usize,
        faults: TxnFaults,
    ) -> Self {
        TxnContext {
            req,
            line_size,
            duration: 0,
            phase_ns: [0; 6],
            aborts: 0,
            storm_left: faults.storm_rounds,
            storm_recorded: false,
            faults,
            combined: ResponseSignals::NONE,
            source: DataSource::None,
        }
    }

    /// Charges `ns` of bus time to `phase`: the single funnel through which
    /// every phase accrues time, keeping the per-phase breakdown summing to
    /// `duration` by construction.
    pub(crate) fn charge(&mut self, phase: Phase, ns: Nanos) {
        self.duration += ns;
        self.phase_ns[phase as usize] += ns;
    }
}

impl Futurebus {
    /// Runs `ctx` through the pipeline in one straight pass, until
    /// [`Phase::Commit`] completes. A watchdog stall and a BS abort or storm
    /// round go back to arbitration; nothing else repeats a phase. The
    /// caller accounts `ctx.duration` into the stats on error.
    ///
    /// Generic over the module type: callers holding a concrete component
    /// array (`&mut [CacheController]`) get a statically dispatched pipeline
    /// with no per-transaction reference vector, while the historical dyn
    /// entry point instantiates `M = &mut dyn BusModule` — one code path,
    /// byte-identical behaviour.
    pub(crate) fn run_pipeline<M: BusModule>(
        &mut self,
        ctx: &mut TxnContext<'_>,
        modules: &mut [M],
    ) -> Result<(), BusError> {
        loop {
            // Phase::Arbitrate. A stalled snooper never completes the
            // connection handshake, so the watchdog times it out here,
            // retires it from the snoop set, and the master re-arbitrates.
            if let Some((victim, salvage)) = ctx.faults.stall.take() {
                let cost = self.retire_module(victim, salvage, ctx, modules);
                ctx.charge(Phase::Arbitrate, cost);
                continue;
            }
            self.arbitrate(ctx, modules.len());
            self.address_broadcast(ctx, modules);
            if ctx.faults.glitch {
                self.filter_glitch(ctx);
            }
            if !(ctx.combined.bs || ctx.storm_left > 0) || !self.abort_backoff(ctx, modules)? {
                break;
            }
        }
        self.data_transfer(ctx, modules)?;
        self.commit(ctx, modules);
        Ok(())
    }

    /// Bus acquisition: queueing under the segment's service discipline.
    /// The master pays one arbitration slot per contender served ahead of
    /// it. The first slot is already in the base transaction cost, so the
    /// combinational default charges nothing here and stays byte-identical.
    fn arbitrate(&mut self, ctx: &mut TxnContext<'_>, modules: usize) {
        let slots = self.queue_slots(ctx.req.master, modules);
        if slots > 1 {
            ctx.charge(
                Phase::Arbitrate,
                Nanos::from(slots - 1) * self.timing.arbitration_ns,
            );
        }
    }

    /// Broadcast address cycle: every other live module snoops the request
    /// and drives its response lines.
    fn address_broadcast<M: BusModule>(&mut self, ctx: &mut TxnContext<'_>, modules: &mut [M]) {
        self.replies.clear();
        let mut combined = ResponseSignals::NONE;
        // The retired set is empty unless the watchdog has fired.
        let any_retired = !self.retired.is_empty();
        for (idx, module) in modules.iter_mut().enumerate() {
            if idx == ctx.req.master || (any_retired && self.retired.contains(&idx)) {
                continue;
            }
            let r = module.snoop(ctx.req);
            combined = combined.or(r);
            self.replies.push((idx, r));
        }
        ctx.combined = combined;
    }

    /// Wired-OR settle ([`Phase::SnoopResolve`]) of a glitched pass: the
    /// injected consistency-line glitch bounces before the settle window and
    /// the inertial-delay filter absorbs it (§2.2) at the cost of one settle
    /// delay. The *true* values proceed.
    fn filter_glitch(&mut self, ctx: &mut TxnContext<'_>) {
        ctx.faults.glitch = false;
        if let Some(plan) = self.faults.as_mut() {
            let fault = plan.glitch_spec(ctx.combined);
            let settle = self.timing.broadcast_penalty_ns;
            ctx.charge(Phase::SnoopResolve, settle);
            self.stats.glitches_filtered += 1;
            self.stats.settle_ns += settle;
            let perturbed = match &fault {
                InjectedFault::Glitch { line, spurious } => {
                    ctx.combined.with_line(*line, *spurious)
                }
                _ => ctx.combined,
            };
            self.trace.push(TraceRecord {
                responses: perturbed,
                duration: settle,
                aborts: ctx.aborts,
                ..TraceRecord::for_txn(ctx, TraceKind::Glitch)
            });
            plan.record(ctx.req.master, ctx.req.addr, fault, settle);
        }
    }

    /// BS: abort, push, restart (§3.2.2) — plus injected abort storms,
    /// phantom BS rounds with nobody pushing. Both drain under the capped
    /// exponential retry policy; the aborted address cycle and the backoff
    /// wait are charged to the transaction. Called only for a pass with BS
    /// asserted or storm rounds left; returns whether the pass restarts at
    /// arbitration (false: priority aging let it through).
    fn abort_backoff<M: BusModule>(
        &mut self,
        ctx: &mut TxnContext<'_>,
        modules: &mut [M],
    ) -> Result<bool, BusError> {
        let genuine_bs = ctx.combined.bs;
        if !genuine_bs {
            if self.retry.aging_rounds > 0 && ctx.aborts >= self.retry.aging_rounds {
                // Priority aging: after enough consecutive losses the
                // master's aged arbitration priority outranks the phantom
                // interferer and the transaction proceeds. Genuine BS is
                // never bypassed — a real owner's push is required.
                ctx.storm_left = 0;
                self.stats.aging_promotions += 1;
                return Ok(false);
            }
            if !self.retry.flat_retry {
                // Capped exponential backoff desynchronises the retries
                // from the interference, so the storm drains one round per
                // retry. A flat retry stays phase-locked and drains nothing.
                ctx.storm_left -= 1;
            }
        }
        ctx.aborts += 1;
        self.stats.aborts += 1;
        // The aborted address cycle still occupied the bus.
        let aborted_cycle = self.timing.transaction(0, DataSourceLatency::Master, false);
        ctx.charge(Phase::AbortBackoff, aborted_cycle);
        if ctx.aborts > self.retry.max_retries {
            return Err(BusError::TooManyRetries(ctx.aborts));
        }
        let backoff = self.retry.backoff(ctx.aborts);
        ctx.charge(Phase::AbortBackoff, backoff);
        self.stats.retries += 1;
        self.stats.backoff_ns += backoff;
        if !genuine_bs && !ctx.storm_recorded {
            ctx.storm_recorded = true;
            let cost = self.timing.transaction(0, DataSourceLatency::Master, false);
            if let Some(plan) = self.faults.as_mut() {
                plan.record(
                    ctx.req.master,
                    ctx.req.addr,
                    InjectedFault::AbortStorm {
                        rounds: ctx.faults.storm_rounds,
                    },
                    cost + backoff,
                );
            }
        }
        if genuine_bs {
            self.execute_pushes(ctx, modules)?;
        }
        Ok(true)
    }

    /// Runs the push write-back of every BS-asserting snooper: the pusher
    /// held the only owned copy, so its line goes to memory as a write
    /// transaction of its own before the master's retry.
    fn execute_pushes<M: BusModule>(
        &mut self,
        ctx: &mut TxnContext<'_>,
        modules: &mut [M],
    ) -> Result<(), BusError> {
        let line_size = ctx.line_size;
        for reply in 0..self.replies.len() {
            let (idx, r) = self.replies[reply];
            if !r.bs {
                continue;
            }
            let Some(push) = modules[idx].prepare_push(ctx.req.addr) else {
                return Err(BusError::ProtocolError {
                    module: idx,
                    detail: format!("asserted BS for {:#x} with no push to offer", ctx.req.addr),
                });
            };
            if push.data.len() != line_size {
                return Err(BusError::ProtocolError {
                    module: idx,
                    detail: format!(
                        "pushed {} bytes for {:#x}, not a full {line_size}-byte line",
                        push.data.len(),
                        ctx.req.addr
                    ),
                });
            }
            self.memory.write_line(ctx.req.addr, push.data);
            // The push is itself a write transaction on the bus. No third
            // party needs to snoop it: the pusher held the only owned copy,
            // and unowned S copies are unaffected by a CA,~IM write-back.
            let push_cost = self.timing.transaction_beats(
                self.line_beats,
                DataSourceLatency::Master,
                push.signals.bc,
            );
            ctx.charge(Phase::AbortBackoff, push_cost);
            self.stats.pushes += 1;
            self.stats.transactions += 1;
            self.stats.writes += 1;
            self.stats.memory_writes += 1;
            self.stats.bytes_moved += line_size as u64;
            self.trace.push(TraceRecord {
                master: idx,
                signals: push.signals,
                source: DataSource::Memory,
                duration: push_cost,
                ..TraceRecord::for_txn(ctx, TraceKind::Push)
            });
        }
        Ok(())
    }

    /// The data phase: a read is served by the unique DI owner if one
    /// responded, else by memory (intervention does *not* update memory —
    /// the Futurebus limitation of §4.3–4.5); a non-broadcast write is
    /// captured by the owner or absorbed by memory; a broadcast write
    /// updates memory *and* every SL snooper (§4.2, fanned out at commit).
    fn data_transfer<M: BusModule>(
        &mut self,
        ctx: &mut TxnContext<'_>,
        modules: &mut [M],
    ) -> Result<(), BusError> {
        // The wired-OR says whether anyone intervened; only then find who.
        let intervener = if ctx.combined.di {
            let mut di = self
                .replies
                .iter()
                .filter(|(_, r)| r.di)
                .map(|(idx, _)| *idx);
            let first = di.next();
            if di.next().is_some() {
                // Only the error path pays for materialising the offender
                // list.
                let interveners: Vec<usize> = self
                    .replies
                    .iter()
                    .filter(|(_, r)| r.di)
                    .map(|(idx, _)| *idx)
                    .collect();
                return Err(BusError::MultipleInterveners(interveners));
            }
            first
        } else {
            None
        };

        let line_size = ctx.line_size;
        let broadcast = ctx.req.signals.bc;
        match ctx.req.kind {
            TransactionKind::Read => {
                // The line moves into the bus's own line buffer, which the
                // master borrows from the outcome.
                let (source, latency) = match intervener {
                    Some(idx) => {
                        // A module that asserts DI must be able to supply
                        // the line; one that declines (or supplies a short
                        // line) broke the protocol, reported rather than
                        // crashing the machine.
                        match modules[idx].supply_line(ctx.req.addr) {
                            Some(line) if line.len() == line_size => {
                                self.line.copy_from_slice(line);
                            }
                            supplied => {
                                let detail = match supplied {
                                    None => format!(
                                        "asserted DI for {:#x} but declined to supply the line",
                                        ctx.req.addr
                                    ),
                                    Some(line) => format!(
                                        "supplied {} bytes for {:#x}, not a full \
                                         {line_size}-byte line",
                                        line.len(),
                                        ctx.req.addr
                                    ),
                                };
                                return Err(BusError::ProtocolError {
                                    module: idx,
                                    detail,
                                });
                            }
                        }
                        self.stats.interventions += 1;
                        (
                            DataSource::Intervention(idx),
                            DataSourceLatency::Intervention,
                        )
                    }
                    None => {
                        self.stats.memory_reads += 1;
                        self.line
                            .copy_from_slice(self.memory.read_line(ctx.req.addr));
                        (DataSource::Memory, DataSourceLatency::Memory)
                    }
                };
                let cost = self
                    .timing
                    .transaction_beats(self.line_beats, latency, broadcast);
                ctx.charge(Phase::DataTransfer, cost);
                self.stats.reads += 1;
                self.stats.bytes_moved += line_size as u64;
                ctx.source = source;
            }
            TransactionKind::Write { offset, bytes } => {
                if broadcast {
                    // Broadcast writes always reach memory (§4.2); SL
                    // snoopers are updated in the completion phase.
                    self.memory.write_bytes(ctx.req.addr, offset, bytes);
                    self.stats.memory_writes += 1;
                } else if intervener.is_some() {
                    // The owner captures the write; memory is preempted.
                    self.stats.captures += 1;
                } else {
                    self.memory.write_bytes(ctx.req.addr, offset, bytes);
                    self.stats.memory_writes += 1;
                }
                // A write-back moves a whole line, whose beats are known.
                let beats = if bytes.len() == line_size {
                    self.line_beats
                } else {
                    self.timing.beats_for(bytes.len())
                };
                let cost =
                    self.timing
                        .transaction_beats(beats, DataSourceLatency::Master, broadcast);
                ctx.charge(Phase::DataTransfer, cost);
                self.stats.writes += 1;
                self.stats.bytes_moved += bytes.len() as u64;
                ctx.source = match intervener {
                    Some(idx) if !broadcast => DataSource::Intervention(idx),
                    _ => DataSource::Memory,
                };
            }
            TransactionKind::AddressOnly => {
                let cost = self.timing.transaction(0, DataSourceLatency::Master, false);
                ctx.charge(Phase::DataTransfer, cost);
                self.stats.address_only += 1;
                ctx.source = DataSource::None;
            }
        }
        if broadcast {
            self.stats.broadcasts += 1;
        }
        Ok(())
    }

    /// Completion handshake: every snooper commits its state transition with
    /// the resolved CH observation (and the write payload, when SL- or
    /// DI-connected). Post-transaction soft errors land here, then the stats
    /// and trace are sealed.
    fn commit<M: BusModule>(&mut self, ctx: &mut TxnContext<'_>, modules: &mut [M]) {
        let payload = match ctx.req.kind {
            TransactionKind::Write { offset, bytes } => Some((offset, bytes)),
            _ => None,
        };
        let broadcast = ctx.req.signals.bc;
        // "CH asserted by someone else" per snooper, without rescanning the
        // reply list for each: others hold CH iff the total count exceeds
        // this snooper's own contribution.
        let ch_count = self.replies.iter().filter(|(_, r)| r.ch).count();
        for (idx, r) in &self.replies {
            let ch_others = ch_count > usize::from(r.ch);
            let delivers = payload.is_some() && (r.sl || (r.di && !broadcast));
            if r.sl && payload.is_some() {
                self.stats.sl_updates += 1;
            }
            modules[*idx].complete(
                ctx.req,
                &BusObservation {
                    ch_others,
                    write_data: if delivers { payload } else { None },
                },
            );
        }

        // Soft error: corrupt a resident memory line once the transaction is
        // over (never the in-flight data phase — the bus got the electrical
        // transfer right; the cell rots afterwards).
        if ctx.faults.corrupt {
            let resident = self.memory.line_addrs();
            if let Some(plan) = self.faults.as_mut() {
                let fault = plan.corrupt_spec(&resident, ctx.req.addr, ctx.line_size);
                if let InjectedFault::CorruptMemory { addr, offset, mask } = fault {
                    let mut line: Box<[u8]> = self.memory.peek(addr).into();
                    line[offset] ^= mask;
                    self.memory.write_line(addr, &line);
                    self.stats.corruptions += 1;
                    self.trace.push(TraceRecord {
                        addr,
                        signals: MasterSignals::NONE,
                        source: DataSource::Memory,
                        ..TraceRecord::for_txn(ctx, TraceKind::Corrupt)
                    });
                    plan.record(
                        ctx.req.master,
                        ctx.req.addr,
                        InjectedFault::CorruptMemory { addr, offset, mask },
                        0,
                    );
                }
            }
        }

        let kind = match &ctx.req.kind {
            TransactionKind::Read => TraceKind::Read,
            TransactionKind::Write { .. } => TraceKind::Write,
            TransactionKind::AddressOnly => TraceKind::AddressOnly,
        };
        self.stats.transactions += 1;
        self.seal_observation(ctx, Some(kind));
        self.trace.push(TraceRecord {
            responses: ctx.combined,
            source: ctx.source,
            duration: ctx.duration,
            aborts: ctx.aborts,
            ..TraceRecord::for_txn(ctx, kind)
        });
    }

    /// Times out and retires a non-responding snooper: salvages its dirty
    /// lines to memory if its cache RAM is still readable, or — when the
    /// board is dead — invalidates every surviving copy of the lines whose
    /// only up-to-date data died with it, so no stale data outlives the
    /// owner. Returns the bus time consumed.
    fn retire_module<M: BusModule>(
        &mut self,
        victim: usize,
        salvage: bool,
        ctx: &TxnContext<'_>,
        modules: &mut [M],
    ) -> Nanos {
        let line_size = ctx.line_size;
        let mut cost = self.timing.watchdog_timeout_ns;
        let report = modules[victim].retire(salvage);

        let mut salvaged_addrs = Vec::with_capacity(report.salvaged.len());
        for (addr, data) in &report.salvaged {
            self.memory.write_line(*addr, data);
            cost +=
                self.timing
                    .transaction_beats(self.line_beats, DataSourceLatency::Master, false);
            self.stats.transactions += 1;
            self.stats.writes += 1;
            self.stats.memory_writes += 1;
            self.stats.bytes_moved += line_size as u64;
            self.stats.salvaged_lines += 1;
            salvaged_addrs.push(*addr);
        }

        // The dead board's dirty lines are gone; any surviving S copies of
        // them now disagree with the (stale) memory image, so the recovery
        // invalidates them bus-wide. The data loss is *reported* — it shows
        // up in the stats, the fault log and the trace, never silently.
        for addr in &report.lost {
            let inval = TransactionRequest::address_only(victim, *addr, MasterSignals::CA_IM);
            for (idx, module) in modules.iter_mut().enumerate() {
                if idx == victim || self.retired.contains(&idx) {
                    continue;
                }
                let _ = module.snoop(&inval);
            }
            for (idx, module) in modules.iter_mut().enumerate() {
                if idx == victim || self.retired.contains(&idx) {
                    continue;
                }
                module.complete(
                    &inval,
                    &BusObservation {
                        ch_others: false,
                        write_data: None,
                    },
                );
            }
            cost += self.timing.transaction(0, DataSourceLatency::Master, false);
            self.stats.transactions += 1;
            self.stats.address_only += 1;
            self.stats.lost_lines += 1;
        }

        self.retired.insert(victim);
        self.stats.watchdog_retirements += 1;
        self.trace.push(TraceRecord {
            master: victim,
            duration: cost,
            ..TraceRecord::for_txn(ctx, TraceKind::Retire)
        });
        if let Some(plan) = self.faults.as_mut() {
            // On a parent bus the snoopers are bridges, and the plan says so;
            // the record then names the fault for what it is — a whole
            // cluster's bus adapter dying, not one cache board.
            let fault = match (plan.config().bridges, salvage) {
                (false, true) => InjectedFault::Stall {
                    module: victim,
                    salvaged: salvaged_addrs,
                },
                (false, false) => InjectedFault::Kill {
                    module: victim,
                    lost: report.lost.clone(),
                },
                (true, true) => InjectedFault::BridgeStall {
                    bridge: victim,
                    salvaged: salvaged_addrs,
                },
                (true, false) => InjectedFault::BridgeKill {
                    bridge: victim,
                    lost: report.lost.clone(),
                },
            };
            plan.record(ctx.req.master, ctx.req.addr, fault, cost);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_order_is_the_paper_handshake() {
        // A phase's charges land at its own index of the breakdown.
        for (index, phase) in Phase::PIPELINE.into_iter().enumerate() {
            assert_eq!(phase as usize, index, "{phase}");
        }
        assert_eq!(Phase::PIPELINE[0], Phase::Arbitrate);
        assert_eq!(Phase::PIPELINE[5], Phase::Commit);
    }

    #[test]
    fn phases_render_for_diagnostics() {
        let names: Vec<String> = Phase::PIPELINE.iter().map(Phase::to_string).collect();
        assert_eq!(
            names,
            [
                "arbitrate",
                "address-broadcast",
                "snoop-resolve",
                "abort-backoff",
                "data-transfer",
                "commit"
            ]
        );
    }
}
