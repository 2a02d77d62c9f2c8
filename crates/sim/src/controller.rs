//! The snooping cache controller: one node's cache + protocol + bus port.
//!
//! A [`CacheController`] binds a [`Protocol`] policy to a
//! [`CacheArray`] and implements the Futurebus [`BusModule`] callbacks. The
//! *snoop* callback consults the protocol's bus-event table and answers with
//! response lines; the *complete* callback commits the chosen reaction once
//! the wired-OR CH observation is known (the paper's `CH:O/M` and `CH:S/E`
//! results need it); *supply* and *push* serve intervention and BS aborts.
//!
//! Master-side sequencing (what to do on a local read or write, including
//! victim write-backs and `Read>Write` two-transaction cells) lives in
//! [`System`](crate::System), which owns the bus and all controllers.

use cache_array::{CacheArray, CacheConfig, LineSlot, Victim};
use futurebus::{
    BusModule, BusObservation, ChangeLog, LineAddr, PushWrite, RetireReport, TransactionRequest,
};
use moesi::protocols::non_caching;
use moesi::{
    BusEvent, BusReaction, CacheKind, IllegalCell, LineState, LocalAction, LocalCtx, LocalEvent,
    Protocol, ResponseSignals, SnoopCtx,
};

use crate::metrics::CpuStats;

/// One bus node: a processor port with (optionally) a cache, driven by a
/// consistency protocol.
#[derive(Debug)]
pub struct CacheController {
    id: usize,
    name: String,
    protocol: Box<dyn Protocol + Send>,
    /// The protocol's client kind, read once: the oracle asks per copy.
    kind: CacheKind,
    cache: Option<CacheArray<LineState>>,
    stats: CpuStats,
    pending: Option<PendingSnoop>,
    changes: Option<ChangeLog>,
}

/// A snoop's decision, kept until the completion handshake commits it:
/// the reaction, and where the snooped line sits in the cache, so the
/// commit reaches it without a second tag scan.
#[derive(Clone, Copy, Debug)]
struct PendingSnoop {
    addr: LineAddr,
    reaction: BusReaction,
    slot: LineSlot,
}

/// A line the master holds, found by one tag scan: its state and recency
/// rank for the protocol's decision, and its slot for the write that
/// follows.
#[derive(Clone, Copy, Debug)]
pub struct Held {
    /// The line's state (never `Invalid`: resident lines are valid).
    pub state: LineState,
    rank: u32,
    slot: LineSlot,
}

impl CacheController {
    /// Creates a controller. Non-caching protocols take no cache
    /// configuration; caching ones require it.
    ///
    /// # Panics
    ///
    /// Panics when a caching protocol is given no cache, or a non-caching
    /// one is given a cache.
    #[must_use]
    pub fn new(
        id: usize,
        protocol: Box<dyn Protocol + Send>,
        cache: Option<CacheConfig>,
        seed: u64,
    ) -> Self {
        let kind = protocol.kind();
        let caching = kind != CacheKind::NonCaching;
        assert_eq!(
            caching,
            cache.is_some(),
            "protocol `{}` {} a cache configuration",
            protocol.name(),
            if caching { "requires" } else { "must not have" }
        );
        let name = format!("cpu{id}:{}", protocol.name());
        CacheController {
            id,
            name,
            protocol,
            kind,
            cache: cache.map(|cfg| CacheArray::new(cfg, seed)),
            stats: CpuStats::new(),
            pending: None,
            changes: None,
        }
    }

    /// The controller's module index on the bus.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// A display name, `cpu<id>:<protocol>`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The protocol's client kind.
    #[must_use]
    pub fn kind(&self) -> CacheKind {
        self.kind
    }

    /// Whether the protocol needs the BS line.
    #[must_use]
    pub fn requires_bs(&self) -> bool {
        self.protocol.requires_bs()
    }

    /// This node's statistics.
    #[must_use]
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// Mutable statistics (the system updates master-side counters).
    pub fn stats_mut(&mut self) -> &mut CpuStats {
        &mut self.stats
    }

    /// The cache array, if this node has one (checker and tests).
    #[must_use]
    pub fn cache(&self) -> Option<&CacheArray<LineState>> {
        self.cache.as_ref()
    }

    /// The consistency state of the line containing `addr` (Invalid when
    /// absent or cacheless).
    #[must_use]
    pub fn state_of(&self, addr: u64) -> LineState {
        self.cache
            .as_ref()
            .and_then(|c| c.state_of(addr))
            .unwrap_or(LineState::Invalid)
    }

    /// The line containing `addr` as this node holds it (`None`: absent or
    /// cacheless), in one tag scan.
    #[must_use]
    pub fn held(&self, addr: u64) -> Option<Held> {
        let (slot, state, rank) = self.cache.as_ref()?.locate(addr)?;
        Some(Held { state, rank, slot })
    }

    /// Consults the protocol for a local event on `addr`, held as
    /// [`held`](CacheController::held) found it: no tag scan. A `—` cell is
    /// a structured [`IllegalCell`] error.
    pub fn try_decide_held(
        &mut self,
        addr: u64,
        held: Option<Held>,
        event: LocalEvent,
    ) -> Result<LocalAction, IllegalCell> {
        let (state, recency_rank) = match held {
            Some(held) => (held.state, Some(held.rank)),
            None => (LineState::Invalid, None),
        };
        let ctx = LocalCtx {
            recency_rank,
            ways: self
                .cache
                .as_ref()
                .map_or(0, |c| c.config().associativity as u32),
            line_addr: Some(self.line_addr(addr)),
        };
        self.protocol.try_on_local(state, event, &ctx)
    }

    /// Consults the protocol for an event on a line in an explicit state —
    /// used for victims that have already left the cache.
    ///
    /// # Panics
    ///
    /// Panics on a `—` cell; [`CacheController::try_decide_for`] is the
    /// fallible form the fabric uses.
    #[must_use]
    pub fn decide_for(&mut self, state: LineState, event: LocalEvent) -> LocalAction {
        self.try_decide_for(state, event)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`CacheController::decide_for`].
    pub fn try_decide_for(
        &mut self,
        state: LineState,
        event: LocalEvent,
    ) -> Result<LocalAction, IllegalCell> {
        self.protocol
            .try_on_local(state, event, &LocalCtx::default())
    }

    /// The bytes at `addr` in the resident line, borrowed, marking the line
    /// most-recently-used (hit path); `None` on a miss.
    #[must_use]
    pub fn read_cached(&mut self, addr: u64, len: usize) -> Option<&[u8]> {
        self.cache.as_mut()?.touch_read(addr, len)
    }

    /// The dataless hit probe: if the line containing `addr` is resident,
    /// marks it most-recently-used (same recency effect as
    /// [`CacheController::read_cached`], no copy) and reports the hit in a
    /// single tag scan. Resident lines are always in a valid state — the
    /// fabric removes a line whenever its state becomes Invalid — so
    /// residency alone decides the hit.
    pub fn probe_touch(&mut self, addr: u64) -> bool {
        match self.cache.as_mut() {
            Some(cache) => match cache.touch_state(addr) {
                Some(state) => {
                    debug_assert!(state.is_valid(), "resident lines are valid");
                    true
                }
                None => false,
            },
            None => false,
        }
    }

    /// A write hit on a line [`held`](CacheController::held) found: writes
    /// `bytes` at `addr`, marks the line most-recently-used and sets its
    /// state, with no tag scan while the line has not moved. False, changing
    /// nothing, when the line is not resident.
    pub fn write_held(
        &mut self,
        held: Option<Held>,
        addr: u64,
        bytes: &[u8],
        state: LineState,
    ) -> bool {
        let Some(held) = held else {
            return false;
        };
        let line = self.line_addr(addr);
        let write = Some(((addr - line) as usize, bytes));
        self.commit_line(held.slot, line, write, true, state)
    }

    /// Changes the line at `slot` in one step — writes the payload `write`
    /// at its offset, if any; marks the line most-recently-used if `touch`;
    /// sets `state`, removing the line on `Invalid` — and logs it. False,
    /// changing nothing, when the line is not resident.
    fn commit_line(
        &mut self,
        slot: LineSlot,
        line: u64,
        write: Option<(usize, &[u8])>,
        touch: bool,
        state: LineState,
    ) -> bool {
        let Some(cache) = self.cache.as_mut() else {
            return false;
        };
        let kept = (state != LineState::Invalid).then_some(state);
        let committed = cache.commit_at(slot, line, write, touch, kept);
        if let (true, Some(log)) = (committed, &self.changes) {
            log.line(line);
        }
        committed
    }

    /// Installs a copy of `data` as the line at `addr`, returning the evicted
    /// victim if any; the victim's bytes replace `victim_data`'s contents.
    ///
    /// # Panics
    ///
    /// Panics when called on a cacheless node.
    pub fn fill(
        &mut self,
        addr: u64,
        state: LineState,
        data: &[u8],
        victim_data: &mut Vec<u8>,
    ) -> Option<Victim<LineState>> {
        let victim = self.cache.as_mut().expect("fill on a cacheless node").fill(
            addr,
            state,
            data,
            victim_data,
        );
        self.log_change(addr);
        if let (Some(log), Some(v)) = (&self.changes, &victim) {
            log.line(v.addr);
        }
        victim
    }

    /// Sets a resident line's state; on `Invalid`, removes the line.
    pub fn apply_state(&mut self, addr: u64, state: LineState) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        if state == LineState::Invalid {
            cache.invalidate(addr);
        } else {
            cache.set_state(addr, state);
        }
        self.log_change(addr);
    }

    fn line_addr(&self, addr: u64) -> u64 {
        self.cache
            .as_ref()
            .map_or(addr, |c| c.map().line_addr(addr))
    }

    /// Logs the lines whose state or data changes in `log` (none for
    /// `None`), for an incremental consistency audit.
    pub(crate) fn track_changes(&mut self, log: Option<&ChangeLog>) {
        self.changes = log.cloned();
    }

    /// Logs the line containing `addr`. Only a node with a cache can change
    /// a line, and the cache's map gives the aligned address; a cacheless
    /// node's `line_addr` would return `addr` unaligned.
    fn log_change(&mut self, addr: u64) {
        if let (Some(log), Some(cache)) = (&self.changes, &self.cache) {
            log.line(cache.map().line_addr(addr));
        }
    }
}

impl BusModule for CacheController {
    fn snoop(&mut self, req: &TransactionRequest) -> ResponseSignals {
        self.pending = None;
        let Some(cache) = self.cache.as_ref() else {
            // "A non-caching unit never responds to bus events."
            return ResponseSignals::NONE;
        };
        let Some((slot, state, rank)) = cache.locate(req.addr) else {
            return ResponseSignals::NONE;
        };
        debug_assert!(state.is_valid(), "resident lines are valid");
        let Some(event) = BusEvent::from_signals(req.signals) else {
            return ResponseSignals::NONE;
        };
        let ctx = SnoopCtx {
            recency_rank: Some(rank),
            ways: cache.config().associativity as u32,
            line_addr: Some(cache.map().line_addr(req.addr)),
        };
        let reaction = match self.protocol.try_on_bus(state, event, &ctx) {
            Ok(r) => r,
            Err(_) => {
                // An error-condition cell (`—` in Table 2) reached
                // mid-transaction: the protocol defines no reaction, so a
                // fault (or bug) put this line in a state the event should
                // never meet. Assert BS with no push staged; the bus's push
                // phase then reports a recoverable ProtocolError naming this
                // module, instead of the process dying inside the snooper.
                return ResponseSignals {
                    ch: false,
                    di: false,
                    sl: false,
                    bs: true,
                };
            }
        };
        self.pending = Some(PendingSnoop {
            addr: req.addr,
            reaction,
            slot,
        });
        ResponseSignals {
            ch: reaction.ch && reaction.busy.is_none(),
            di: reaction.di && reaction.busy.is_none(),
            sl: reaction.sl && reaction.busy.is_none(),
            bs: reaction.busy.is_some(),
        }
    }

    fn supply_line(&mut self, addr: LineAddr) -> Option<&[u8]> {
        // A cacheless node, or a non-resident line, means this controller
        // asserted DI it cannot honour (or a fault ate the line since the
        // snoop); declining lets the bus report a ProtocolError the fault
        // campaign records as *detected*, instead of killing the process.
        let entry = self.cache.as_ref()?.lookup(addr)?;
        self.stats.interventions_supplied += 1;
        Some(entry.data)
    }

    fn prepare_push(&mut self, addr: LineAddr) -> Option<PushWrite<'_>> {
        // Any of these being absent means this controller asserted BS it
        // cannot honour; declining lets the bus report a ProtocolError
        // instead of crashing the whole machine.
        let pending = self.pending.take()?;
        if pending.addr != addr {
            return None;
        }
        let push = pending.reaction.busy?;
        // The line leaves (or demotes) with its bytes still in the array,
        // lent to the bus for the push. `addr` is a bus address, so aligned.
        let kept = (push.result != LineState::Invalid).then_some(push.result);
        let data = self.cache.as_mut()?.update(addr, kept)?;
        if let Some(log) = &self.changes {
            log.line(addr);
        }
        self.stats.pushes += 1;
        self.stats.write_backs += 1;
        Some(PushWrite {
            data,
            signals: push.signals,
        })
    }

    fn retire(&mut self, salvage: bool) -> RetireReport {
        self.pending = None;
        if let Some(log) = &self.changes {
            log.wholesale();
        }
        let mut report = RetireReport::default();
        if let Some(cache) = self.cache.take() {
            // Only the owned (M/O) lines matter: memory already has an
            // up-to-date copy of everything else.
            for (addr, entry) in cache.iter() {
                if entry.state.is_owned() {
                    if salvage {
                        report.salvaged.push((addr, entry.data.into()));
                    } else {
                        report.lost.push(addr);
                    }
                }
            }
        }
        report.salvaged.sort_by_key(|(addr, _)| *addr);
        report.lost.sort_unstable();
        // The board is degraded to a non-caching client from here on — the
        // class explicitly accommodates those (§3.3), so the survivors keep
        // running the same protocol around it.
        self.protocol = Box::new(non_caching());
        self.kind = CacheKind::NonCaching;
        self.name.push_str("[retired]");
        self.stats.retired = true;
        report
    }

    fn complete(&mut self, req: &TransactionRequest, obs: &BusObservation<'_>) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        if pending.addr != req.addr {
            return;
        }
        debug_assert!(
            pending.reaction.busy.is_none(),
            "{}: BS reactions are consumed by prepare_push",
            self.name
        );
        // Apply the delivered data first (SL connect or DI capture), then the
        // state transition, through the slot the snoop found. The snoop
        // found the line resident, so it had a valid copy.
        let result = pending.reaction.result.resolve(obs.ch_others);
        let committed = self.commit_line(pending.slot, req.addr, obs.write_data, false, result);
        if committed && obs.write_data.is_some() {
            if pending.reaction.di {
                self.stats.captures += 1;
            } else {
                self.stats.updates_received += 1;
            }
        }
        if result == LineState::Invalid {
            self.stats.invalidations_received += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moesi::protocols::{moesi_preferred, non_caching, write_once};
    use moesi::MasterSignals;

    fn cfg() -> CacheConfig {
        CacheConfig::new(1024, 16, 2, cache_array::ReplacementKind::Lru)
    }

    fn moesi_ctrl(id: usize) -> CacheController {
        CacheController::new(id, Box::new(moesi_preferred()), Some(cfg()), 1)
    }

    fn read_req(addr: u64) -> TransactionRequest<'static> {
        TransactionRequest::read(9, addr, MasterSignals::CA)
    }

    #[test]
    fn snoop_miss_responds_nothing() {
        let mut c = moesi_ctrl(0);
        assert_eq!(c.snoop(&read_req(0x100)), ResponseSignals::NONE);
    }

    #[test]
    fn snoop_hit_in_modified_asserts_ch_and_di_then_downgrades() {
        let mut c = moesi_ctrl(0);
        c.fill(0x100, LineState::Modified, &[5; 16], &mut Vec::new());
        let r = c.snoop(&read_req(0x100));
        assert!(r.ch && r.di && !r.bs);
        assert_eq!(c.supply_line(0x100).unwrap(), &[5; 16]);
        c.complete(
            &read_req(0x100),
            &BusObservation {
                ch_others: false,
                write_data: None,
            },
        );
        assert_eq!(c.state_of(0x100), LineState::Owned);
        assert_eq!(c.stats().interventions_supplied, 1);
    }

    #[test]
    fn snooped_invalidate_counts_and_removes() {
        let mut c = moesi_ctrl(0);
        c.fill(0x100, LineState::Shareable, &[0; 16], &mut Vec::new());
        let req = TransactionRequest::read(9, 0x100, MasterSignals::CA_IM);
        let r = c.snoop(&req);
        assert!(!r.ch && !r.di);
        c.complete(
            &req,
            &BusObservation {
                ch_others: false,
                write_data: None,
            },
        );
        assert_eq!(c.state_of(0x100), LineState::Invalid);
        assert_eq!(c.stats().invalidations_received, 1);
    }

    #[test]
    fn snooped_broadcast_write_updates_the_copy() {
        let mut c = moesi_ctrl(0);
        c.fill(0x100, LineState::Shareable, &[0; 16], &mut Vec::new());
        let req = TransactionRequest::write(9, 0x100, MasterSignals::CA_IM_BC, 4, &[7, 7]);
        let r = c.snoop(&req);
        assert!(r.sl && r.ch);
        c.complete(
            &req,
            &BusObservation {
                ch_others: false,
                write_data: Some((4, &[7, 7])),
            },
        );
        assert_eq!(c.state_of(0x100), LineState::Shareable);
        assert_eq!(c.read_cached(0x104, 2), Some(&[7, 7][..]));
        assert_eq!(c.stats().updates_received, 1);
    }

    #[test]
    fn ch_resolution_uses_other_caches() {
        // An O-state holder snooping an uncached read regains M only when no
        // other cache claims a copy.
        let mut c = moesi_ctrl(0);
        c.fill(0x100, LineState::Owned, &[1; 16], &mut Vec::new());
        let req = TransactionRequest::read(9, 0x100, MasterSignals::NONE);
        let _ = c.snoop(&req);
        c.complete(
            &req,
            &BusObservation {
                ch_others: true,
                write_data: None,
            },
        );
        assert_eq!(c.state_of(0x100), LineState::Owned);

        let _ = c.snoop(&req);
        c.complete(
            &req,
            &BusObservation {
                ch_others: false,
                write_data: None,
            },
        );
        assert_eq!(c.state_of(0x100), LineState::Modified);
    }

    #[test]
    fn write_once_dirty_snoop_asserts_bs_then_pushes() {
        let mut c = CacheController::new(0, Box::new(write_once()), Some(cfg()), 1);
        c.fill(0x100, LineState::Modified, &[9; 16], &mut Vec::new());
        let r = c.snoop(&read_req(0x100));
        assert!(r.bs);
        assert!(!r.di && !r.ch, "BS suppresses the other lines this pass");
        let push = c.prepare_push(0x100).expect("BS snoop must yield a push");
        assert_eq!(push.data, &[9; 16]);
        assert!(push.signals.ca);
        assert_eq!(c.state_of(0x100), LineState::Shareable);
        assert_eq!(c.stats().pushes, 1);
        // The retried transaction snoops again from S.
        let r2 = c.snoop(&read_req(0x100));
        assert!(r2.ch && !r2.bs);
    }

    #[test]
    fn supplying_a_non_resident_line_declines_instead_of_panicking() {
        let mut c = moesi_ctrl(0);
        assert!(c.supply_line(0x100).is_none(), "nothing resident");
        let mut cacheless = CacheController::new(1, Box::new(non_caching()), None, 1);
        assert!(cacheless.supply_line(0x100).is_none());
        assert_eq!(c.stats().interventions_supplied, 0);
    }

    #[test]
    fn a_wrongly_asserted_intervention_is_a_reported_bus_error() {
        // End-to-end: a controller holding M answers DI, but the line is
        // invalidated before the data phase (here: by reaching straight into
        // the cache, standing in for a mid-transaction fault). The bus must
        // surface a ProtocolError, not abort the process.
        use futurebus::{BusError, Futurebus, TimingConfig};
        let mut bus = Futurebus::new(16, TimingConfig::default());
        let mut c = moesi_ctrl(0);
        c.fill(0x100, LineState::Modified, &[5; 16], &mut Vec::new());
        struct Saboteur<'a>(&'a mut CacheController);
        impl BusModule for Saboteur<'_> {
            fn snoop(&mut self, req: &TransactionRequest) -> ResponseSignals {
                let r = self.0.snoop(req);
                self.0.apply_state(req.addr, LineState::Invalid);
                r
            }
            fn supply_line(&mut self, addr: LineAddr) -> Option<&[u8]> {
                self.0.supply_line(addr)
            }
            fn complete(&mut self, req: &TransactionRequest, obs: &BusObservation<'_>) {
                self.0.complete(req, obs);
            }
        }
        let mut s = Saboteur(&mut c);
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut s];
        let req = TransactionRequest::read(1, 0x100, MasterSignals::CA);
        let err = bus.execute(&req, &mut mods).unwrap_err();
        assert!(
            matches!(err, BusError::ProtocolError { module: 0, .. }),
            "{err:?}"
        );
        assert_eq!(c.stats().interventions_supplied, 0);
    }

    #[test]
    fn an_illegal_snoop_cell_surfaces_as_a_bus_error_not_a_panic() {
        // Synapse's E row is all `—` cells (the protocol never uses E); a
        // fault standing a line in E mid-run must not crash the snooper. The
        // controller asserts BS with no push staged, so the bus reports a
        // ProtocolError against this module.
        use futurebus::{BusError, Futurebus, TimingConfig};
        use moesi::protocols::synapse;
        let mut bus = Futurebus::new(16, TimingConfig::default());
        let mut c = CacheController::new(0, Box::new(synapse()), Some(cfg()), 1);
        c.fill(0x100, LineState::Exclusive, &[5; 16], &mut Vec::new());
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut c];
        let req = TransactionRequest::read(1, 0x100, MasterSignals::CA);
        let err = bus.execute(&req, &mut mods).unwrap_err();
        assert!(
            matches!(err, BusError::ProtocolError { module: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn non_caching_controller_never_responds() {
        let mut c = CacheController::new(0, Box::new(non_caching()), None, 1);
        assert_eq!(c.snoop(&read_req(0)), ResponseSignals::NONE);
        assert_eq!(c.state_of(0), LineState::Invalid);
        c.complete(
            &read_req(0),
            &BusObservation {
                ch_others: true,
                write_data: None,
            },
        );
        assert_eq!(c.stats().invalidations_received, 0);
    }

    #[test]
    #[should_panic(expected = "requires a cache")]
    fn caching_protocol_without_cache_is_rejected() {
        let _ = CacheController::new(0, Box::new(moesi_preferred()), None, 1);
    }

    #[test]
    #[should_panic(expected = "must not have")]
    fn non_caching_protocol_with_cache_is_rejected() {
        let _ = CacheController::new(0, Box::new(non_caching()), Some(cfg()), 1);
    }

    #[test]
    fn retire_salvages_owned_lines_and_degrades_to_non_caching() {
        let mut c = moesi_ctrl(0);
        c.fill(0x100, LineState::Modified, &[3; 16], &mut Vec::new());
        c.fill(0x200, LineState::Shareable, &[4; 16], &mut Vec::new());
        let report = c.retire(true);
        // Only the owned line is salvaged; the S copy is already in memory.
        assert_eq!(report.salvaged.len(), 1);
        assert_eq!(report.salvaged[0].0, 0x100);
        assert_eq!(&report.salvaged[0].1[..], &[3; 16]);
        assert!(report.lost.is_empty());
        assert_eq!(c.kind(), CacheKind::NonCaching);
        assert!(c.cache().is_none());
        assert!(c.name().ends_with("[retired]"));
        assert!(c.stats().retired);
        // A retired node behaves like any non-caching client.
        assert_eq!(c.snoop(&read_req(0x100)), ResponseSignals::NONE);
    }

    #[test]
    fn retire_without_salvage_reports_owned_lines_lost() {
        let mut c = moesi_ctrl(0);
        c.fill(0x100, LineState::Owned, &[1; 16], &mut Vec::new());
        c.fill(0x300, LineState::Modified, &[2; 16], &mut Vec::new());
        let report = c.retire(false);
        assert!(report.salvaged.is_empty());
        assert_eq!(report.lost, vec![0x100, 0x300]);
        assert!(c.stats().retired);
    }

    #[test]
    fn a_local_decision_passes_recency_context() {
        let mut c = moesi_ctrl(0);
        c.fill(0x000, LineState::Shareable, &[0; 16], &mut Vec::new());
        c.fill(0x200, LineState::Shareable, &[0; 16], &mut Vec::new()); // same set
                                                                        // 0x000 is now LRU of a 2-way set.
        let held = c.held(0x000);
        assert_eq!(held.map(|h| h.state), Some(LineState::Shareable));
        let a = c.try_decide_held(0x000, held, LocalEvent::Read).unwrap();
        assert_eq!(a.to_string(), "S");
        assert_eq!(c.cache().unwrap().recency_rank(0x000), Some(1));
    }
}
