//! The access engine shared by [`System`](crate::System) and the §6
//! multi-bus [`hierarchy`](crate::hierarchy): one Futurebus plus its attached
//! controllers, and the master-side sequencing that turns processor accesses
//! into protocol consultations and bus transactions.
//!
//! `Fabric` is deliberately oracle-free and workload-free — it is the
//! machine, not the experiment. `System` wraps it with the consistency
//! checker; a [`Bridge`](crate::hierarchy::Bridge) wraps it with a cluster
//! directory.

use cache_array::{split_line_crossers, Victim};
use futurebus::{Futurebus, TimingConfig, TransactionOutcome, TransactionRequest};
use moesi::{BusOp, LineState, LocalAction, LocalEvent};
use std::ops::Range;

use crate::controller::CacheController;

/// One bus with its controllers and the access sequencing logic.
#[derive(Debug)]
pub struct Fabric {
    bus: Futurebus,
    controllers: Vec<CacheController>,
    line_size: usize,
    tolerate: bool,
    errors: Vec<String>,
    /// The bytes of a line leaving a cache — a victim, or the copy a pass or
    /// flush pushes — lent to its write-back; kept for its capacity, so a
    /// write-back allocates nothing.
    outgoing: Vec<u8>,
}

/// Runs `req` on `bus` with `controllers` snooping and charges the master's
/// stats ([`Fabric::run_txn`]'s body). It borrows only what it uses, so the
/// bus can lend a read's line into a controller's fill, and a write-back's
/// payload can sit in [`Fabric`]'s own buffer. `log` is the error log in
/// tolerant mode and `None` in strict mode.
fn transact<'b>(
    bus: &'b mut Futurebus,
    controllers: &mut [CacheController],
    log: Option<&mut Vec<String>>,
    req: &TransactionRequest<'_>,
) -> TransactionOutcome<'b> {
    // The controllers are passed as a flat component array: the bus
    // pipeline monomorphises over `CacheController`, so there is no
    // per-transaction `Vec<&mut dyn BusModule>` and no virtual dispatch in
    // the snoop fan-out.
    let (out, error) = bus.execute_or_degrade(req, controllers);
    if let Some(e) = error {
        match log {
            Some(log) => log.push(format!("{req}: {e}")),
            None => panic!("bus error on {req}: {e}"),
        }
    }
    if let Some(ctrl) = controllers.get_mut(req.master) {
        let st = ctrl.stats_mut();
        st.bus_transactions += 1;
        st.bus_ns += out.duration;
        st.aborts_suffered += u64::from(out.aborts);
    }
    out
}

impl Fabric {
    /// Assembles a fabric from a bus-line size, timing model and controllers.
    #[must_use]
    pub fn new(line_size: usize, timing: TimingConfig, controllers: Vec<CacheController>) -> Self {
        Fabric {
            bus: Futurebus::new(line_size, timing),
            controllers,
            line_size,
            tolerate: false,
            errors: Vec::new(),
            outgoing: Vec::new(),
        }
    }

    /// Switches between panicking on bus errors (the default — they indicate
    /// protocol bugs in clean runs) and degrading: logging the error and
    /// completing the access memory-direct, so a fault campaign records a
    /// *detected* error instead of aborting the whole process.
    pub fn tolerate_bus_errors(&mut self, on: bool) {
        self.tolerate = on;
    }

    /// Takes the bus errors survived since the last drain (tolerant mode).
    pub fn drain_bus_errors(&mut self) -> Vec<String> {
        std::mem::take(&mut self.errors)
    }

    /// The line size in bytes.
    #[must_use]
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Number of controllers attached.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.controllers.len()
    }

    /// The bus (stats, memory, trace).
    #[must_use]
    pub fn bus(&self) -> &Futurebus {
        &self.bus
    }

    /// Mutable bus access (preloading memory, enabling traces).
    pub fn bus_mut(&mut self) -> &mut Futurebus {
        &mut self.bus
    }

    /// A controller by index.
    #[must_use]
    pub fn controller(&self, cpu: usize) -> &CacheController {
        &self.controllers[cpu]
    }

    /// Mutable controller access.
    pub fn controller_mut(&mut self, cpu: usize) -> &mut CacheController {
        &mut self.controllers[cpu]
    }

    /// All controllers (for the oracle).
    #[must_use]
    pub fn controllers(&self) -> &[CacheController] {
        &self.controllers
    }

    /// Starts (or stops) logging, in every controller and in memory, the
    /// lines whose audited state changes — the incremental audit's input.
    pub(crate) fn track_changes(&mut self, on: bool) {
        self.bus.memory_mut().track_changes(on);
        for ctrl in &mut self.controllers {
            ctrl.track_changes(on);
        }
    }

    /// Moves every line changed since the last drain into `out`; true when
    /// some change was wholesale (a controller retired).
    pub(crate) fn drain_changes(&mut self, out: &mut Vec<u64>) -> bool {
        let mut wholesale = self.bus.memory_mut().drain_changes(out);
        for ctrl in &mut self.controllers {
            wholesale |= ctrl.drain_changes(out);
        }
        wholesale
    }

    /// The line-aligned address containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_size as u64 - 1)
    }

    /// The module index used for transactions issued by the fabric's owner
    /// itself (a bus bridge): one past the last controller, so every
    /// controller snoops.
    #[must_use]
    pub fn external_master(&self) -> usize {
        self.controllers.len()
    }

    /// Runs a transaction mastered by `cpu` (or by
    /// [`external_master`](Fabric::external_master)), updating that node's
    /// stats when it is a controller.
    ///
    /// # Panics
    ///
    /// Panics on bus errors — they indicate protocol bugs, not user error —
    /// unless [`tolerate_bus_errors`](Fabric::tolerate_bus_errors) is on, in
    /// which case the error is logged and the transaction completes
    /// memory-direct ([`Futurebus::execute_or_degrade`]).
    pub fn run_txn(&mut self, req: &TransactionRequest<'_>) -> TransactionOutcome<'_> {
        let log = self.tolerate.then_some(&mut self.errors);
        transact(&mut self.bus, &mut self.controllers, log, req)
    }

    /// Consults `cpu`'s protocol for `event` on `line`, treating a `—` cell
    /// (an [`moesi::IllegalCell`]) like a bus error: panic in strict mode —
    /// reaching an error-condition cell is a protocol bug — or, in tolerant
    /// mode, log it and return `None` so the caller degrades memory-direct.
    fn try_decide(&mut self, cpu: usize, line: u64, event: LocalEvent) -> Option<LocalAction> {
        match self.controllers[cpu].try_decide_local(line, event) {
            Ok(action) => Some(action),
            Err(e) if self.tolerate => {
                self.errors.push(format!("cpu {cpu}: {e}"));
                None
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Reads `len` bytes at `addr` for processor `cpu`, splitting line
    /// crossers (§5.1). [`Fabric::read_into`] into a fresh `Vec`.
    pub fn read(&mut self, cpu: usize, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(cpu, addr, len, &mut out);
        out
    }

    /// Reads `len` bytes at `addr` for processor `cpu`, splitting line
    /// crossers, and appends them to `out`. A caller that reuses `out` makes
    /// a read hit allocate nothing: the bytes are copied straight from the
    /// cache entry.
    pub fn read_into(&mut self, cpu: usize, addr: u64, len: usize, out: &mut Vec<u8>) {
        for (piece_addr, piece_len) in split_line_crossers(addr, len, self.line_size) {
            self.read_piece(cpu, piece_addr, piece_len, out);
        }
    }

    /// Writes `bytes` at `addr` for processor `cpu`, splitting line crossers.
    /// Calls `on_piece(line_addr, piece)` before each per-line write — the
    /// checker's serialisation hook.
    pub fn write_with<F: FnMut(u64, &[u8])>(
        &mut self,
        cpu: usize,
        addr: u64,
        bytes: &[u8],
        mut on_piece: F,
    ) {
        let mut cursor = 0;
        for (piece_addr, piece_len) in split_line_crossers(addr, bytes.len(), self.line_size) {
            let piece = &bytes[cursor..cursor + piece_len];
            cursor += piece_len;
            on_piece(piece_addr, piece);
            self.write_piece(cpu, piece_addr, piece);
        }
    }

    /// Pushes a dirty line to memory while keeping the copy (Table 1,
    /// note 3). No-op unless node `cpu` holds the line in an owned state.
    pub fn pass(&mut self, cpu: usize, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let state = self.controllers[cpu].state_of(line);
        if !state.is_owned() {
            return false;
        }
        let Some(action) = self.try_decide(cpu, line, LocalEvent::Pass) else {
            return false;
        };
        debug_assert_eq!(action.bus_op, BusOp::Write);
        self.copy_outgoing(cpu, line);
        let req = TransactionRequest::write(cpu, line, action.signals, 0, &self.outgoing);
        let log = self.tolerate.then_some(&mut self.errors);
        let out = transact(&mut self.bus, &mut self.controllers, log, &req);
        let result = action.result.resolve(out.ch_seen);
        self.controllers[cpu].apply_state(line, result);
        self.controllers[cpu].stats_mut().write_backs += 1;
        true
    }

    /// Flushes (pushes if dirty, then discards) the line containing `addr`
    /// from node `cpu`'s cache (Table 1, note 4). No-op when not resident.
    pub fn flush(&mut self, cpu: usize, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let state = self.controllers[cpu].state_of(line);
        if !state.is_valid() {
            return false;
        }
        let Some(action) = self.try_decide(cpu, line, LocalEvent::Flush) else {
            return false;
        };
        if action.bus_op == BusOp::Write {
            self.copy_outgoing(cpu, line);
            let req = TransactionRequest::write(cpu, line, action.signals, 0, &self.outgoing);
            let log = self.tolerate.then_some(&mut self.errors);
            transact(&mut self.bus, &mut self.controllers, log, &req);
            self.controllers[cpu].stats_mut().write_backs += 1;
        }
        self.controllers[cpu].apply_state(line, LineState::Invalid);
        true
    }

    /// Copies node `cpu`'s resident `line` into the outgoing buffer, as a pass
    /// or flush reads it (marking it most-recently-used).
    fn copy_outgoing(&mut self, cpu: usize, line: u64) {
        let bytes = self.controllers[cpu]
            .read_cached(line, self.line_size)
            .expect("a pushed line is resident");
        self.outgoing.clear();
        self.outgoing.extend_from_slice(bytes);
    }

    /// [`Fabric::read`] without materialising the bytes: the event engine's
    /// hot path for workload driving, where the caller discards the data
    /// anyway. Stats, LRU recency, cache state, memory image and bus traffic
    /// are byte-identical to [`Fabric::read`] — the only difference is that
    /// no `Vec` is built for the result and a hit copies nothing.
    pub fn read_dataless(&mut self, cpu: usize, addr: u64, len: usize) {
        let line = self.line_addr(addr);
        // Single-line accesses (the overwhelmingly common case) skip the
        // crosser split entirely.
        if addr - line + len as u64 <= self.line_size as u64 {
            self.read_piece_dataless(cpu, addr, len);
            return;
        }
        for (piece_addr, piece_len) in split_line_crossers(addr, len, self.line_size) {
            self.read_piece_dataless(cpu, piece_addr, piece_len);
        }
    }

    /// [`Fabric::write_with`] without the serialisation hook, with the
    /// single-line case short-circuited: the event engine's hot path when no
    /// checker is recording writes. Byte-identical side effects.
    pub fn write_fast(&mut self, cpu: usize, addr: u64, bytes: &[u8]) {
        let line = self.line_addr(addr);
        if addr - line + bytes.len() as u64 <= self.line_size as u64 {
            self.write_piece(cpu, addr, bytes);
            return;
        }
        self.write_with(cpu, addr, bytes, |_, _| {});
    }

    fn read_piece_dataless(&mut self, cpu: usize, addr: u64, len: usize) {
        let _ = len;
        let ctrl = &mut self.controllers[cpu];
        ctrl.stats_mut().reads += 1;
        // Single-pass hit probe: same residency check and LRU effect as the
        // copying hit path, minus the copy and the second tag scan.
        if ctrl.probe_touch(addr) {
            ctrl.stats_mut().read_hits += 1;
            return;
        }
        let line = self.line_addr(addr);
        let Some(action) = self.try_decide(cpu, line, LocalEvent::Read) else {
            // Degraded: the copying path serves from memory without caching;
            // with nobody consuming the bytes there is nothing to do.
            return;
        };
        self.execute_read_action(cpu, line, &action, None);
    }

    fn read_piece(&mut self, cpu: usize, addr: u64, len: usize, out: &mut Vec<u8>) {
        let ctrl = &mut self.controllers[cpu];
        ctrl.stats_mut().reads += 1;
        // Resident lines are always valid, so residency decides the hit.
        if let Some(bytes) = ctrl.read_cached(addr, len) {
            out.extend_from_slice(bytes);
            ctrl.stats_mut().read_hits += 1;
            return;
        }
        let line = self.line_addr(addr);
        let offset = (addr - line) as usize;
        let range = offset..offset + len;
        let Some(action) = self.try_decide(cpu, line, LocalEvent::Read) else {
            // Degraded: serve from memory without caching the line.
            out.extend_from_slice(&self.bus.memory().peek(line)[range]);
            return;
        };
        self.execute_read_action(cpu, line, &action, Some((out, range)));
    }

    /// Runs a read-typed local action (a miss): the bus read, the fill, and
    /// any victim write-back. The fill copies the line the bus lends; when
    /// `copy` names a buffer, the bytes at its range within the line are
    /// appended to it first, straight from the bus line buffer. (Copying out
    /// of the cache afterwards would be wrong: under faults, the victim
    /// write-back can invalidate the filled line, e.g. when a snooper killed
    /// mid-transaction loses it.)
    fn execute_read_action(
        &mut self,
        cpu: usize,
        line: u64,
        action: &LocalAction,
        copy: Option<(&mut Vec<u8>, Range<usize>)>,
    ) {
        debug_assert_eq!(action.bus_op, BusOp::Read, "read path expects an R action");
        let req = TransactionRequest::read(cpu, line, action.signals);
        let log = self.tolerate.then_some(&mut self.errors);
        let out = transact(&mut self.bus, &mut self.controllers, log, &req);
        let data = out.data.expect("reads return data");
        if let Some((buf, range)) = copy {
            buf.extend_from_slice(&data[range]);
        }
        let result = action.result.resolve(out.ch_seen);
        if result.is_valid() {
            if let Some(v) = self.controllers[cpu].fill(line, result, data, &mut self.outgoing) {
                self.write_back_victim(cpu, v);
            }
        }
    }

    /// Writes back a victim whose bytes are in the outgoing buffer.
    fn write_back_victim(&mut self, cpu: usize, victim: Victim<LineState>) {
        if !victim.state.is_owned() {
            return; // clean victims are dropped silently
        }
        let action = match self.controllers[cpu].try_decide_for(victim.state, LocalEvent::Flush) {
            Ok(action) => action,
            Err(e) if self.tolerate => {
                // Degraded: push the dirty data memory-direct so it survives.
                self.errors.push(format!("cpu {cpu}: {e}"));
                self.bus
                    .memory_mut()
                    .write_bytes(victim.addr, 0, &self.outgoing);
                return;
            }
            Err(e) => panic!("{e}"),
        };
        debug_assert_eq!(action.bus_op, BusOp::Write, "dirty victims must write back");
        let req = TransactionRequest::write(cpu, victim.addr, action.signals, 0, &self.outgoing);
        let log = self.tolerate.then_some(&mut self.errors);
        transact(&mut self.bus, &mut self.controllers, log, &req);
        self.controllers[cpu].stats_mut().write_backs += 1;
    }

    fn write_piece(&mut self, cpu: usize, addr: u64, bytes: &[u8]) {
        self.controllers[cpu].stats_mut().writes += 1;
        let line = self.line_addr(addr);
        if self.controllers[cpu].state_of(line).is_valid() {
            self.controllers[cpu].stats_mut().write_hits += 1;
        }
        self.write_piece_inner(cpu, addr, bytes);
    }

    fn write_piece_inner(&mut self, cpu: usize, addr: u64, bytes: &[u8]) {
        let line = self.line_addr(addr);
        let offset = (addr - line) as usize;
        let Some(action) = self.try_decide(cpu, line, LocalEvent::Write) else {
            // Degraded: absorb the write into memory, bypassing the cache.
            self.bus.memory_mut().write_bytes(line, offset, bytes);
            return;
        };
        match action.bus_op {
            // A silent write: M stays M, E upgrades to M.
            BusOp::None => {
                let ok = self.controllers[cpu].write_cached(addr, bytes);
                assert!(ok, "silent write requires a resident line");
                self.controllers[cpu].apply_state(line, action.result.resolve(false));
            }
            // Write-through, broadcast update, or write-past.
            BusOp::Write => {
                let req = TransactionRequest::write(cpu, line, action.signals, offset, bytes);
                let out = self.run_txn(&req);
                let result = action.result.resolve(out.ch_seen);
                if self.controllers[cpu].write_cached(addr, bytes) {
                    self.controllers[cpu].apply_state(line, result);
                }
            }
            // Address-only invalidate, then write locally (O/S → M).
            BusOp::AddressOnly => {
                let req = TransactionRequest::address_only(cpu, line, action.signals);
                let out = self.run_txn(&req);
                let result = action.result.resolve(out.ch_seen);
                let ok = self.controllers[cpu].write_cached(addr, bytes);
                assert!(ok, "invalidate-write requires a resident line");
                self.controllers[cpu].apply_state(line, result);
            }
            // Read-for-modify: one transaction reads the line and invalidates
            // other copies, then the write happens locally.
            BusOp::Read => {
                self.execute_read_action(cpu, line, &action, None);
                let ok = self.controllers[cpu].write_cached(addr, bytes);
                assert!(ok, "read-for-modify must have filled the line");
            }
            // Two transactions: a read per the protocol's I/Read row, then
            // the write is re-decided from the new state.
            BusOp::ReadThenWrite => {
                let Some(read_action) = self.try_decide(cpu, line, LocalEvent::Read) else {
                    self.bus.memory_mut().write_bytes(line, offset, bytes);
                    return;
                };
                self.execute_read_action(cpu, line, &read_action, None);
                self.write_piece_inner(cpu, addr, bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_array::{CacheConfig, ReplacementKind};
    use moesi::protocols::MoesiPreferred;
    use moesi::MasterSignals;

    fn fabric(n: usize) -> Fabric {
        let cfg = CacheConfig::new(1024, 32, 2, ReplacementKind::Lru);
        let controllers = (0..n)
            .map(|id| CacheController::new(id, Box::new(MoesiPreferred::new()), Some(cfg), 1))
            .collect();
        Fabric::new(32, TimingConfig::default(), controllers)
    }

    #[test]
    fn external_master_snoops_everyone() {
        let mut f = fabric(2);
        f.write_with(0, 0x100, &[7; 4], |_, _| {});
        assert_eq!(f.controller(0).state_of(0x100), LineState::Modified);
        // An external (bridge) read demotes the owner and extracts the line.
        let req = TransactionRequest::read(f.external_master(), 0x100, MasterSignals::CA);
        let out = f.run_txn(&req);
        assert_eq!(&out.data.unwrap()[..4], &[7; 4]);
        assert!(out.ch_seen);
        assert_eq!(f.controller(0).state_of(0x100), LineState::Owned);
    }

    #[test]
    fn external_invalidate_clears_all_copies() {
        let mut f = fabric(3);
        let _ = f.read(0, 0x100, 4);
        let _ = f.read(1, 0x100, 4);
        let master = f.external_master();
        let req = TransactionRequest::address_only(master, 0x100, MasterSignals::CA_IM);
        assert_eq!(f.run_txn(&req).aborts, 0);
        for cpu in 0..3 {
            assert_eq!(f.controller(cpu).state_of(0x100), LineState::Invalid);
        }
    }

    #[test]
    fn external_broadcast_write_updates_copies_and_memory() {
        let mut f = fabric(2);
        let _ = f.read(0, 0x100, 4);
        let _ = f.read(1, 0x100, 4);
        let master = f.external_master();
        f.run_txn(&TransactionRequest::write(
            master,
            0x100,
            MasterSignals::IM_BC,
            0,
            &[9; 4],
        ));
        assert_eq!(f.read(0, 0x100, 4), vec![9; 4]);
        assert_eq!(f.read(1, 0x100, 4), vec![9; 4]);
        assert_eq!(&f.bus().memory().peek(0x100)[..4], &[9; 4]);
    }

    #[test]
    fn tolerated_bus_errors_degrade_to_memory_instead_of_panicking() {
        use futurebus::fault::{FaultConfig, FaultPlan};
        let mut f = fabric(2);
        f.bus_mut().memory_mut().write_bytes(0x100, 0, &[7; 4]);
        f.tolerate_bus_errors(true);
        // A full-rate abort storm outlasting the 16-round retry policy makes
        // every transaction fail with TooManyRetries, deterministically.
        f.bus_mut().inject_faults(FaultPlan::new(FaultConfig {
            storm_rate: 1.0,
            max_storm_rounds: 32,
            ..FaultConfig::default()
        }));
        assert_eq!(f.read(0, 0x100, 4), vec![7; 4], "memory-direct fallback");
        f.write_with(1, 0x200, &[9; 4], |_, _| {});
        assert_eq!(f.read(1, 0x200, 4), vec![9; 4]);
        let errors = f.drain_bus_errors();
        assert!(!errors.is_empty());
        assert!(errors[0].contains("aborted"), "{errors:?}");
        assert!(f.drain_bus_errors().is_empty(), "drain empties the log");
    }

    #[test]
    #[should_panic(expected = "bus error")]
    fn untolerated_bus_errors_still_panic() {
        use futurebus::fault::{FaultConfig, FaultPlan};
        let mut f = fabric(1);
        f.bus_mut().inject_faults(FaultPlan::new(FaultConfig {
            storm_rate: 1.0,
            max_storm_rounds: 32,
            ..FaultConfig::default()
        }));
        let _ = f.read(0, 0x100, 4);
    }

    /// A preferred table with the whole Invalid row blown away: every miss
    /// lands on a `—` cell. Stands in for a corrupted or mis-built policy.
    fn holey_fabric() -> Fabric {
        use moesi::{CacheKind, PolicyTable, TablePolicy};
        let mut table = PolicyTable::preferred("holey", CacheKind::CopyBack);
        table.clear_state(LineState::Invalid);
        let cfg = CacheConfig::new(1024, 32, 2, ReplacementKind::Lru);
        let ctrl = CacheController::new(0, Box::new(TablePolicy::new(table)), Some(cfg), 1);
        Fabric::new(32, TimingConfig::default(), vec![ctrl])
    }

    #[test]
    fn tolerated_illegal_cells_degrade_to_memory_instead_of_panicking() {
        let mut f = holey_fabric();
        f.bus_mut().memory_mut().write_bytes(0x100, 0, &[7; 4]);
        f.tolerate_bus_errors(true);
        assert_eq!(f.read(0, 0x100, 4), vec![7; 4], "memory-direct read");
        f.write_with(0, 0x200, &[9; 4], |_, _| {});
        assert_eq!(f.read(0, 0x200, 4), vec![9; 4], "memory absorbed the write");
        let errors = f.drain_bus_errors();
        assert!(errors.len() >= 2, "{errors:?}");
        assert!(errors[0].contains("no action"), "{errors:?}");
        assert_eq!(
            f.controller(0).state_of(0x100),
            LineState::Invalid,
            "degraded accesses must not cache the line"
        );
    }

    #[test]
    #[should_panic(expected = "no action")]
    fn untolerated_illegal_cells_still_panic() {
        let mut f = holey_fabric();
        let _ = f.read(0, 0x100, 4);
    }

    #[test]
    fn write_with_hook_sees_each_piece() {
        let mut f = fabric(1);
        let mut pieces = Vec::new();
        let bytes: Vec<u8> = (0..40).collect();
        f.write_with(0, 0x100 - 8, &bytes, |addr, piece| {
            pieces.push((addr, piece.len()));
        });
        assert_eq!(pieces, vec![(0x100 - 8, 8), (0x100, 32)]);
    }
}
