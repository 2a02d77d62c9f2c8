//! The access engine of every bus with caches on it: one Futurebus plus its
//! attached controllers, and the master-side sequencing that turns processor
//! accesses into protocol consultations and bus transactions.
//!
//! `Fabric` is deliberately oracle-free and workload-free — it is the
//! machine, not the experiment. A [`System`](crate::System) whose root is a
//! leaf wraps one with the consistency checker; a
//! [`Bridge`](crate::hierarchy::Bridge) fronts one with a cluster directory.

use cache_array::{split_line_crossers, Victim};
use futurebus::{ChangeLog, Futurebus, TimingConfig, TransactionOutcome, TransactionRequest};
use moesi::{BusOp, LineState, LocalAction, LocalEvent};
use std::fmt;
use std::ops::Range;

use crate::controller::{CacheController, Held};

/// The read sink that ignores the bytes: a read that only drives the
/// machine.
pub(crate) fn discard(_: &[u8]) {}

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

    /// Logs in `log` (none for `None`), from every controller and memory,
    /// the lines whose audited state changes — the incremental audit's
    /// input.
    pub(crate) fn track_changes(&mut self, log: Option<&ChangeLog>) {
        self.bus.memory_mut().track_changes(log);
        for ctrl in &mut self.controllers {
            ctrl.track_changes(log);
        }
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

    /// Reports a table-driven fault at `cpu` like a bus error: a panic in
    /// strict mode — a protocol bug put it there — or, in tolerant mode, a
    /// logged error after which the caller degrades memory-direct.
    fn fault(&mut self, cpu: usize, what: impl fmt::Display) {
        if !self.tolerate {
            panic!("{what}");
        }
        self.errors.push(format!("cpu {cpu}: {what}"));
    }

    /// Consults `cpu`'s protocol for `event` on `line`, which `held` says
    /// how the node holds; a `—` cell (an [`moesi::IllegalCell`]) is a
    /// [`fault`](Fabric::fault), and `None`.
    fn try_decide(
        &mut self,
        cpu: usize,
        line: u64,
        held: Option<Held>,
        event: LocalEvent,
    ) -> Option<LocalAction> {
        match self.controllers[cpu].try_decide_held(line, held, event) {
            Ok(action) => Some(action),
            Err(e) => {
                self.fault(cpu, e);
                None
            }
        }
    }

    /// [`try_decide`](Fabric::try_decide) for a read miss, whose action must
    /// be a bus read; any other is a fault.
    fn decide_read(&mut self, cpu: usize, line: u64, held: Option<Held>) -> Option<LocalAction> {
        let action = self.try_decide(cpu, line, held, LocalEvent::Read)?;
        if action.bus_op != BusOp::Read {
            let what = format!("read miss on {line:#x} chose `{action}`, not a bus read");
            self.fault(cpu, what);
            return None;
        }
        Some(action)
    }

    /// Reads `len` bytes at `addr` for processor `cpu`, splitting line
    /// crossers (§5.1), into a fresh `Vec`.
    pub fn read(&mut self, cpu: usize, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(cpu, addr, len, &mut |bytes: &[u8]| {
            out.extend_from_slice(bytes)
        });
        out
    }

    /// Reads `len` bytes at `addr` for processor `cpu`, splitting line
    /// crossers (§5.1), and lends each line's piece to `sink` where it
    /// lands: in the cache line on a hit, in the bus line buffer on a miss
    /// (before any victim write-back), in memory when the read degrades. A
    /// sink that ignores the bytes ([`discard`]) makes a hit one tag scan and
    /// an LRU touch, with nothing copied.
    pub(crate) fn read_into(
        &mut self,
        cpu: usize,
        addr: u64,
        len: usize,
        sink: &mut impl FnMut(&[u8]),
    ) {
        let line = self.line_addr(addr);
        // Single-line accesses (the overwhelmingly common case) skip the
        // crosser split entirely.
        if addr - line + len as u64 <= self.line_size as u64 {
            self.read_piece(cpu, addr, len, sink);
            return;
        }
        for (piece_addr, piece_len) in split_line_crossers(addr, len, self.line_size) {
            self.read_piece(cpu, piece_addr, piece_len, sink);
        }
    }

    /// Pushes a dirty line to memory while keeping the copy (Table 1,
    /// note 3). No-op unless node `cpu` holds the line in an owned state.
    pub fn pass(&mut self, cpu: usize, addr: u64) -> bool {
        let line = self.line_addr(addr);
        let held = self.controllers[cpu].held(line);
        if !held.is_some_and(|h| h.state.is_owned()) {
            return false;
        }
        let Some(action) = self.try_decide(cpu, line, held, LocalEvent::Pass) else {
            return false;
        };
        // Every permitted pass pushes; an action without a bus write (a
        // corrupted table's) only changes state, as a silent flush does.
        let mut ch_seen = false;
        if action.bus_op == BusOp::Write {
            self.copy_outgoing(cpu, line);
            let req = TransactionRequest::write(cpu, line, action.signals, 0, &self.outgoing);
            let log = self.tolerate.then_some(&mut self.errors);
            ch_seen = transact(&mut self.bus, &mut self.controllers, log, &req).ch_seen;
            self.controllers[cpu].stats_mut().write_backs += 1;
        }
        self.controllers[cpu].apply_state(line, action.result.resolve(ch_seen));
        true
    }

    /// Flushes (pushes if dirty, then discards) the line containing `addr`
    /// from node `cpu`'s cache (Table 1, note 4). No-op when not resident.
    pub fn flush(&mut self, cpu: usize, addr: u64) -> bool {
        let line = self.line_addr(addr);
        // Resident lines are always valid.
        let held = self.controllers[cpu].held(line);
        if held.is_none() {
            return false;
        }
        let Some(action) = self.try_decide(cpu, line, held, LocalEvent::Flush) else {
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

    /// Passes `line` from whichever cache owns it; false when none does.
    pub(crate) fn pass_owner(&mut self, line: u64) -> bool {
        let owner = (0..self.nodes()).find(|&cpu| self.controllers[cpu].state_of(line).is_owned());
        owner.is_some_and(|cpu| self.pass(cpu, line))
    }

    /// §6's consistency command on this bus: every owned line, in cache
    /// order, is passed by its owner, so memory holds the whole shared
    /// image. Returns the lines pushed.
    pub(crate) fn push_owned(&mut self) -> usize {
        // Collect first: pushing changes the caches' states, not residency.
        let owned: Vec<u64> = self
            .controllers
            .iter()
            .filter_map(CacheController::cache)
            .flat_map(|cache| {
                cache
                    .iter()
                    .filter(|(_, e)| e.state.is_owned())
                    .map(|(addr, _)| addr)
            })
            .collect();
        owned
            .into_iter()
            .filter(|&line| self.pass_owner(line))
            .count()
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

    /// Writes `bytes` at `addr` for processor `cpu`, splitting line crossers,
    /// with the single-line case short-circuited. An oracle records the
    /// whole write before it is issued
    /// ([`Checker::record_write`](crate::Checker::record_write)).
    pub fn write_fast(&mut self, cpu: usize, addr: u64, bytes: &[u8]) {
        let line = self.line_addr(addr);
        if addr - line + bytes.len() as u64 <= self.line_size as u64 {
            self.write_piece(cpu, addr, bytes);
            return;
        }
        let mut cursor = 0;
        for (piece_addr, piece_len) in split_line_crossers(addr, bytes.len(), self.line_size) {
            self.write_piece(cpu, piece_addr, &bytes[cursor..cursor + piece_len]);
            cursor += piece_len;
        }
    }

    fn read_piece(&mut self, cpu: usize, addr: u64, len: usize, sink: &mut impl FnMut(&[u8])) {
        let ctrl = &mut self.controllers[cpu];
        ctrl.stats_mut().reads += 1;
        // Resident lines are always valid, so residency decides the hit.
        if let Some(bytes) = ctrl.read_cached(addr, len) {
            sink(bytes);
            ctrl.stats_mut().read_hits += 1;
            return;
        }
        let line = self.line_addr(addr);
        let offset = (addr - line) as usize;
        let range = offset..offset + len;
        // The hit path just missed, so the line is not held.
        let Some(action) = self.decide_read(cpu, line, None) else {
            // Degraded: serve from memory without caching the line.
            sink(&self.bus.memory().peek(line)[range]);
            return;
        };
        self.execute_read_action(cpu, line, &action, sink, range);
    }

    /// Runs a read-typed local action (a miss): the bus read, the fill, and
    /// any victim write-back. The fill copies the line the bus lends; the
    /// bytes at `range` within it go to `sink` first, straight from the bus
    /// line buffer. (Reading the cache afterwards would be wrong: under
    /// faults, the victim write-back can invalidate the filled line, e.g.
    /// when a snooper killed mid-transaction loses it.)
    fn execute_read_action(
        &mut self,
        cpu: usize,
        line: u64,
        action: &LocalAction,
        sink: &mut impl FnMut(&[u8]),
        range: Range<usize>,
    ) {
        debug_assert_eq!(action.bus_op, BusOp::Read, "read path expects an R action");
        let req = TransactionRequest::read(cpu, line, action.signals);
        let log = self.tolerate.then_some(&mut self.errors);
        let out = transact(&mut self.bus, &mut self.controllers, log, &req);
        let data = out.data.expect("reads return data");
        sink(&data[range]);
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
            Err(e) => {
                // Degraded: push the dirty data memory-direct so it survives.
                self.fault(cpu, e);
                self.bus
                    .memory_mut()
                    .write_bytes(victim.addr, 0, &self.outgoing);
                return;
            }
        };
        if action.bus_op != BusOp::Write {
            return; // a corrupted table's silent flush drops the data, as in flush
        }
        let req = TransactionRequest::write(cpu, victim.addr, action.signals, 0, &self.outgoing);
        let log = self.tolerate.then_some(&mut self.errors);
        transact(&mut self.bus, &mut self.controllers, log, &req);
        self.controllers[cpu].stats_mut().write_backs += 1;
    }

    fn write_piece(&mut self, cpu: usize, addr: u64, bytes: &[u8]) {
        let line = self.line_addr(addr);
        let ctrl = &mut self.controllers[cpu];
        // One tag scan finds the line for the hit count, the decision and
        // the write; resident lines are always valid.
        let held = ctrl.held(line);
        let stats = ctrl.stats_mut();
        stats.writes += 1;
        if held.is_some() {
            stats.write_hits += 1;
        }
        self.write_piece_inner(cpu, addr, bytes, held, false);
    }

    /// Writes `bytes` into the line at `addr` that `held` found, setting its
    /// state to `state` in the same step; a line the action should have left
    /// resident but did not is a fault `what`, and the write goes
    /// memory-direct.
    fn write_held(
        &mut self,
        cpu: usize,
        held: Option<Held>,
        addr: u64,
        bytes: &[u8],
        state: LineState,
        what: &str,
    ) {
        if !self.controllers[cpu].write_held(held, addr, bytes, state) {
            self.fault(cpu, format_args!("{what} needs line {addr:#x} resident"));
            let line = self.line_addr(addr);
            let offset = (addr - line) as usize;
            self.bus.memory_mut().write_bytes(line, offset, bytes);
        }
    }

    /// One write decision on the line as `held` found it; `redecided` marks
    /// the re-decision after a `Read>Write` cell's read, which must not be
    /// `Read>Write` again.
    fn write_piece_inner(
        &mut self,
        cpu: usize,
        addr: u64,
        bytes: &[u8],
        held: Option<Held>,
        redecided: bool,
    ) {
        let line = self.line_addr(addr);
        let offset = (addr - line) as usize;
        let Some(action) = self.try_decide(cpu, line, held, LocalEvent::Write) else {
            // Degraded: absorb the write into memory, bypassing the cache.
            self.bus.memory_mut().write_bytes(line, offset, bytes);
            return;
        };
        match action.bus_op {
            // A silent write: M stays M, E upgrades to M.
            BusOp::None => {
                let result = action.result.resolve(false);
                self.write_held(cpu, held, addr, bytes, result, "a silent write");
            }
            // Write-through, broadcast update, or write-past. The master's
            // own transaction leaves its copy where it was (a fault that
            // drops it is caught by the slot's check), so the write that
            // follows scans nothing.
            BusOp::Write => {
                let req = TransactionRequest::write(cpu, line, action.signals, offset, bytes);
                let out = self.run_txn(&req);
                let result = action.result.resolve(out.ch_seen);
                self.controllers[cpu].write_held(held, addr, bytes, result);
            }
            // Address-only invalidate, then write locally (O/S → M).
            BusOp::AddressOnly => {
                let req = TransactionRequest::address_only(cpu, line, action.signals);
                let out = self.run_txn(&req);
                let result = action.result.resolve(out.ch_seen);
                self.write_held(cpu, held, addr, bytes, result, "an invalidate-write");
            }
            // Read-for-modify: one transaction reads the line and invalidates
            // other copies, then the write happens locally.
            BusOp::Read => {
                self.execute_read_action(cpu, line, &action, &mut discard, 0..0);
                let held = self.controllers[cpu].held(line);
                let state = held.map_or(LineState::Invalid, |h| h.state);
                self.write_held(cpu, held, addr, bytes, state, "a read-for-modify");
            }
            // Two transactions: a read per the protocol's I/Read row, then
            // the write is re-decided from the new state.
            BusOp::ReadThenWrite => {
                let read_action = if redecided {
                    self.fault(cpu, "a re-decided write chose `Read>Write` again");
                    None
                } else {
                    self.decide_read(cpu, line, held)
                };
                let Some(read_action) = read_action else {
                    self.bus.memory_mut().write_bytes(line, offset, bytes);
                    return;
                };
                self.execute_read_action(cpu, line, &read_action, &mut discard, 0..0);
                let held = self.controllers[cpu].held(line);
                self.write_piece_inner(cpu, addr, bytes, held, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_array::{CacheConfig, ReplacementKind};
    use moesi::protocols::moesi_preferred;
    use moesi::MasterSignals;

    fn fabric(n: usize) -> Fabric {
        let cfg = CacheConfig::new(1024, 32, 2, ReplacementKind::Lru);
        let controllers = (0..n)
            .map(|id| CacheController::new(id, Box::new(moesi_preferred()), Some(cfg), 1))
            .collect();
        Fabric::new(32, TimingConfig::default(), controllers)
    }

    #[test]
    fn external_master_snoops_everyone() {
        let mut f = fabric(2);
        f.write_fast(0, 0x100, &[7; 4]);
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
    fn a_write_hit_and_a_snooper_commit_log_their_line() {
        // Each change below goes through one logging point only: a silent
        // write hit through the writer's one-step write, and an external
        // read's demotion through the snooper's commit (intervention leaves
        // memory alone).
        let mut f = fabric(2);
        let log = ChangeLog::default();
        f.track_changes(Some(&log));
        let mut lines = Vec::new();
        f.write_fast(0, 0x100, &[7; 4]);
        assert_eq!(f.controller(0).state_of(0x100), LineState::Modified);
        log.drain_into(&mut lines);
        lines.clear();

        f.write_fast(0, 0x104, &[8; 4]);
        assert!(!log.drain_into(&mut lines));
        assert_eq!(lines, [0x100], "the silent write hit");
        lines.clear();

        let req = TransactionRequest::read(f.external_master(), 0x100, MasterSignals::CA);
        f.run_txn(&req);
        assert_eq!(f.controller(0).state_of(0x100), LineState::Owned);
        assert!(!log.drain_into(&mut lines));
        assert_eq!(lines, [0x100], "the snooper's commit");
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
        f.write_fast(1, 0x200, &[9; 4]);
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
        f.write_fast(0, 0x200, &[9; 4]);
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

    /// A tolerant one-module fabric over the preferred table with the `(I,
    /// event)` cells rewritten to `cells` — table entries the fabric cannot
    /// execute as written.
    fn corrupted(cells: &[(LocalEvent, LocalAction)]) -> Fabric {
        use moesi::{CacheKind, PolicyTable, TablePolicy};
        let mut table = PolicyTable::preferred("corrupted", CacheKind::CopyBack);
        for &(event, action) in cells {
            table.set_local_unchecked(LineState::Invalid, event, action);
        }
        let cfg = CacheConfig::new(1024, 32, 2, ReplacementKind::Lru);
        let ctrl = CacheController::new(0, Box::new(TablePolicy::new(table)), Some(cfg), 1);
        let mut f = Fabric::new(32, TimingConfig::default(), vec![ctrl]);
        f.tolerate_bus_errors(true);
        f
    }

    /// Writes `[9; 4]` at 0x200 on `f`: the write must land in memory, the
    /// line must stay uncached, and one error naming `what` is logged.
    fn assert_write_degrades(mut f: Fabric, what: &str) {
        f.write_fast(0, 0x200, &[9; 4]);
        assert_eq!(&f.bus().memory().peek(0x200)[..4], &[9; 4], "memory-direct");
        assert_eq!(f.controller(0).state_of(0x200), LineState::Invalid);
        let errors = f.drain_bus_errors();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains(what), "{errors:?}");
    }

    #[test]
    fn a_silent_or_invalidate_write_to_a_missing_line_degrades_to_memory() {
        use moesi::MasterSignals;
        let silent = LocalAction::silent(LineState::Modified);
        assert_write_degrades(
            corrupted(&[(LocalEvent::Write, silent)]),
            "silent write needs line 0x200 resident",
        );
        let invalidate = LocalAction::new(
            LineState::Modified,
            MasterSignals::CA_IM,
            BusOp::AddressOnly,
        );
        assert_write_degrades(
            corrupted(&[(LocalEvent::Write, invalidate)]),
            "invalidate-write needs line 0x200 resident",
        );
    }

    #[test]
    fn a_read_for_modify_that_leaves_the_line_unfilled_degrades_to_memory() {
        use moesi::{MasterSignals, ResultState};
        let unfilled = LocalAction::new(
            ResultState::Fixed(LineState::Invalid),
            MasterSignals::CA_IM,
            BusOp::Read,
        );
        assert_write_degrades(
            corrupted(&[(LocalEvent::Write, unfilled)]),
            "read-for-modify needs line 0x200 resident",
        );
    }

    #[test]
    fn a_read_miss_that_is_not_a_bus_read_degrades_to_memory() {
        let silent = LocalAction::silent(LineState::Modified);
        let mut f = corrupted(&[(LocalEvent::Read, silent)]);
        f.bus_mut().memory_mut().write_bytes(0x100, 0, &[7; 4]);
        assert_eq!(f.read(0, 0x100, 4), vec![7; 4], "memory-direct read");
        f.read_into(0, 0x100, 4, &mut discard);
        assert_eq!(f.controller(0).state_of(0x100), LineState::Invalid);
        let errors = f.drain_bus_errors();
        assert_eq!(errors.len(), 2, "every read reports it: {errors:?}");
        assert!(errors[0].contains("not a bus read"), "{errors:?}");
    }

    #[test]
    #[should_panic(expected = "not a bus read")]
    fn an_untolerated_read_miss_that_is_not_a_bus_read_still_panics() {
        let silent = LocalAction::silent(LineState::Modified);
        let mut f = corrupted(&[(LocalEvent::Read, silent)]);
        f.tolerate_bus_errors(false);
        let _ = f.read(0, 0x100, 4);
    }

    #[test]
    fn a_read_then_write_that_never_fills_is_redecided_once() {
        use moesi::{MasterSignals, ResultState};
        // The read half leaves the line Invalid, so the re-decided write is
        // `Read>Write` again; the fabric stops there instead of recursing.
        let no_fill = LocalAction::new(
            ResultState::Fixed(LineState::Invalid),
            MasterSignals::CA,
            BusOp::Read,
        );
        let f = corrupted(&[
            (LocalEvent::Write, LocalAction::read_then_write()),
            (LocalEvent::Read, no_fill),
        ]);
        assert_write_degrades(f, "chose `Read>Write` again");
    }

    #[test]
    fn a_pass_without_a_bus_write_only_changes_state() {
        use moesi::{CacheKind, PolicyTable, TablePolicy};
        // A corrupted (O, Pass) cell: claim M silently instead of pushing.
        let mut table = PolicyTable::preferred("corrupted", CacheKind::CopyBack);
        table.set_local_unchecked(
            LineState::Owned,
            LocalEvent::Pass,
            LocalAction::silent(LineState::Modified),
        );
        let mut f = fabric(2);
        *f.controller_mut(0) = CacheController::new(
            0,
            Box::new(TablePolicy::new(table)),
            Some(CacheConfig::new(1024, 32, 2, ReplacementKind::Lru)),
            1,
        );
        f.write_fast(0, 0x100, &[7; 4]);
        let _ = f.read(1, 0x100, 4);
        assert_eq!(f.controller(0).state_of(0x100), LineState::Owned);
        let txns = f.bus().stats().transactions;
        assert!(f.pass(0, 0x100));
        assert_eq!(f.bus().stats().transactions, txns, "no bus transaction");
        // The pass took M while cpu1 still shares the line: the oracle's
        // exclusivity invariant is what catches such a table.
        assert_eq!(f.controller(0).state_of(0x100), LineState::Modified);
        assert_eq!(f.controller(1).state_of(0x100), LineState::Shareable);
    }

    #[test]
    fn a_line_crossing_write_lands_in_both_lines() {
        let mut f = fabric(1);
        let bytes: Vec<u8> = (0..40).collect();
        f.write_fast(0, 0x100 - 8, &bytes);
        assert_eq!(f.read(0, 0x100 - 8, 40), bytes);
        assert!(f.controller(0).state_of(0x100 - 32).is_valid());
        assert!(f.controller(0).state_of(0x100).is_valid());
    }
}
