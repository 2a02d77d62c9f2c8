//! The Futurebus transaction engine.
//!
//! [`Futurebus::execute`] runs one transaction end-to-end in one straight
//! pass through the explicit phase pipeline of [`crate::phases`] —
//! `Arbitrate → AddressBroadcast → SnoopResolve → AbortBackoff →
//! DataTransfer → Commit`, mirroring the paper's staged
//! handshake: the broadcast address cycle (every attached module snoops,
//! §2.1), wired-OR combination of the response lines, BS abort-push-restart
//! for the adapted protocols, the data phase (memory, or an intervening
//! owner preempting it), and the completion phase in which every snooper
//! commits its state transition with the resolved CH observation.
//!
//! Memory-update semantics follow the paper exactly:
//!
//! * a **read** is served by the DI owner if one responds, else by memory;
//!   intervention does *not* update memory (that limitation is why Write-Once,
//!   Illinois and Firefly need BS, §4.3–4.5);
//! * a **non-broadcast write** is captured by the DI owner if one responds
//!   (memory preempted), else absorbed by memory;
//! * a **broadcast write** updates main memory *and* every SL-connected cache
//!   (§4.2: "when a broadcast write is done on the Futurebus, it affects all
//!   caches holding the line and also main memory");
//! * an **address-only** transaction moves no data.
//!
//! The engine also carries the recovery machinery that makes the class
//! degrade gracefully under faulty hardware (see [`fault`](crate::fault)):
//! BS aborts retry under a capped exponential [`RetryPolicy`] instead of a
//! bare cutoff, consistency-line glitches are absorbed by the wired-OR settle
//! window at a 25 ns cost, and a watchdog times out a non-responding snooper
//! and retires it from the snoop set — it is treated thereafter as a
//! non-caching processor, which the class explicitly supports (§3.3).

use crate::arbitration::{below, Arbitration, Discipline};
use crate::fault::{FaultPlan, TxnFaults};
use crate::memory::SparseMemory;
use crate::module::BusModule;
use crate::observe::{LatencyHistogram, LivenessMonitor, PhaseHistograms, TxnPhases};
use crate::phases::TxnContext;
use crate::stats::BusStats;
use crate::timing::{Nanos, TimingConfig};
use crate::trace::{BusTrace, TraceKind};
use crate::transaction::{
    BusError, DataSource, TransactionKind, TransactionOutcome, TransactionRequest,
};
use moesi::ResponseSignals;
use std::collections::BTreeSet;

/// Capped exponential backoff for BS abort retries.
///
/// The bare `max_retries` cutoff modelled an infinitely patient master; real
/// masters back off so a transient abort storm drains instead of livelocking.
/// Round `n` (1-based) waits `min(base << (n-1), cap)` nanoseconds before the
/// re-arbitrated address cycle; the wait is charged to the transaction and
/// surfaced in [`BusStats::backoff_ns`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Abort rounds tolerated before the bus gives up with
    /// [`BusError::TooManyRetries`].
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base_ns: Nanos,
    /// Upper bound on any single backoff wait.
    pub backoff_cap_ns: Nanos,
    /// Naive discipline: every retry waits exactly `backoff_base_ns` and the
    /// retries stay phase-locked with any periodic interference, so a
    /// phantom abort storm never drains — the adversarial configuration the
    /// liveness watchdog exists to catch. Off by default.
    pub flat_retry: bool,
    /// Arbitration priority aging (§2.1 fairness): after this many
    /// consecutive aborts the master's aged priority outranks any phantom
    /// interferer and the transaction proceeds. Genuine BS aborts are never
    /// bypassed — a real owner's push is required for correctness. Zero
    /// disables aging.
    pub aging_rounds: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 16,
            backoff_base_ns: 50,
            backoff_cap_ns: 1600,
            flat_retry: false,
            aging_rounds: 0,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry round `round` (1-based); zero for round 0.
    /// Flat retry waits the constant base; the default discipline doubles
    /// up to the cap.
    #[must_use]
    pub fn backoff(&self, round: u32) -> Nanos {
        if round == 0 {
            return 0;
        }
        if self.flat_retry {
            return self.backoff_base_ns;
        }
        let shift = (round - 1).min(20);
        self.backoff_base_ns
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ns)
    }

    /// The bounded-retry certificate: no transaction ever suffers more than
    /// this many aborts — it either commits within the bound or fails with
    /// [`BusError::TooManyRetries`] at `max_retries + 1`. The regression
    /// suite pins [`BusStats::max_txn_aborts`] against this bound for every
    /// protocol in the class.
    #[must_use]
    pub fn abort_bound(&self) -> u32 {
        self.max_retries + 1
    }
}

/// The shared backplane bus, owning main memory (the default owner of every
/// line) and the timing model.
///
/// # Examples
///
/// ```
/// use futurebus::{Futurebus, TransactionRequest};
/// use moesi::MasterSignals;
///
/// let mut bus = Futurebus::new(16, futurebus::TimingConfig::default());
/// // A read with no caches attached is served by memory.
/// let out = bus
///     .execute(&TransactionRequest::read(0, 0x40, MasterSignals::CA), &mut [])
///     .unwrap();
/// assert_eq!(out.data.unwrap().len(), 16);
/// assert!(!out.ch_seen);
/// ```
#[derive(Debug)]
pub struct Futurebus {
    pub(crate) memory: SparseMemory,
    pub(crate) timing: TimingConfig,
    pub(crate) stats: BusStats,
    pub(crate) retry: RetryPolicy,
    pub(crate) trace: BusTrace,
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) retired: BTreeSet<usize>,
    arbitration: Arbitration,
    /// The contenders of the grant being arbitrated, one bit per module
    /// index; kept for its capacity.
    contenders: Vec<u64>,
    pending_stall: Option<(usize, bool)>,
    histograms: PhaseHistograms,
    /// Abort counts of the transactions that suffered any; the zeros are
    /// derived from the phase histograms' transaction count on read.
    retry_hist: LatencyHistogram,
    liveness: Option<LivenessMonitor>,
    phase_events: Option<Vec<TxnPhases>>,
    /// Each snooper's response lines from the current address cycle, in
    /// module order; kept for its capacity, so the address-broadcast phase
    /// never allocates on the steady state.
    pub(crate) replies: Vec<(usize, ResponseSignals)>,
    /// The bus line buffer: a read's data phase copies the delivered line
    /// here (from memory or the intervening owner), and the outcome lends it
    /// to the master until the next transaction.
    pub(crate) line: Box<[u8]>,
    /// The data beats of one line: a bus's line size and width never
    /// change, so a whole-line transfer is costed without a division.
    pub(crate) line_beats: u64,
    /// The stall-candidate buffer lent to the fault plan's roll, so a bus
    /// with a plan installed does not allocate per transaction either.
    candidate_scratch: Vec<usize>,
}

impl Futurebus {
    /// Creates a bus with the given line size (bytes) and timing model.
    ///
    /// # Panics
    ///
    /// Panics unless `line_size` is a non-zero power of two, or if the
    /// timing model's bus is zero bytes wide.
    #[must_use]
    pub fn new(line_size: usize, timing: TimingConfig) -> Self {
        Futurebus {
            memory: SparseMemory::new(line_size),
            timing,
            stats: BusStats::new(),
            retry: RetryPolicy::default(),
            trace: BusTrace::new(0),
            faults: None,
            retired: BTreeSet::new(),
            arbitration: Arbitration::new(Discipline::default()),
            contenders: Vec::new(),
            pending_stall: None,
            histograms: PhaseHistograms::new(),
            retry_hist: LatencyHistogram::new(),
            liveness: None,
            phase_events: None,
            replies: Vec::new(),
            line: vec![0; line_size].into_boxed_slice(),
            line_beats: timing.beats_for(line_size),
            candidate_scratch: Vec::new(),
        }
    }

    /// Enables transaction tracing, keeping the most recent `capacity`
    /// records (0 disables).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = BusTrace::new(capacity);
    }

    /// The transaction trace (empty unless [`enable_trace`] was called).
    ///
    /// [`enable_trace`]: Futurebus::enable_trace
    #[must_use]
    pub fn trace(&self) -> &BusTrace {
        &self.trace
    }

    /// The configured line size.
    #[must_use]
    pub fn line_size(&self) -> usize {
        self.memory.line_size()
    }

    /// The timing model in force.
    #[must_use]
    pub fn timing(&self) -> &TimingConfig {
        &self.timing
    }

    /// The arbitration service discipline in force on this segment.
    #[must_use]
    pub fn discipline(&self) -> Discipline {
        self.arbitration.discipline()
    }

    /// Swaps the arbitration service discipline, resetting its
    /// queue/rotation state. The default [`Discipline::Priority`] is
    /// combinational (one slot) and byte-identical to the historical
    /// fixed-cost arbitration model.
    pub fn set_discipline(&mut self, discipline: Discipline) {
        self.arbitration = Arbitration::new(discipline);
        // Room for the contenders of a bus of up to 64 modules, so a grant
        // allocates nothing.
        self.contenders.reserve(1);
    }

    /// Queueing delay (in arbitration slots) `master` pays for the bus under
    /// the current discipline, with every live module contending. The first
    /// slot is part of the base transaction cost; disciplines beyond the
    /// combinational default pay the rest in [`Phase::Arbitrate`].
    ///
    /// [`Phase::Arbitrate`]: crate::Phase::Arbitrate
    pub(crate) fn queue_slots(&mut self, master: usize, modules: usize) -> u32 {
        if let Arbitration::Priority = self.arbitration {
            return 1; // combinational: nobody's contention is counted
        }
        // Every module the watchdog has not retired contends, and so does the
        // master itself.
        let live = &mut self.contenders;
        live.clear();
        live.extend((0..modules.max(master + 1).div_ceil(64)).map(|w| below(w, modules)));
        for &m in &self.retired {
            live[m / 64] &= !(1 << (m % 64));
        }
        live[master / 64] |= 1 << (master % 64);
        self.arbitration.slots_to_grant(master, live)
    }

    /// Main memory, for initialisation and checking.
    #[must_use]
    pub fn memory(&self) -> &SparseMemory {
        &self.memory
    }

    /// Mutable access to main memory (e.g. to preload a workload image).
    pub fn memory_mut(&mut self) -> &mut SparseMemory {
        &mut self.memory
    }

    /// Cumulative bus statistics.
    #[must_use]
    pub fn stats(&self) -> &BusStats {
        &self.stats
    }

    /// Per-phase latency histograms: one sample per phase per transaction
    /// (errored transactions included — their burned time is observed too;
    /// a phase's zeros are derived from the transaction count).
    #[must_use]
    pub fn phase_histograms(&self) -> &PhaseHistograms {
        &self.histograms
    }

    /// The retries-per-transaction histogram: one sample per transaction
    /// (errored included), whose value is the transaction's *abort count* —
    /// the buckets hold counts, not nanoseconds. The long tail of this
    /// distribution is where starvation shows before the liveness deadline
    /// fires. Only non-zero counts are recorded; the zero bucket is derived
    /// from the transaction count.
    #[must_use]
    pub fn retry_histogram(&self) -> LatencyHistogram {
        self.retry_hist.with_zeros(self.histograms.transactions())
    }

    /// Arms the liveness watchdog: `deadline` consecutive retry-cutoff
    /// failures by one master with no intervening commit fire a violation
    /// into [`BusStats::liveness_violations`]. Replaces any previous
    /// monitor (and its ledgers).
    ///
    /// # Panics
    ///
    /// Panics when `deadline` is zero.
    pub fn enable_liveness(&mut self, deadline: u32) {
        self.liveness = Some(LivenessMonitor::new(deadline));
    }

    /// The liveness watchdog's ledgers, if armed.
    #[must_use]
    pub fn liveness(&self) -> Option<&LivenessMonitor> {
        self.liveness.as_ref()
    }

    /// Starts collecting one [`TxnPhases`] record per *committed*
    /// transaction, the raw material for Chrome trace export. Replaces any
    /// previously collected events.
    pub fn enable_phase_events(&mut self) {
        self.phase_events = Some(Vec::new());
    }

    /// The collected per-transaction phase events (empty unless
    /// [`enable_phase_events`](Futurebus::enable_phase_events) was called).
    #[must_use]
    pub fn phase_events(&self) -> &[TxnPhases] {
        self.phase_events.as_deref().unwrap_or(&[])
    }

    /// Flushes one finished transaction's observations: folds its duration
    /// into `busy_ns` and the per-phase breakdown into `phase_ns` (keeping
    /// the sum invariant by construction), records it in the phase and
    /// retry histograms (a sample per charged phase, and one for a
    /// transaction that aborted), and — when the transaction committed and
    /// event collection is on — appends a [`TxnPhases`] record aligned 1:1
    /// with the trace's final READ/WRITE/INVAL records. Called from exactly
    /// two places: the commit phase and the `execute` error path.
    pub(crate) fn seal_observation(&mut self, ctx: &TxnContext<'_>, completed: Option<TraceKind>) {
        let start_ns = self.stats.busy_ns;
        self.stats.busy_ns += ctx.duration;
        for (total, charged) in self.stats.phase_ns.iter_mut().zip(ctx.phase_ns) {
            *total += charged;
        }
        self.histograms.record_txn(&ctx.phase_ns);
        if ctx.aborts > 0 {
            let aborts = u64::from(ctx.aborts);
            self.retry_hist.record(aborts);
            self.stats.max_txn_aborts = self.stats.max_txn_aborts.max(aborts);
        }
        if let (Some(kind), Some(events)) = (completed, self.phase_events.as_mut()) {
            events.push(TxnPhases {
                master: ctx.req.master,
                addr: ctx.req.addr,
                kind,
                start_ns,
                phase_ns: ctx.phase_ns,
            });
        }
    }

    /// The abort-retry policy in force.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Replaces the abort-retry policy.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Installs a fault-injection plan; every subsequent transaction consults
    /// it. Replaces any previous plan (and its log).
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The installed fault plan and its injection log, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Mutable access to the installed fault plan — the hierarchy campaign
    /// uses the plan's own RNG stream for faults (stale inclusion tags)
    /// that the bus engine cannot inject itself.
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.faults.as_mut()
    }

    /// Arms a one-shot stall: during the next transaction in which `module`
    /// is a snooper (not the master, not already retired), it stops
    /// responding and the watchdog retires it. `salvageable` distinguishes a
    /// hung board whose cache RAM can still be read out from a dead one.
    ///
    /// Works without a fault plan installed — this is the deterministic
    /// arming hook replay scripts use to pin watchdog behaviour.
    pub fn stall_module(&mut self, module: usize, salvageable: bool) {
        self.pending_stall = Some((module, salvageable));
    }

    /// Modules the watchdog has retired from the snoop set, ascending.
    #[must_use]
    pub fn retired(&self) -> Vec<usize> {
        self.retired.iter().copied().collect()
    }

    /// True when the watchdog has retired `module`.
    #[must_use]
    pub fn is_retired(&self, module: usize) -> bool {
        self.retired.contains(&module)
    }

    /// Runs one transaction. `modules` are all attached snooping units; the
    /// entry at `req.master` is skipped (a master does not snoop itself), so
    /// callers may pass their full module table. Indices in `req.master` and
    /// [`DataSource::Intervention`] refer to this slice. Modules the watchdog
    /// has retired are skipped too: a retired board neither snoops nor
    /// completes.
    ///
    /// # Errors
    ///
    /// See [`BusError`] — illegal signals, unaligned or oversized payloads,
    /// duplicate interveners, more BS aborts than the retry policy tolerates,
    /// or a protocol violation (BS asserted with no push to offer). All error
    /// paths still account the bus time burned into [`BusStats::busy_ns`].
    pub fn execute(
        &mut self,
        req: &TransactionRequest<'_>,
        modules: &mut [&mut dyn BusModule],
    ) -> Result<TransactionOutcome<'_>, BusError> {
        let ctx = self.transact(req, modules)?;
        Ok(self.outcome(&ctx))
    }

    /// [`Futurebus::execute`] for a caller that survives bus errors: a
    /// failed transaction completes memory-direct instead — a read is served
    /// from memory, a write is absorbed by it, and no snooper takes part
    /// (they already saw the failing passes). Whatever staleness the skipped
    /// snoops cause is the caller's checker's to find. Returns the outcome
    /// and the error survived, if any.
    ///
    /// Generic over the module type: a caller that owns a homogeneous
    /// component array (the simulator's `Vec<CacheController>`, a segment's
    /// bridges) passes it directly and gets a statically dispatched pipeline
    /// — no per-transaction `Vec<&mut dyn BusModule>` and no virtual calls
    /// in the inner loop. The dyn-slice `execute` runs the same pipeline
    /// with `M = &mut dyn BusModule`.
    ///
    /// A degraded outcome reports CH asserted: the wired-OR never resolved,
    /// and claiming exclusivity after a failed snoop round would be worse
    /// than assuming sharers exist.
    pub fn execute_or_degrade<M: BusModule>(
        &mut self,
        req: &TransactionRequest<'_>,
        modules: &mut [M],
    ) -> (TransactionOutcome<'_>, Option<BusError>) {
        match self.transact(req, modules) {
            Ok(ctx) => (self.outcome(&ctx), None),
            Err(e) => (self.degrade(req), Some(e)),
        }
    }

    /// The outcome of the committed transaction `ctx`; a read borrows the
    /// line its data phase left in the line buffer.
    fn outcome(&self, ctx: &TxnContext<'_>) -> TransactionOutcome<'_> {
        TransactionOutcome {
            data: matches!(ctx.req.kind, TransactionKind::Read).then_some(&*self.line),
            responses: ctx.combined,
            ch_seen: ctx.combined.ch,
            source: ctx.source,
            duration: ctx.duration,
            aborts: ctx.aborts,
        }
    }

    /// The memory-direct completion of a failed transaction (see
    /// [`Futurebus::execute_or_degrade`]).
    fn degrade(&mut self, req: &TransactionRequest<'_>) -> TransactionOutcome<'_> {
        let line = self.memory.align(req.addr);
        let read = match req.kind {
            TransactionKind::Read => {
                self.line.copy_from_slice(self.memory.peek(line));
                true
            }
            TransactionKind::Write { offset, bytes } => {
                self.memory.write_bytes(line, offset, bytes);
                false
            }
            TransactionKind::AddressOnly => false,
        };
        TransactionOutcome {
            data: read.then_some(&*self.line),
            responses: ResponseSignals::NONE,
            ch_seen: true,
            source: DataSource::Memory,
            duration: 0,
            aborts: 0,
        }
    }

    /// Runs the pipeline for `req` and returns the committed context.
    fn transact<'r, M: BusModule>(
        &mut self,
        req: &'r TransactionRequest<'r>,
        modules: &mut [M],
    ) -> Result<TxnContext<'r>, BusError> {
        self.validate(req, modules.len())?;
        let faults = self.decide_faults(req, modules.len());
        let mut ctx = TxnContext::new(req, self.memory.line_size(), faults);
        match self.run_pipeline(&mut ctx, modules) {
            Ok(()) => {
                if let Some(mon) = self.liveness.as_mut() {
                    mon.record_commit(req.master);
                }
                Ok(ctx)
            }
            Err(err) => {
                // Every error path still accounts (and observes) the bus
                // time burned; no phase event, since nothing committed.
                self.seal_observation(&ctx, None);
                // Only the retry cutoff is a *liveness* failure — the master
                // wanted to proceed and the bus starved it. Validation and
                // protocol errors are the master's (or a snooper's) fault.
                if matches!(err, BusError::TooManyRetries(_)) {
                    if let Some(mon) = self.liveness.as_mut() {
                        if mon.record_failure(req.master) {
                            self.stats.liveness_violations += 1;
                        }
                    }
                }
                Err(err)
            }
        }
    }

    /// Rolls the fault plan's dice for this transaction and folds in any
    /// manually armed stall (replay pins), which overrides the plan's roll
    /// but only fires once the victim is actually a live snooper.
    fn decide_faults(&mut self, req: &TransactionRequest<'_>, module_count: usize) -> TxnFaults {
        let mut faults = match self.faults.as_mut() {
            Some(plan) => {
                let candidates = &mut self.candidate_scratch;
                candidates.clear();
                candidates.extend(
                    (0..module_count).filter(|&i| i != req.master && !self.retired.contains(&i)),
                );
                plan.decide(candidates)
            }
            None => TxnFaults::default(),
        };
        if let Some((victim, salvage)) = self.pending_stall {
            if victim != req.master && victim < module_count && !self.retired.contains(&victim) {
                faults.stall = Some((victim, salvage));
                self.pending_stall = None;
            }
        }
        faults
    }

    fn validate(&self, req: &TransactionRequest<'_>, module_count: usize) -> Result<(), BusError> {
        if !req.signals.is_legal() {
            return Err(BusError::IllegalSignals(req.signals));
        }
        // The master index may equal module_count when the master is not part
        // of the snoop population (e.g. a bare test harness); anything beyond
        // is a programming error.
        if req.master > module_count {
            return Err(BusError::UnknownMaster(req.master));
        }
        if !self.memory.is_aligned(req.addr) {
            return Err(BusError::UnalignedAddress(req.addr));
        }
        if let TransactionKind::Write { offset, bytes } = &req.kind {
            if offset + bytes.len() > self.memory.line_size() {
                return Err(BusError::PayloadOutOfRange {
                    offset: *offset,
                    len: bytes.len(),
                    line_size: self.memory.line_size(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultKind, InjectedFault};
    use crate::module::{BusObservation, PushWrite, RetireReport};
    use crate::phases::Phase;
    use crate::transaction::{DataSource, LineAddr};
    use moesi::{MasterSignals, ResponseSignals};

    /// A scripted snooper for exercising the engine.
    struct Mock {
        response: ResponseSignals,
        line: Vec<u8>,
        completions: Vec<(bool, Option<Vec<u8>>)>,
        pushes: u32,
        snooped: Vec<LineAddr>,
        dirty: Vec<LineAddr>,
        retired_as: Option<bool>,
    }

    impl Mock {
        fn quiet() -> Self {
            Mock::with(ResponseSignals::NONE)
        }
        fn with(response: ResponseSignals) -> Self {
            Mock {
                response,
                line: vec![0xEE; 16],
                completions: Vec::new(),
                pushes: 0,
                snooped: Vec::new(),
                dirty: Vec::new(),
                retired_as: None,
            }
        }
    }

    impl BusModule for Mock {
        fn snoop(&mut self, req: &TransactionRequest) -> ResponseSignals {
            self.snooped.push(req.addr);
            let r = self.response;
            if r.bs {
                // One abort only: react normally on the retry.
                self.response = ResponseSignals::NONE;
            }
            r
        }
        fn supply_line(&mut self, _addr: u64) -> Option<&[u8]> {
            Some(&self.line)
        }
        fn prepare_push(&mut self, _addr: u64) -> Option<PushWrite<'_>> {
            self.pushes += 1;
            Some(PushWrite {
                data: &self.line,
                signals: MasterSignals::CA,
            })
        }
        fn retire(&mut self, salvage: bool) -> RetireReport {
            self.retired_as = Some(salvage);
            if salvage {
                RetireReport {
                    salvaged: self
                        .dirty
                        .iter()
                        .map(|&a| (a, self.line.clone().into_boxed_slice()))
                        .collect(),
                    lost: Vec::new(),
                }
            } else {
                RetireReport {
                    salvaged: Vec::new(),
                    lost: self.dirty.clone(),
                }
            }
        }
        fn complete(&mut self, _req: &TransactionRequest, obs: &BusObservation<'_>) {
            self.completions
                .push((obs.ch_others, obs.write_data.map(|(_, b)| b.to_vec())));
        }
    }

    fn bus() -> Futurebus {
        Futurebus::new(16, TimingConfig::default())
    }

    /// The grant as first written: a walk over every module index, the
    /// contenders filtered from it, the round-robin count a filter over the
    /// walk and the FCFS joiners pushed one by one. `last` and `queue` are
    /// its round-robin and FCFS state.
    fn slots_by_walk(
        discipline: Discipline,
        last: &mut Option<usize>,
        queue: &mut std::collections::VecDeque<usize>,
        master: usize,
        modules: usize,
        retired: &[usize],
    ) -> u32 {
        let live: Vec<usize> = (0..modules.max(master + 1))
            .filter(|&i| i == master || (i < modules && !retired.contains(&i)))
            .collect();
        let slots = match discipline {
            Discipline::Priority => 1,
            Discipline::RoundRobin => {
                let after = |m: usize| last.is_none_or(|l| m > l);
                let waited = live
                    .iter()
                    .filter(|&&m| {
                        if after(master) {
                            after(m) && m <= master
                        } else {
                            after(m) || m <= master
                        }
                    })
                    .count();
                *last = Some(master);
                waited
            }
            Discipline::Fcfs => {
                for &m in &live {
                    if !queue.contains(&m) {
                        queue.push_back(m);
                    }
                }
                let pos = queue.iter().position(|&m| m == master).unwrap();
                queue.drain(..=pos);
                pos + 1
            }
        };
        u32::try_from(slots).unwrap()
    }

    #[test]
    fn grants_counted_from_the_live_set_match_a_walk_over_every_module() {
        let mut rng = moesi::rng::SmallRng::seed_from_u64(31);
        // Buses on both sides of one and two 64-bit words.
        for modules in [1usize, 3, 4, 63, 64, 65, 100, 130] {
            for discipline in Discipline::ALL {
                let mut bus = bus();
                bus.set_discipline(discipline);
                let (mut last, mut queue) = (None, std::collections::VecDeque::new());
                let mut retired = Vec::new();
                for round in 0..300 {
                    if rng.gen_range(0..40u32) == 0 {
                        let victim = rng.gen_range(0..modules);
                        bus.retired.insert(victim);
                        retired.push(victim);
                    }
                    // Index `modules` is the external master (a bridge's
                    // own transaction), one past the children.
                    let master = rng.gen_range(0..modules + 1);
                    let want =
                        slots_by_walk(discipline, &mut last, &mut queue, master, modules, &retired);
                    assert_eq!(
                        bus.queue_slots(master, modules),
                        want,
                        "{discipline}, {modules} modules, round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn read_without_owner_comes_from_memory() {
        let mut bus = bus();
        bus.memory_mut().write_bytes(0x40, 0, &[7; 16]);
        let mut a = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut a];
        let out = bus
            .execute(
                &TransactionRequest::read(1, 0x40, MasterSignals::CA),
                &mut mods,
            )
            .unwrap();
        assert_eq!(out.source, DataSource::Memory);
        assert_eq!(out.data.unwrap(), &[7; 16]);
        assert_eq!(bus.stats().memory_reads, 1);
        assert_eq!(bus.stats().interventions, 0);
    }

    #[test]
    fn di_owner_preempts_memory_on_reads() {
        let mut bus = bus();
        bus.memory_mut().write_bytes(0x40, 0, &[1; 16]); // stale
        let mut owner = Mock::with(ResponseSignals {
            di: true,
            ch: true,
            ..ResponseSignals::NONE
        });
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut owner];
        let out = bus
            .execute(
                &TransactionRequest::read(1, 0x40, MasterSignals::CA),
                &mut mods,
            )
            .unwrap();
        assert_eq!(out.source, DataSource::Intervention(0));
        assert_eq!(out.data.unwrap(), &[0xEE; 16], "owner's data, not memory's");
        assert!(out.ch_seen);
        // Intervention does NOT update memory — the Futurebus limitation.
        assert_eq!(bus.memory().peek(0x40), &[1; 16]);
    }

    #[test]
    fn non_broadcast_write_with_owner_is_captured_not_memorised() {
        let mut bus = bus();
        let mut owner = Mock::with(ResponseSignals {
            di: true,
            ..ResponseSignals::NONE
        });
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut owner];
        let req = TransactionRequest::write(1, 0, MasterSignals::IM, 4, &[9, 9]);
        bus.execute(&req, &mut mods).unwrap();
        assert_eq!(bus.stats().captures, 1);
        assert_eq!(bus.stats().memory_writes, 0);
        assert_eq!(owner.completions.len(), 1);
        assert_eq!(owner.completions[0].1.as_deref(), Some(&[9u8, 9][..]));
    }

    #[test]
    fn non_broadcast_write_without_owner_updates_memory() {
        let mut bus = bus();
        let mut other = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut other];
        let req = TransactionRequest::write(1, 0, MasterSignals::IM, 2, &[5, 6]);
        bus.execute(&req, &mut mods).unwrap();
        assert_eq!(bus.memory().peek(0)[2..4], [5, 6]);
        // A quiet snooper receives no payload.
        assert_eq!(other.completions[0].1, None);
    }

    #[test]
    fn broadcast_write_updates_memory_and_sl_snoopers() {
        let mut bus = bus();
        let mut sharer = Mock::with(ResponseSignals {
            sl: true,
            ch: true,
            ..ResponseSignals::NONE
        });
        let mut bystander = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut sharer, &mut bystander];
        let req = TransactionRequest::write(2, 0, MasterSignals::CA_IM_BC, 0, &[3; 4]);
        let ch_seen = bus.execute(&req, &mut mods).unwrap().ch_seen;
        assert_eq!(bus.memory().peek(0)[..4], [3; 4]);
        assert_eq!(bus.stats().sl_updates, 1);
        assert!(ch_seen);
        assert_eq!(sharer.completions[0].1.as_deref(), Some(&[3u8; 4][..]));
        assert_eq!(bystander.completions[0].1, None);
    }

    #[test]
    fn bs_abort_pushes_then_retries() {
        let mut bus = bus();
        let mut dirty = Mock::with(ResponseSignals {
            bs: true,
            ..ResponseSignals::NONE
        });
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut dirty];
        let out = bus
            .execute(
                &TransactionRequest::read(1, 0, MasterSignals::CA),
                &mut mods,
            )
            .unwrap();
        assert_eq!(out.aborts, 1);
        assert_eq!(dirty.pushes, 1);
        // The push updated memory, so the retried read is served by memory
        // with the pushed contents.
        assert_eq!(out.source, DataSource::Memory);
        assert_eq!(out.data.unwrap(), &[0xEE; 16]);
        assert_eq!(bus.stats().aborts, 1);
        assert_eq!(bus.stats().pushes, 1);
        assert_eq!(bus.stats().transactions, 2, "push + retried read");
        // One retry round waited out one base backoff.
        assert_eq!(bus.stats().retries, 1);
        assert_eq!(bus.stats().backoff_ns, bus.retry_policy().backoff_base_ns);
    }

    #[test]
    fn endless_bs_hits_the_retry_limit_after_backing_off() {
        struct AlwaysBusy;
        impl BusModule for AlwaysBusy {
            fn snoop(&mut self, _req: &TransactionRequest) -> ResponseSignals {
                ResponseSignals {
                    bs: true,
                    ..ResponseSignals::NONE
                }
            }
            fn prepare_push(&mut self, _addr: u64) -> Option<PushWrite<'_>> {
                Some(PushWrite {
                    data: &[0; 16],
                    signals: MasterSignals::CA,
                })
            }
            fn complete(&mut self, _req: &TransactionRequest, _obs: &BusObservation<'_>) {}
        }
        let mut bus = bus();
        bus.set_retry_policy(RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::default()
        });
        let mut b = AlwaysBusy;
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut b];
        let err = bus
            .execute(
                &TransactionRequest::read(1, 0, MasterSignals::CA),
                &mut mods,
            )
            .unwrap_err();
        assert_eq!(err, BusError::TooManyRetries(4));
        // Rounds 1..=3 retried with growing backoff; round 4 gave up.
        assert_eq!(bus.stats().retries, 3);
        assert_eq!(bus.stats().backoff_ns, 50 + 100 + 200);
        assert!(
            bus.stats().busy_ns >= bus.stats().backoff_ns,
            "the failed transaction's time is still accounted"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            backoff_cap_ns: 300,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(0), 0);
        assert_eq!(p.backoff(1), 50);
        assert_eq!(p.backoff(2), 100);
        assert_eq!(p.backoff(3), 200);
        assert_eq!(p.backoff(4), 300, "capped");
        assert_eq!(p.backoff(40), 300, "huge rounds stay capped");
        assert_eq!(p.abort_bound(), 17, "commit within 16 or fail at 17");
    }

    #[test]
    fn flat_retry_waits_the_constant_base() {
        let p = RetryPolicy {
            flat_retry: true,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(0), 0);
        assert_eq!(p.backoff(1), 50);
        assert_eq!(p.backoff(2), 50);
        assert_eq!(p.backoff(40), 50);
    }

    #[test]
    fn bs_without_a_push_is_a_protocol_error_not_a_panic() {
        struct Liar;
        impl BusModule for Liar {
            fn snoop(&mut self, _req: &TransactionRequest) -> ResponseSignals {
                ResponseSignals {
                    bs: true,
                    ..ResponseSignals::NONE
                }
            }
            // No prepare_push override: the default declines.
            fn complete(&mut self, _req: &TransactionRequest, _obs: &BusObservation<'_>) {}
        }
        let mut bus = bus();
        let mut l = Liar;
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut l];
        let err = bus
            .execute(
                &TransactionRequest::read(1, 0, MasterSignals::CA),
                &mut mods,
            )
            .unwrap_err();
        match err {
            BusError::ProtocolError { module, detail } => {
                assert_eq!(module, 0);
                assert!(detail.contains("no push"), "{detail}");
            }
            other => panic!("expected ProtocolError, got {other:?}"),
        }
    }

    #[test]
    fn di_without_a_line_is_a_protocol_error_not_a_panic() {
        // A protocol that wrongly asserts DI (intervention) but then cannot
        // supply the line used to hit the trait default's panic; it is now a
        // reported protocol violation, like BS-without-a-push.
        struct EmptyHanded;
        impl BusModule for EmptyHanded {
            fn snoop(&mut self, _req: &TransactionRequest) -> ResponseSignals {
                ResponseSignals {
                    di: true,
                    ..ResponseSignals::NONE
                }
            }
            // No supply_line override: the default declines.
            fn complete(&mut self, _req: &TransactionRequest, _obs: &BusObservation<'_>) {}
        }
        let mut bus = bus();
        let mut e = EmptyHanded;
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut e];
        let err = bus
            .execute(
                &TransactionRequest::read(1, 0x40, MasterSignals::CA),
                &mut mods,
            )
            .unwrap_err();
        match err {
            BusError::ProtocolError { module, detail } => {
                assert_eq!(module, 0);
                assert!(detail.contains("declined to supply"), "{detail}");
            }
            other => panic!("expected ProtocolError, got {other:?}"),
        }
        assert_eq!(bus.stats().interventions, 0, "no intervention happened");
        assert_eq!(
            bus.stats().phase_total_ns(),
            bus.stats().busy_ns,
            "the failed transaction still balances its books"
        );
    }

    #[test]
    fn a_short_supplied_line_is_a_protocol_error_not_a_panic() {
        // The bus copies a supplied line into its own line buffer; a
        // snooper lending fewer bytes than a line broke the protocol.
        let mut bus = bus();
        let mut short = Mock::with(ResponseSignals {
            di: true,
            ..ResponseSignals::NONE
        });
        short.line = vec![0xEE; 4];
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut short];
        let err = bus
            .execute(
                &TransactionRequest::read(1, 0x40, MasterSignals::CA),
                &mut mods,
            )
            .unwrap_err();
        match err {
            BusError::ProtocolError { module, detail } => {
                assert_eq!(module, 0);
                assert!(detail.contains("supplied 4 bytes"), "{detail}");
            }
            other => panic!("expected ProtocolError, got {other:?}"),
        }
    }

    #[test]
    fn short_pushes_are_a_protocol_error() {
        struct ShortPusher;
        impl BusModule for ShortPusher {
            fn snoop(&mut self, _req: &TransactionRequest) -> ResponseSignals {
                ResponseSignals {
                    bs: true,
                    ..ResponseSignals::NONE
                }
            }
            fn prepare_push(&mut self, _addr: u64) -> Option<PushWrite<'_>> {
                Some(PushWrite {
                    data: &[0; 4], // line size is 16
                    signals: MasterSignals::CA,
                })
            }
            fn complete(&mut self, _req: &TransactionRequest, _obs: &BusObservation<'_>) {}
        }
        let mut bus = bus();
        let mut s = ShortPusher;
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut s];
        let err = bus
            .execute(
                &TransactionRequest::read(1, 0, MasterSignals::CA),
                &mut mods,
            )
            .unwrap_err();
        assert!(
            matches!(err, BusError::ProtocolError { module: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn watchdog_retires_a_stalled_module_and_salvages_its_dirty_lines() {
        let mut bus = bus();
        bus.enable_trace(16);
        let mut victim = Mock::quiet();
        victim.dirty = vec![0x40, 0x80];
        let mut survivor = Mock::quiet();
        bus.stall_module(0, true);
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut victim, &mut survivor];
        let out = bus
            .execute(
                &TransactionRequest::read(1, 0x40, MasterSignals::CA),
                &mut mods,
            )
            .unwrap();
        // The in-flight read sees the salvaged data (below).
        assert_eq!(out.data, Some(&[0xEE; 16][..]));
        let duration = out.duration;
        // The victim was retired before snooping; the survivor completed.
        assert_eq!(victim.retired_as, Some(true));
        assert!(victim.snooped.is_empty(), "a stalled board never answers");
        assert!(bus.is_retired(0));
        assert_eq!(bus.retired(), vec![0]);
        // Its dirty lines were salvaged to memory — including the one the
        // in-flight read wanted, which therefore sees the salvaged data.
        assert_eq!(bus.memory().peek(0x40), &[0xEE; 16]);
        assert_eq!(bus.memory().peek(0x80), &[0xEE; 16]);
        assert_eq!(bus.stats().watchdog_retirements, 1);
        assert_eq!(bus.stats().salvaged_lines, 2);
        assert_eq!(bus.stats().lost_lines, 0);
        // The watchdog timeout is charged to the transaction.
        assert!(duration >= bus.timing().watchdog_timeout_ns);
        let rendered = bus.trace().render();
        assert!(rendered.contains("RETIR"), "{rendered}");
    }

    #[test]
    fn killed_module_loses_lines_and_survivors_are_invalidated() {
        let mut bus = bus();
        let mut victim = Mock::quiet();
        victim.dirty = vec![0x40];
        let mut survivor = Mock::quiet();
        bus.stall_module(0, false);
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut victim, &mut survivor];
        // Master index 2 == module count: an external master, so both
        // attached modules are snoopers.
        bus.execute(
            &TransactionRequest::read(2, 0x80, MasterSignals::CA),
            &mut mods,
        )
        .unwrap();
        assert_eq!(victim.retired_as, Some(false));
        // Nothing salvaged: the lost line never reached memory.
        assert_eq!(bus.memory().peek(0x40), &[0u8; 16]);
        assert_eq!(bus.stats().lost_lines, 1);
        assert_eq!(bus.stats().salvaged_lines, 0);
        // The survivor snooped the recovery invalidate for the lost line,
        // then the retried read for 0x80.
        assert_eq!(survivor.snooped, vec![0x40, 0x80]);
    }

    #[test]
    fn retired_modules_stop_snooping_entirely() {
        let mut bus = bus();
        let mut victim = Mock::with(ResponseSignals::CH);
        let mut survivor = Mock::quiet();
        bus.stall_module(0, true);
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut victim, &mut survivor];
        let req = TransactionRequest::read(1, 0x40, MasterSignals::CA);
        let first = bus.execute(&req, &mut mods).unwrap();
        assert!(!first.ch_seen, "retired module's CH is gone");
        let again = bus.execute(&req, &mut mods).unwrap();
        assert!(!again.ch_seen);
        assert!(victim.snooped.is_empty());
        assert_eq!(victim.completions.len(), 0, "no completions either");
        assert_eq!(bus.stats().watchdog_retirements, 1, "retired only once");
    }

    #[test]
    fn glitches_are_filtered_at_the_settle_window_cost() {
        let mut bus = bus();
        bus.enable_trace(8);
        bus.inject_faults(FaultPlan::new(
            FaultConfig::default().with_rate(FaultKind::Glitch, 1.0),
        ));
        let mut sharer = Mock::with(ResponseSignals::CH);
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut sharer];
        let out = bus
            .execute(
                &TransactionRequest::read(1, 0x40, MasterSignals::CA),
                &mut mods,
            )
            .unwrap();
        // The filter absorbed the glitch: true responses prevailed.
        assert!(out.ch_seen);
        assert_eq!(out.responses, ResponseSignals::CH);
        assert_eq!(bus.stats().glitches_filtered, 1);
        assert_eq!(bus.stats().settle_ns, bus.timing().broadcast_penalty_ns);
        assert_eq!(bus.fault_plan().unwrap().injected(), 1);
        assert_eq!(
            bus.fault_plan().unwrap().records()[0].fault.kind(),
            FaultKind::Glitch
        );
        assert!(bus.trace().render().contains("GLTCH"));
    }

    #[test]
    fn abort_storms_are_absorbed_by_bounded_retry() {
        let mut bus = bus();
        bus.inject_faults(FaultPlan::new(FaultConfig {
            storm_rate: 1.0,
            max_storm_rounds: 3,
            ..FaultConfig::default()
        }));
        let mut quiet = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut quiet];
        let aborts = bus
            .execute(
                &TransactionRequest::read(1, 0x40, MasterSignals::CA),
                &mut mods,
            )
            .unwrap()
            .aborts;
        assert!((1..=3).contains(&aborts));
        assert_eq!(bus.stats().pushes, 0, "phantom BS rounds push nothing");
        assert_eq!(bus.stats().aborts as u32, aborts);
        assert_eq!(bus.stats().retries as u32, aborts);
        assert!(bus.stats().backoff_ns > 0);
        let records = bus.fault_plan().unwrap().records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].fault.kind(), FaultKind::AbortStorm);
    }

    #[test]
    fn flat_retry_livelocks_where_capped_backoff_drains() {
        // The same 3-round phantom storm, twice. The capped-backoff
        // discipline drains it (one round per retry); the naive flat
        // discipline stays phase-locked with the interference, drains
        // nothing, and runs straight into the retry cutoff.
        let storm = FaultConfig {
            storm_rate: 1.0,
            max_storm_rounds: 3,
            ..FaultConfig::default()
        };
        let req = TransactionRequest::read(1, 0x40, MasterSignals::CA);

        let mut sane = bus();
        sane.inject_faults(FaultPlan::new(storm));
        let mut quiet = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut quiet];
        let out = sane.execute(&req, &mut mods).unwrap();
        assert!(out.aborts <= 3, "the storm drained");

        let mut naive = bus();
        naive.set_retry_policy(RetryPolicy {
            flat_retry: true,
            ..RetryPolicy::default()
        });
        naive.enable_liveness(1);
        naive.inject_faults(FaultPlan::new(storm));
        let mut quiet = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut quiet];
        let err = naive.execute(&req, &mut mods).unwrap_err();
        assert_eq!(err, BusError::TooManyRetries(17));
        assert_eq!(naive.stats().liveness_violations, 1);
        assert_eq!(naive.stats().max_txn_aborts, 17);
        assert_eq!(naive.liveness().unwrap().progress(1).failures, 1);
        // Every flat backoff waited the constant base.
        assert_eq!(naive.stats().backoff_ns, 16 * 50);
    }

    #[test]
    fn priority_aging_recovers_a_storm_longer_than_the_retry_budget() {
        // A 32-round phantom storm outlasts the 16-retry budget, so even
        // capped backoff fails — but with priority aging the master's aged
        // arbitration priority outranks the interferer after 4 rounds and
        // the transaction proceeds.
        let storm = FaultConfig {
            storm_rate: 1.0,
            max_storm_rounds: 32,
            ..FaultConfig::default()
        };
        let req = TransactionRequest::read(1, 0x40, MasterSignals::CA);

        let mut unaged = bus();
        unaged.inject_faults(FaultPlan::new(storm));
        let mut quiet = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut quiet];
        let err = unaged.execute(&req, &mut mods).unwrap_err();
        assert_eq!(err, BusError::TooManyRetries(17));

        let mut aged = bus();
        aged.set_retry_policy(RetryPolicy {
            aging_rounds: 4,
            ..RetryPolicy::default()
        });
        aged.enable_liveness(1);
        aged.inject_faults(FaultPlan::new(storm));
        let mut quiet = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut quiet];
        let out = aged.execute(&req, &mut mods).unwrap();
        assert_eq!(out.aborts, 4, "promoted after exactly aging_rounds");
        assert_eq!(aged.stats().aging_promotions, 1);
        assert_eq!(aged.stats().liveness_violations, 0);
        assert_eq!(aged.liveness().unwrap().progress(1).commits, 1);
    }

    #[test]
    fn aging_never_bypasses_a_genuine_bs_push() {
        // Three genuine BS aborts in a row (a real owner pushing each time)
        // must all run their pushes even with aggressive aging configured.
        struct BusyThrice(u32);
        impl BusModule for BusyThrice {
            fn snoop(&mut self, _req: &TransactionRequest) -> ResponseSignals {
                if self.0 > 0 {
                    self.0 -= 1;
                    ResponseSignals {
                        bs: true,
                        ..ResponseSignals::NONE
                    }
                } else {
                    ResponseSignals::NONE
                }
            }
            fn prepare_push(&mut self, _addr: u64) -> Option<PushWrite<'_>> {
                Some(PushWrite {
                    data: &[0xAB; 16],
                    signals: MasterSignals::CA,
                })
            }
            fn complete(&mut self, _req: &TransactionRequest, _obs: &BusObservation<'_>) {}
        }
        let mut bus = bus();
        bus.set_retry_policy(RetryPolicy {
            aging_rounds: 1,
            ..RetryPolicy::default()
        });
        let mut owner = BusyThrice(3);
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut owner];
        let out = bus
            .execute(
                &TransactionRequest::read(1, 0x40, MasterSignals::CA),
                &mut mods,
            )
            .unwrap();
        assert_eq!(out.aborts, 3, "all genuine aborts ran");
        assert_eq!(bus.stats().pushes, 3);
        assert_eq!(bus.stats().aging_promotions, 0);
    }

    #[test]
    fn retry_histogram_samples_every_transaction() {
        let mut bus = bus();
        bus.inject_faults(FaultPlan::new(FaultConfig {
            storm_rate: 1.0,
            max_storm_rounds: 2,
            ..FaultConfig::default()
        }));
        let mut quiet = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut quiet];
        let aborts = bus
            .execute(
                &TransactionRequest::read(1, 0x40, MasterSignals::CA),
                &mut mods,
            )
            .unwrap()
            .aborts;
        assert_eq!(bus.retry_histogram().samples(), 1);
        assert_eq!(bus.retry_histogram().sum_ns(), u64::from(aborts));
        assert_eq!(bus.stats().max_txn_aborts, u64::from(aborts));
    }

    #[test]
    fn the_retry_histogram_matches_an_eager_record_of_every_transaction() {
        // Storms on a third of the transactions, some outlasting the retry
        // budget: the derived zeros must equal recording every count.
        let mut bus = bus();
        bus.inject_faults(FaultPlan::new(FaultConfig {
            storm_rate: 0.3,
            max_storm_rounds: 24,
            ..FaultConfig::default()
        }));
        let mut eager = LatencyHistogram::new();
        let mut quiet = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut quiet];
        for i in 0..300u64 {
            let req = TransactionRequest::read(1, (i % 8) * 16, MasterSignals::CA);
            let aborts = match bus.execute(&req, &mut mods) {
                Ok(out) => out.aborts,
                Err(BusError::TooManyRetries(n)) => n,
                Err(e) => panic!("{e:?}"),
            };
            eager.record(u64::from(aborts));
        }
        assert!(
            eager.counts()[0] > 0 && eager.sum_ns() > 0,
            "both kinds ran"
        );
        assert_eq!(bus.retry_histogram(), eager);
        assert_eq!(bus.phase_histograms().transactions(), 300);
    }

    #[test]
    fn soft_errors_corrupt_memory_after_the_transaction() {
        let mut bus = bus();
        bus.enable_trace(8);
        bus.inject_faults(FaultPlan::new(
            FaultConfig::default().with_rate(FaultKind::CorruptMemory, 1.0),
        ));
        let mut mods: Vec<&mut dyn BusModule> = vec![];
        bus.execute(
            &TransactionRequest::write(0, 0x40, MasterSignals::IM, 0, &[7; 16]),
            &mut mods,
        )
        .unwrap();
        assert_eq!(bus.stats().corruptions, 1);
        let records = bus.fault_plan().unwrap().records();
        assert_eq!(records.len(), 1);
        let InjectedFault::CorruptMemory { addr, offset, mask } = records[0].fault.clone() else {
            panic!("expected a corruption record");
        };
        assert_eq!(addr, 0x40, "the only resident line");
        let line = bus.memory().peek(0x40);
        assert_eq!(line[offset], 7 ^ mask, "exactly one byte flipped");
        assert!(bus.trace().render().contains("CORPT"));
    }

    #[test]
    fn duplicate_interveners_are_rejected() {
        let di = ResponseSignals {
            di: true,
            ..ResponseSignals::NONE
        };
        let mut a = Mock::with(di);
        let mut b = Mock::with(di);
        let mut bus = bus();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut a, &mut b];
        let err = bus
            .execute(
                &TransactionRequest::read(2, 0, MasterSignals::CA),
                &mut mods,
            )
            .unwrap_err();
        assert_eq!(err, BusError::MultipleInterveners(vec![0, 1]));
    }

    #[test]
    fn validation_errors() {
        let mut bus = bus();
        let mut mods: Vec<&mut dyn BusModule> = vec![];
        let bad_signals = TransactionRequest::read(0, 0, MasterSignals::new(false, false, true));
        assert!(matches!(
            bus.execute(&bad_signals, &mut mods),
            Err(BusError::IllegalSignals(_))
        ));
        let unaligned = TransactionRequest::read(0, 3, MasterSignals::CA);
        assert!(matches!(
            bus.execute(&unaligned, &mut mods),
            Err(BusError::UnalignedAddress(3))
        ));
        let oversized = TransactionRequest::write(0, 0, MasterSignals::IM, 12, &[0; 8]);
        assert!(matches!(
            bus.execute(&oversized, &mut mods),
            Err(BusError::PayloadOutOfRange { .. })
        ));
        let ghost = TransactionRequest::read(5, 0, MasterSignals::CA);
        assert!(matches!(
            bus.execute(&ghost, &mut mods),
            Err(BusError::UnknownMaster(5))
        ));
    }

    #[test]
    fn ch_others_excludes_the_asker() {
        // Two sharers both assert CH; each must see the *other's* CH, and a
        // quiet third module sees CH from both.
        let ch = ResponseSignals::CH;
        let mut a = Mock::with(ch);
        let mut b = Mock::with(ch);
        let mut c = Mock::quiet();
        let mut bus = bus();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut a, &mut b, &mut c];
        bus.execute(
            &TransactionRequest::read(3, 0, MasterSignals::CA),
            &mut mods,
        )
        .unwrap();
        assert!(a.completions[0].0);
        assert!(b.completions[0].0);
        assert!(c.completions[0].0);

        // With a single CH asserter, it must NOT see its own CH echoed back.
        let mut solo = Mock::with(ch);
        let mut quiet = Mock::quiet();
        let mut bus = Futurebus::new(16, TimingConfig::default());
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut solo, &mut quiet];
        bus.execute(
            &TransactionRequest::read(2, 0, MasterSignals::CA),
            &mut mods,
        )
        .unwrap();
        assert!(!solo.completions[0].0, "own CH must not count");
        assert!(quiet.completions[0].0);
    }

    #[test]
    fn address_only_moves_no_data_and_costs_no_transfer() {
        let mut bus = bus();
        let mut s = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut s];
        let out = bus
            .execute(
                &TransactionRequest::address_only(1, 0, MasterSignals::CA_IM),
                &mut mods,
            )
            .unwrap();
        assert_eq!(out.data, None);
        assert_eq!(out.source, DataSource::None);
        let t = TimingConfig::default();
        assert_eq!(out.duration, t.arbitration_ns + t.address_cycle_ns);
        assert_eq!(bus.stats().address_only, 1);
        assert_eq!(bus.stats().bytes_moved, 0);
    }

    #[test]
    fn disciplines_charge_queueing_into_the_arbitrate_phase() {
        let t = TimingConfig::default();
        let run = |discipline| {
            let mut bus = bus();
            bus.set_discipline(discipline);
            let mut a = Mock::quiet();
            let mut b = Mock::quiet();
            let mut mods: Vec<&mut dyn BusModule> = vec![&mut a, &mut b];
            // Master 1 arbitrates against live module 0.
            bus.execute(
                &TransactionRequest::address_only(1, 0, MasterSignals::CA_IM),
                &mut mods,
            )
            .unwrap()
            .duration
        };
        let base = t.arbitration_ns + t.address_cycle_ns;
        assert_eq!(
            run(Discipline::Priority),
            base,
            "combinational default stays byte-identical"
        );
        // Round-robin: the token starts before module 0, so master 1 waits
        // one extra slot; FCFS: both queue on first contact, master 1 behind
        // module 0.
        assert_eq!(run(Discipline::RoundRobin), base + t.arbitration_ns);
        assert_eq!(run(Discipline::Fcfs), base + t.arbitration_ns);
        // The extra wait lands in the Arbitrate bucket of the phase ledger.
        let mut bus = bus();
        bus.set_discipline(Discipline::Fcfs);
        let mut a = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut a];
        bus.execute(
            &TransactionRequest::address_only(1, 0, MasterSignals::CA_IM),
            &mut mods,
        )
        .unwrap();
        assert_eq!(
            bus.stats().phase_ns[Phase::Arbitrate as usize],
            t.arbitration_ns
        );
        assert_eq!(bus.discipline(), Discipline::Fcfs);
    }

    #[test]
    fn broadcast_writes_cost_the_wired_or_penalty() {
        let mut bus = bus();
        let t = *bus.timing();
        let mut mods: Vec<&mut dyn BusModule> = vec![];
        let plain = bus
            .execute(
                &TransactionRequest::write(0, 0, MasterSignals::IM, 0, &[0; 4]),
                &mut mods,
            )
            .unwrap()
            .duration;
        let bcast = bus
            .execute(
                &TransactionRequest::write(0, 0, MasterSignals::IM_BC, 0, &[0; 4]),
                &mut mods,
            )
            .unwrap()
            .duration;
        assert_eq!(bcast - plain, t.broadcast_penalty_ns);
    }

    #[test]
    fn master_does_not_snoop_itself() {
        let mut a = Mock::with(ResponseSignals::CH);
        let mut bus = bus();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut a];
        // Module 0 is the master: its own CH must not be seen.
        let out = bus
            .execute(
                &TransactionRequest::read(0, 0, MasterSignals::CA),
                &mut mods,
            )
            .unwrap();
        assert!(!out.ch_seen);
        assert!(
            a.completions.is_empty(),
            "master gets no completion callback"
        );
    }

    #[test]
    fn phase_breakdown_always_sums_to_busy_ns() {
        use crate::Phase;
        let mut bus = bus();
        let mut dirty = Mock::with(ResponseSignals {
            bs: true,
            ..ResponseSignals::NONE
        });
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut dirty];
        bus.execute(
            &TransactionRequest::read(1, 0, MasterSignals::CA),
            &mut mods,
        )
        .unwrap();
        bus.execute(
            &TransactionRequest::write(1, 0, MasterSignals::IM_BC, 0, &[3; 4]),
            &mut mods,
        )
        .unwrap();
        let s = bus.stats();
        assert_eq!(s.phase_total_ns(), s.busy_ns);
        // The sub-charges live inside their phase's bucket.
        assert!(s.phase_ns[Phase::AbortBackoff as usize] >= s.backoff_ns);
        assert!(s.phase_ns[Phase::SnoopResolve as usize] >= s.settle_ns);
        // Each phase histogram saw one sample per bus request (the push and
        // the backoff fold into the aborted read's own breakdown).
        for phase in Phase::PIPELINE {
            assert_eq!(bus.phase_histograms().phase(phase).samples(), 2, "{phase}");
        }
        assert_eq!(bus.phase_histograms().sums(), s.phase_ns);
    }

    #[test]
    fn errored_transactions_are_observed_but_emit_no_phase_event() {
        let mut bus = bus();
        bus.enable_phase_events();
        bus.set_retry_policy(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        });
        struct AlwaysBusy;
        impl BusModule for AlwaysBusy {
            fn snoop(&mut self, _req: &TransactionRequest) -> ResponseSignals {
                ResponseSignals {
                    bs: true,
                    ..ResponseSignals::NONE
                }
            }
            fn prepare_push(&mut self, _addr: u64) -> Option<PushWrite<'_>> {
                Some(PushWrite {
                    data: &[0; 16],
                    signals: MasterSignals::CA,
                })
            }
            fn complete(&mut self, _req: &TransactionRequest, _obs: &BusObservation<'_>) {}
        }
        let mut b = AlwaysBusy;
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut b];
        bus.execute(
            &TransactionRequest::read(1, 0, MasterSignals::CA),
            &mut mods,
        )
        .unwrap_err();
        // The failing read burned time that is observed (histograms, stats)
        // but committed nothing, so no phase event was recorded.
        assert!(bus.phase_events().is_empty());
        assert!(bus.stats().busy_ns > 0);
        assert_eq!(bus.stats().phase_total_ns(), bus.stats().busy_ns);
        assert_eq!(
            bus.phase_histograms()
                .phase(crate::Phase::Arbitrate)
                .samples(),
            1
        );
    }

    #[test]
    fn phase_events_line_up_with_the_occupancy_timeline() {
        let mut bus = bus();
        bus.enable_phase_events();
        let mut s = Mock::quiet();
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut s];
        bus.execute(
            &TransactionRequest::read(1, 0x40, MasterSignals::CA),
            &mut mods,
        )
        .unwrap();
        bus.execute(
            &TransactionRequest::write(1, 0x40, MasterSignals::IM, 0, &[9; 4]),
            &mut mods,
        )
        .unwrap();
        let events = bus.phase_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceKind::Read);
        assert_eq!(events[1].kind, TraceKind::Write);
        assert_eq!(events[0].start_ns, 0);
        let first_dur: Nanos = events[0].phase_ns.iter().sum();
        assert_eq!(events[1].start_ns, first_dur, "back-to-back on the bus");
        let total: Nanos = events.iter().flat_map(|e| e.phase_ns).sum();
        assert_eq!(total, bus.stats().busy_ns);
    }

    #[test]
    fn a_pending_stall_waits_until_the_victim_is_a_snooper() {
        let mut bus = bus();
        let mut victim = Mock::quiet();
        let mut other = Mock::quiet();
        bus.stall_module(0, true);
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut victim, &mut other];
        // Victim is the master here: the arm must hold its fire.
        bus.execute(
            &TransactionRequest::read(0, 0x40, MasterSignals::CA),
            &mut mods,
        )
        .unwrap();
        assert!(!bus.is_retired(0));
        // Now it snoops — and dies.
        bus.execute(
            &TransactionRequest::read(1, 0x40, MasterSignals::CA),
            &mut mods,
        )
        .unwrap();
        assert!(bus.is_retired(0));
    }
}
