//! The consistency oracle.
//!
//! The paper's correctness requirement (§1): "all references to a given
//! location, no matter from which processor they originate, should reference
//! the same value; i.e. the contents of the cache memories must be
//! consistent." Because the shared bus serialises transactions, the oracle
//! can maintain a *golden* memory image updated at every processor write and
//! verify, after any access, the structural invariants §3.1 implies:
//!
//! 1. **Unique ownership** — at most one cache holds a line in M or O.
//! 2. **Exclusivity** — a line in M or E in one cache has no other cached
//!    copy anywhere.
//! 3. **Shared image** — every *valid* cached copy equals the golden line
//!    ("the shared memory image ... is the set of all owned data"; S copies
//!    are consistent with the owner, whose data is the image).
//! 4. **Default owner** — when no cache owns a line, main memory holds the
//!    golden data (memory is the default owner).
//! 5. **Exclusive-clean** — an E copy matches main memory ("exclusive data
//!    must match the copy in main memory").
//!
//! Each copy must also sit in a state its client kind can hold (§3.3): a
//! write-through cache never owns, a non-caching one never holds a line.
//! A cluster is "one big cache" (§6), so one rule serves every bus: a tree
//! segment's holders are its child bridges, a leaf's or a flat bus's its
//! caches.

use cache_array::split_line_crossers;
use futurebus::{ChangeLog, SparseMemory};
use moesi::{CacheKind, LineState};
use std::fmt;

use crate::controller::CacheController;
use crate::fabric::Fabric;

/// A violation of the shared-memory-image invariants. A holder is named
/// `cpu{i}:{protocol}` for a cache (`{bridge}/cpu{i}:{protocol}` inside a
/// tree) and `cluster{i}` or `{parent}.{j}` for a bridge, with
/// ` (authoritative)` when its subtree's data is at fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// More than one cache owns the line.
    MultipleOwners {
        /// The line address.
        addr: u64,
        /// The offending node names.
        owners: Vec<String>,
    },
    /// A cache holds the line exclusively while another copy exists.
    ExclusivityViolated {
        /// The line address.
        addr: u64,
        /// The node claiming exclusivity.
        exclusive_holder: String,
        /// Another node holding a copy.
        other_holder: String,
    },
    /// A valid cached copy differs from the golden image.
    StaleCopy {
        /// The line address.
        addr: u64,
        /// The node holding the stale copy.
        holder: String,
        /// Its state.
        state: LineState,
    },
    /// No cache owns the line but memory differs from the golden image.
    StaleMemory {
        /// The line address.
        addr: u64,
    },
    /// An E-state copy differs from main memory.
    ExclusiveUnmodifiedDiffers {
        /// The line address.
        addr: u64,
        /// The node holding the E copy.
        holder: String,
    },
    /// A cache holds the line in a state its client kind never reaches
    /// (write-through never owns; non-caching never holds).
    IllegalStateForKind {
        /// The line address.
        addr: u64,
        /// The node holding the line.
        holder: String,
        /// Its state.
        state: LineState,
    },
    /// A bridge's inclusion tag is Invalid while its subtree still caches
    /// the line — the snoop filter would wrongly suppress forwards.
    InclusionHole {
        /// The line address.
        addr: u64,
        /// The bridge whose directory lost the line.
        bridge: String,
    },
    /// A processor read returned the wrong bytes.
    ReadMismatch {
        /// The processor that read.
        cpu: usize,
        /// The byte address.
        addr: u64,
        /// What it got.
        got: Vec<u8>,
        /// What the golden image says.
        expected: Vec<u8>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MultipleOwners { addr, owners } => {
                write!(f, "line {addr:#x} owned by multiple caches: {owners:?}")
            }
            Violation::ExclusivityViolated { addr, exclusive_holder, other_holder } => write!(
                f,
                "line {addr:#x}: {exclusive_holder} claims exclusivity but {other_holder} holds a copy"
            ),
            Violation::StaleCopy { addr, holder, state } => {
                write!(f, "line {addr:#x}: {holder} holds a stale {state} copy")
            }
            Violation::StaleMemory { addr } => {
                write!(f, "line {addr:#x}: unowned but memory is stale")
            }
            Violation::ExclusiveUnmodifiedDiffers { addr, holder } => {
                write!(f, "line {addr:#x}: E copy at {holder} differs from memory")
            }
            Violation::IllegalStateForKind { addr, holder, state } => write!(
                f,
                "line {addr:#x}: {holder} holds it in {state}, outside its kind's states"
            ),
            Violation::InclusionHole { addr, bridge } => write!(
                f,
                "line {addr:#x}: cached below {bridge} but its inclusion tag is invalid"
            ),
            Violation::ReadMismatch { cpu, addr, got, expected } => write!(
                f,
                "cpu{cpu} read {addr:#x}: got {got:?}, expected {expected:?}"
            ),
        }
    }
}

impl std::error::Error for Violation {}

/// One line under audit, as the per-line rule reads it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AuditLine<'a> {
    /// The line address (line-aligned).
    pub(crate) addr: u64,
    /// Its golden bytes.
    pub(crate) golden: &'a [u8],
    /// Whether the golden image was ever written there.
    pub(crate) written: bool,
    /// Whether rule 5 (an E copy matches memory) is enforced.
    pub(crate) exclusive_clean: bool,
}

/// A machine the oracle audits incrementally: a bare
/// [`Fabric`](crate::Fabric), or a [`System`](crate::System)'s root node.
/// Its components log their changes in the oracle's [`ChangeLog`].
pub(crate) trait Audited {
    /// Every invariant for one line. A line the full audit would not visit
    /// — never written, resident nowhere — passes. Adds each cache entry,
    /// inclusion tag and memory line it reads to `reads`.
    fn check_line(&self, line: AuditLine<'_>, reads: &mut u64) -> Result<(), Violation>;

    /// Appends every line the machine caches or tags (in any order, with
    /// repeats): with the written golden lines, the full audit's set.
    fn resident_lines(&self, out: &mut Vec<u64>);
}

/// Appends every line the caches of `controllers` hold, in any state.
pub(crate) fn cached_lines(controllers: &[CacheController], out: &mut Vec<u64>) {
    for ctrl in controllers {
        if let Some(cache) = ctrl.cache() {
            out.extend(cache.iter().map(|(addr, _)| addr));
        }
    }
}

/// What the oracle's per-access audits have done: deterministic counts,
/// the same on every host and in every build. A full audit that
/// [`verify`](Checker::verify) runs on request is not counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleWork {
    /// Audits that had at least one line to re-check. An access that
    /// logged nothing costs a drain of the empty log and no audit.
    pub audits: u64,
    /// Lines those audits re-checked.
    pub audited_lines: u64,
    /// Probes of the golden image's line index: one per line a write
    /// records, and one per line a read checks or an audit re-checks unless
    /// it is the line last looked up.
    pub golden_probes: u64,
    /// Cache entries, inclusion tags and memory lines the audits read.
    pub holder_reads: u64,
}

/// The golden-image oracle.
#[derive(Clone, Debug)]
pub struct Checker {
    golden: Golden,
    /// Whether invariant 5 (E matches memory) is enforced. It holds for every
    /// class member, but the adapted Write-Once protocol's E state is entered
    /// by a write-through whose memory update can be captured by an owner in
    /// mixed systems; homogeneous systems keep it on.
    pub check_exclusive_clean: bool,
    /// The machine's change log, shared with every component while the
    /// oracle audits incrementally; [`record_write`](Checker::record_write)
    /// logs its lines here too.
    log: Option<ChangeLog>,
    /// The lines an audit re-checks, drained from the log. Kept for its
    /// capacity.
    audit_lines: Vec<u64>,
    /// Whether the next [`check_changes`](Checker::check_changes) must
    /// re-check every line.
    full_audit: bool,
    work: OracleWork,
}

/// The golden image, and the line last looked up in it.
#[derive(Clone, Debug)]
struct Golden {
    /// Every written line in one slab, unwritten lines zero.
    image: SparseMemory,
    /// The last line a write recorded or a read checked, and its slot in
    /// `image` (`None`: never written). The access's audit finds that line
    /// here instead of probing again. Only
    /// [`record_write`](Checker::record_write) changes the image, and it
    /// sets the memo, so the memo is never stale.
    memo: Option<(u64, Option<usize>)>,
}

impl Checker {
    /// Creates an oracle for lines of `line_size` bytes (all zero initially,
    /// matching [`SparseMemory`]).
    ///
    /// # Panics
    ///
    /// Panics unless `line_size` is a non-zero power of two.
    #[must_use]
    pub fn new(line_size: usize) -> Self {
        Self::with_capacity(line_size, 0)
    }

    /// [`new`](Checker::new), with room in the golden image's index for
    /// `lines` written lines before it grows past its first size.
    ///
    /// # Panics
    ///
    /// As [`new`](Checker::new).
    #[must_use]
    pub(crate) fn with_capacity(line_size: usize, lines: usize) -> Self {
        Checker {
            golden: Golden {
                image: SparseMemory::with_capacity(line_size, lines),
                memo: None,
            },
            check_exclusive_clean: true,
            log: None,
            audit_lines: Vec::new(),
            full_audit: false,
            work: OracleWork::default(),
        }
    }

    /// Records a committed processor write of any alignment (the run loop
    /// is the serialisation point, standing in for the bus plus local cache
    /// order). A line's first write zero-fills the rest of it. Each line
    /// costs one probe of the golden index, which inserts it only on its
    /// first write.
    pub fn record_write(&mut self, addr: u64, bytes: &[u8]) {
        let image = &self.golden.image;
        let line_size = image.line_size();
        if addr - image.align(addr) + bytes.len() as u64 <= line_size as u64 {
            self.record_piece(addr, bytes);
        } else {
            let mut rest = bytes;
            for (piece_addr, len) in split_line_crossers(addr, bytes.len(), line_size) {
                let (piece, tail) = rest.split_at(len);
                rest = tail;
                self.record_piece(piece_addr, piece);
            }
        }
    }

    /// [`record_write`](Checker::record_write) of bytes within one line.
    fn record_piece(&mut self, addr: u64, bytes: &[u8]) {
        let line = self.golden.image.align(addr);
        if let Some(log) = &self.log {
            log.line(line);
        }
        self.work.golden_probes += 1;
        let slot = self
            .golden
            .image
            .write_bytes(line, (addr - line) as usize, bytes);
        self.golden.memo = Some((line, Some(slot)));
    }

    /// The golden bytes at `addr`; the range may span any number of lines.
    #[must_use]
    pub fn golden_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        self.golden.image.peek_bytes(addr, len)
    }

    /// Checks a completed processor read against the golden image. A match
    /// allocates nothing, and a read within one line costs at most one
    /// lookup, which the access's audit then reuses.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::ReadMismatch`] when the bytes differ.
    pub fn check_read(&mut self, cpu: usize, addr: u64, got: &[u8]) -> Result<(), Violation> {
        let line_size = self.golden.image.line_size();
        let (mut check, mut rest) = (self.read_check(addr), got);
        for (_, len) in split_line_crossers(addr, got.len(), line_size) {
            let (piece, tail) = rest.split_at(len);
            rest = tail;
            check.take(piece);
        }
        check.finish(cpu)
    }

    /// The check of a read at `addr`, to be fed the bytes it returns piece
    /// by piece, in address order, where they land. Each piece's line is
    /// looked up through the memo, which it leaves there for the access's
    /// audit.
    pub(crate) fn read_check(&mut self, addr: u64) -> ReadCheck<'_> {
        ReadCheck {
            golden: &mut self.golden,
            probes: &mut self.work.golden_probes,
            addr,
            taken: 0,
            got: None,
        }
    }

    /// The work the per-access audits have done so far.
    #[must_use]
    pub fn work(&self) -> OracleWork {
        self.work
    }

    /// Starts (or stops) logging the lines the machine and
    /// [`record_write`] change, for an incremental audit; returns the new
    /// log, for the machine's components. Changes made while the log was off
    /// are unknown, so the next [`check_changes`](Checker::check_changes)
    /// re-checks every line.
    ///
    /// [`record_write`]: Checker::record_write
    pub(crate) fn track_changes(&mut self, on: bool) -> Option<&ChangeLog> {
        self.log = on.then(ChangeLog::default);
        self.full_audit = true;
        self.log.as_ref()
    }

    /// Makes the next [`check_changes`](Checker::check_changes) a full one.
    pub(crate) fn force_full_audit(&mut self) {
        self.full_audit = true;
    }

    /// The per-access audit of `machine`. A line's invariants depend only on
    /// its own state and the previous audit passed, so re-checking the
    /// lines the oracle and the machine logged reports exactly what a full
    /// audit would; unloggable changes and a failed audit fall back to the
    /// full one. Debug builds assert as much.
    /// An access that changed nothing costs a look at the machine's one
    /// empty log, inlined into the caller, and every audit, full or not,
    /// reuses one list of lines. The log skips consecutive repeats, so an
    /// access that changed one line audits a list of one, unsorted.
    ///
    /// # Errors
    ///
    /// Returns the first violation among the audited lines.
    #[inline]
    pub(crate) fn check_changes(&mut self, machine: &mut impl Audited) -> Result<(), Violation> {
        // Debug builds always take the full path: its assertion holds the
        // incremental audit to a full one after every access.
        let unchanged = !self.full_audit && self.log.as_ref().is_some_and(ChangeLog::is_empty);
        if unchanged && !cfg!(debug_assertions) {
            return Ok(());
        }
        self.audit_changes(machine)
    }

    /// [`check_changes`](Checker::check_changes) past its no-change exit.
    fn audit_changes(&mut self, machine: &mut impl Audited) -> Result<(), Violation> {
        let Checker {
            golden,
            check_exclusive_clean: clean,
            log,
            audit_lines: lines,
            full_audit,
            work,
        } = self;
        let full = std::mem::take(full_audit) | log.as_ref().is_some_and(|l| l.drain_into(lines));
        let verdict = if full {
            golden.check_all(machine, *clean, lines, work)
        } else if lines.is_empty() {
            Ok(())
        } else {
            if lines.len() > 1 {
                lines.sort_unstable();
                lines.dedup();
            }
            golden.check_lines(machine, *clean, lines, work)
        };
        debug_assert_eq!(
            verdict,
            golden.check_all(machine, *clean, lines, &mut OracleWork::default()),
            "incremental audit diverged"
        );
        lines.clear();
        *full_audit = verdict.is_err();
        verdict
    }

    /// Every invariant of `machine` over every line, uncounted.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in line-address order.
    pub(crate) fn verify_machine(&self, machine: &impl Audited) -> Result<(), Violation> {
        let clean = self.check_exclusive_clean;
        let mut work = OracleWork::default();
        self.golden
            .check_all(machine, clean, &mut Vec::new(), &mut work)
    }

    /// Every invariant of the bus `fabric` over every line.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in line-address order.
    pub fn verify(&self, fabric: &Fabric) -> Result<(), Violation> {
        self.verify_machine(fabric)
    }
}

/// The oracle's check of one processor read, fed the bytes the read
/// returns piece by piece where they land — a cache line or the bus line
/// buffer — so a read is never copied to be checked.
pub(crate) struct ReadCheck<'c> {
    golden: &'c mut Golden,
    probes: &'c mut u64,
    addr: u64,
    /// The bytes taken so far: the whole read's once it is done.
    taken: usize,
    /// What the read got, from its first mismatching piece on (`None` while
    /// every piece matched). The pieces before it matched, so they are the
    /// golden bytes there.
    got: Option<Vec<u8>>,
}

impl ReadCheck<'_> {
    /// Compares the read's next piece, `bytes`, with the golden image.
    pub(crate) fn take(&mut self, bytes: &[u8]) {
        let (before, piece) = (self.taken, self.addr + self.taken as u64);
        self.taken += bytes.len();
        if let Some(got) = &mut self.got {
            got.extend_from_slice(bytes);
            return;
        }
        let line = self.golden.image.align(piece);
        let slot = self.golden.slot(line, self.probes);
        self.golden.memo = Some((line, slot));
        let offset = (piece - line) as usize;
        let golden = &self.golden.image.slot_line(slot)[offset..offset + bytes.len()];
        if !same_bytes(golden, bytes) {
            let mut got = self.golden.image.peek_bytes(self.addr, before);
            got.extend_from_slice(bytes);
            self.got = Some(got);
        }
    }

    /// The verdict on the whole read by processor `cpu`.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::ReadMismatch`] when some piece differed.
    pub(crate) fn finish(self, cpu: usize) -> Result<(), Violation> {
        match self.got {
            None => Ok(()),
            Some(got) => Err(Violation::ReadMismatch {
                cpu,
                addr: self.addr,
                got,
                expected: self.golden.image.peek_bytes(self.addr, self.taken),
            }),
        }
    }
}

impl Golden {
    /// The golden line `line` (line-aligned), borrowed, and whether it was
    /// ever written: from the memo when `line` is the last line looked up,
    /// else by one probe, counted in `probes`.
    #[inline]
    fn line(&self, line: u64, probes: &mut u64) -> (&[u8], bool) {
        let slot = self.slot(line, probes);
        (self.image.slot_line(slot), slot.is_some())
    }

    /// The slot of `line` (`None`: never written), from the memo when
    /// `line` is the last line looked up, else by one probe, counted in
    /// `probes`.
    fn slot(&self, line: u64, probes: &mut u64) -> Option<usize> {
        match self.memo {
            Some((memo, slot)) if memo == line => slot,
            _ => {
                *probes += 1;
                self.image.slot(line)
            }
        }
    }

    /// Every invariant of `machine` over every line: each written golden
    /// line and each line the machine caches or tags, in address order.
    /// Rule 5 is enforced when `exclusive_clean`; `lines` is scratch; the
    /// work is added to `work`.
    fn check_all(
        &self,
        machine: &impl Audited,
        exclusive_clean: bool,
        lines: &mut Vec<u64>,
        work: &mut OracleWork,
    ) -> Result<(), Violation> {
        lines.clear();
        lines.extend(self.image.lines());
        machine.resident_lines(lines);
        lines.sort_unstable();
        lines.dedup();
        self.check_lines(machine, exclusive_clean, lines, work)
    }

    /// Every invariant of `machine` over `lines`, in their order.
    fn check_lines(
        &self,
        machine: &impl Audited,
        exclusive_clean: bool,
        lines: &[u64],
        work: &mut OracleWork,
    ) -> Result<(), Violation> {
        work.audits += u64::from(!lines.is_empty());
        lines.iter().try_for_each(|&addr| {
            work.audited_lines += 1;
            let (golden, written) = self.line(addr, &mut work.golden_probes);
            let line = AuditLine {
                addr,
                golden,
                written,
                exclusive_clean,
            };
            machine.check_line(line, &mut work.holder_reads)
        })
    }
}

/// The holders of a line on one bus segment, named and read again only for
/// a violation: a leaf's caches, or a tree segment's child bridges.
pub(crate) trait Holders {
    /// Each holder's state of `line`, in holder order.
    fn states(&self, line: u64) -> impl Iterator<Item = LineState>;

    /// The name of the `index`-th holder.
    fn name(&self, index: usize) -> String;

    /// The name of where the `index`-th holder's data lives, for a
    /// violation about that data.
    fn data_name(&self, index: usize) -> String {
        self.name(index)
    }
}

/// The rule one line breaks on one bus segment, by holder index: the small
/// code a check carries, named as a [`Violation`] only when a line fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Breach {
    /// Rule 1: more than one holder owns the line.
    MultipleOwners,
    /// Rule 2: this holder's M or E copy has company.
    Exclusivity(usize),
    /// Rule 3: this holder's valid copy is not golden.
    StaleCopy(usize),
    /// Rule 5: this holder's E copy differs from memory.
    ExclusiveClean(usize),
    /// Rule 4: no holder owns the line and memory is not golden.
    StaleMemory,
    /// This holder has the line in a state outside its kind's.
    OutsideKind(usize),
    /// This holder, a bridge, tags the line Invalid over a valid copy below.
    InclusionHole(usize),
}

impl Breach {
    /// The violation of line `addr` among `holders`, with their names and
    /// states read again.
    pub(crate) fn violation(self, addr: u64, holders: &impl Holders) -> Violation {
        let state = |index| holders.states(addr).nth(index).expect("a holder");
        match self {
            Breach::MultipleOwners => Violation::MultipleOwners {
                addr,
                owners: holders
                    .states(addr)
                    .enumerate()
                    .filter(|(_, state)| state.is_owned())
                    .map(|(index, _)| holders.name(index))
                    .collect(),
            },
            Breach::Exclusivity(excl) => {
                let other = holders
                    .states(addr)
                    .enumerate()
                    .position(|(index, state)| index != excl && state.is_valid())
                    .expect("an exclusivity breach has another valid copy");
                Violation::ExclusivityViolated {
                    addr,
                    exclusive_holder: holders.name(excl),
                    other_holder: holders.name(other),
                }
            }
            Breach::StaleCopy(index) => Violation::StaleCopy {
                addr,
                holder: holders.data_name(index),
                state: state(index),
            },
            Breach::ExclusiveClean(index) => Violation::ExclusiveUnmodifiedDiffers {
                addr,
                holder: holders.data_name(index),
            },
            Breach::StaleMemory => Violation::StaleMemory { addr },
            Breach::OutsideKind(index) => Violation::IllegalStateForKind {
                addr,
                holder: holders.name(index),
                state: state(index),
            },
            Breach::InclusionHole(index) => Violation::InclusionHole {
                addr,
                bridge: holders.name(index),
            },
        }
    }
}

/// `state` as one bit of a state set.
const fn state_bit(state: LineState) -> u8 {
    1 << state as u8
}

/// `states` as a set of [`state_bit`]s.
const fn state_set(states: &[LineState]) -> u8 {
    let (mut set, mut i) = (0, 0);
    while i < states.len() {
        set |= state_bit(states[i]);
        i += 1;
    }
    set
}

/// The states a cache of `kind` may hold (§3.3), one constant per kind.
pub(crate) fn kind_states(kind: CacheKind) -> u8 {
    match kind {
        CacheKind::CopyBack => const { state_set(CacheKind::CopyBack.reachable_states()) },
        CacheKind::WriteThrough => const { state_set(CacheKind::WriteThrough.reachable_states()) },
        CacheKind::NonCaching => const { state_set(CacheKind::NonCaching.reachable_states()) },
    }
}

/// Whether `a` and `b` hold the same bytes, compared as fixed-width words
/// with no library call: a line of a standard size (§5.1) 8 bytes at a
/// time, an access of up to 8 bytes as two overlapping loads. Any other
/// length compares as slices.
#[inline(always)]
pub(crate) fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    /// The `N` bytes at `i` of `a` XOR those of `b`, as one word.
    #[inline(always)]
    fn xor<const N: usize>(a: &[u8], b: &[u8], i: usize) -> u64 {
        let word = |s: &[u8]| {
            let mut w = [0; 8];
            w[..N].copy_from_slice(&s[i..i + N]);
            u64::from_ne_bytes(w)
        };
        word(a) ^ word(b)
    }
    /// The first `W` words of `a` XOR those of `b`, ORed together.
    #[inline(always)]
    fn words<const W: usize>(a: &[u8], b: &[u8]) -> u64 {
        let (mut diff, mut w) = (0, 0);
        while w < W {
            diff |= xor::<8>(a, b, 8 * w);
            w += 1;
        }
        diff
    }
    let n = a.len();
    let diff = match n {
        _ if n != b.len() => return false,
        0 => 0,
        1 => xor::<1>(a, b, 0),
        2..=3 => xor::<2>(a, b, 0) | xor::<2>(a, b, n - 2),
        4..=7 => xor::<4>(a, b, 0) | xor::<4>(a, b, n - 4),
        8 => words::<1>(a, b),
        16 => words::<2>(a, b),
        32 => words::<4>(a, b),
        64 => words::<8>(a, b),
        _ => return a == b,
    };
    diff == 0
}

/// No holder yet: the first-holder fields' empty value.
const NONE: usize = usize::MAX;

/// The first holder index among `first` and `index`, where `index` counts
/// only when `hit`: a select, not a branch.
fn first(first: usize, index: usize, hit: bool) -> usize {
    first.min(if hit { index } else { NONE })
}

/// A segment memory's copy of the audited line, read at most once.
#[derive(Clone, Copy)]
pub(crate) struct MemoryLine<'a> {
    memory: &'a SparseMemory,
    bytes: Option<&'a [u8]>,
}

impl<'a> MemoryLine<'a> {
    /// `memory`'s line, not read yet.
    pub(crate) fn new(memory: &'a SparseMemory) -> Self {
        MemoryLine {
            memory,
            bytes: None,
        }
    }

    /// The line at `addr`, read (and counted in `reads`) on the first call.
    pub(crate) fn get(&mut self, addr: u64, reads: &mut u64) -> &'a [u8] {
        self.bytes.get_or_insert_with(|| {
            *reads += 1;
            self.memory.peek(addr)
        })
    }
}

/// The shared-memory-image rule for one line over the holders on one bus
/// segment: invariants 1–5 and the kind subsets. Adding a holder is flat
/// integer work — counts, state-bit tests and first-holder selects, plus
/// one line compare — so a passing line takes no data-dependent branch;
/// the verdict is a [`Breach`] code.
#[derive(Clone, Copy)]
pub(crate) struct LineRule<'a> {
    golden: &'a [u8],
    /// The state bits of every holder that has the line, in any state.
    /// A full word: the rule is built and then copied whole, and a copy
    /// that reads a narrower store back stalls.
    seen: usize,
    /// Holders with a valid copy.
    pub(crate) holders: usize,
    owners: usize,
    /// The first holders with an M or E copy, with an E copy, with a stale
    /// copy, and with a copy outside its kind's states ([`NONE`]: none).
    exclusive: usize,
    clean_exclusive: usize,
    stale: usize,
    outside_kind: usize,
}

/// The valid states, the owned ones (M, O) and the exclusive ones (M, E).
const VALID: u8 = !state_bit(LineState::Invalid);
const OWNED: u8 = state_set(&[LineState::Modified, LineState::Owned]);
const EXCLUSIVE: u8 = state_set(&[LineState::Modified, LineState::Exclusive]);

impl<'a> LineRule<'a> {
    /// The rule for a line whose golden bytes are `golden`.
    pub(crate) fn new(golden: &'a [u8]) -> Self {
        LineRule {
            golden,
            seen: 0,
            holders: 0,
            owners: 0,
            exclusive: NONE,
            clean_exclusive: NONE,
            stale: NONE,
            outside_kind: NONE,
        }
    }

    /// Whether some holder has the line, in any state.
    pub(crate) fn resident(&self) -> bool {
        self.seen != 0
    }

    /// Adds the `index`-th holder, which has the line in `state` with the
    /// bytes `data` and may hold the states in `kind_states`. An Invalid
    /// holder's bytes are not compared.
    #[inline]
    pub(crate) fn add(&mut self, index: usize, state: LineState, kind_states: u8, data: &[u8]) {
        let bit = state_bit(state);
        let valid = bit & VALID != 0;
        self.seen |= usize::from(bit);
        self.holders += usize::from(valid);
        self.owners += usize::from(bit & OWNED != 0);
        self.exclusive = first(self.exclusive, index, bit & EXCLUSIVE != 0);
        self.clean_exclusive = first(self.clean_exclusive, index, state == LineState::Exclusive);
        self.stale = first(self.stale, index, valid & !same_bytes(data, self.golden));
        self.outside_kind = first(self.outside_kind, index, bit & VALID & !kind_states != 0);
    }

    /// Adds every cache of `controllers` that has line `addr`, reading each
    /// entry once (counted in `reads`); returns the first owned copy's data.
    #[inline]
    pub(crate) fn add_caches<'c>(
        &mut self,
        controllers: &'c [CacheController],
        addr: u64,
        reads: &mut u64,
    ) -> Option<&'c [u8]> {
        // A local copy stays in registers across the lookups.
        let (mut rule, mut owned, mut lookups) = (*self, None, 0);
        for (index, ctrl) in controllers.iter().enumerate() {
            let Some(cache) = ctrl.cache() else {
                continue;
            };
            lookups += 1;
            let Some(entry) = cache.lookup(addr) else {
                continue;
            };
            if owned.is_none() && entry.state.is_owned() {
                owned = Some(entry.data);
            }
            rule.add(index, entry.state, kind_states(ctrl.kind()), entry.data);
        }
        *self = rule;
        *reads += lookups;
        owned
    }

    /// The rule's verdict on `line`, with `memory` the segment's own
    /// memory. The two rules that read memory (4 and 5) are skipped when it
    /// is `None`: a subtree's memory is authoritative only while the tag
    /// above it is valid. Memory is read only for the rules that need it,
    /// and at most once.
    #[inline]
    pub(crate) fn verdict(
        &self,
        line: &AuditLine<'_>,
        memory: Option<&mut MemoryLine<'_>>,
        reads: &mut u64,
    ) -> Option<Breach> {
        // 1. Unique ownership.
        if self.owners > 1 {
            return Some(Breach::MultipleOwners);
        }
        // 2. Exclusivity: the exclusive copy is one of the valid ones.
        if self.exclusive != NONE && self.holders > 1 {
            return Some(Breach::Exclusivity(self.exclusive));
        }
        // 3. Every valid copy equals the golden image.
        if self.stale != NONE {
            return Some(Breach::StaleCopy(self.stale));
        }
        // 5. Exclusive-unmodified copies match memory (checked before the
        // default-owner rule so the more specific violation is reported),
        // then 4. memory is the default owner.
        let clean_exclusive =
            Some(self.clean_exclusive).filter(|&i| i != NONE && line.exclusive_clean);
        if let Some(memory) = memory {
            if (clean_exclusive.is_some() || self.owners == 0)
                && !same_bytes(memory.get(line.addr, reads), line.golden)
            {
                return Some(match clean_exclusive {
                    Some(index) => Breach::ExclusiveClean(index),
                    None => Breach::StaleMemory,
                });
            }
        }
        // Kind subsets: write-through never owns, non-caching never holds.
        (self.outside_kind != NONE).then_some(Breach::OutsideKind(self.outside_kind))
    }
}

/// The caches on one leaf bus as holders (added by
/// [`LineRule::add_caches`]). Inside a tree, `bridge` names the bridge above
/// them and prefixes each cache's name.
pub(crate) struct Caches<'a> {
    pub(crate) controllers: &'a [CacheController],
    pub(crate) bridge: Option<&'a dyn fmt::Display>,
}

impl Holders for Caches<'_> {
    fn states(&self, line: u64) -> impl Iterator<Item = LineState> {
        self.controllers.iter().map(move |c| c.state_of(line))
    }

    fn name(&self, index: usize) -> String {
        let name = self.controllers[index].name();
        match self.bridge {
            Some(bridge) => format!("{bridge}/{name}"),
            None => name.to_string(),
        }
    }
}

/// One bus: a segment whose holders are its caches and whose memory is main
/// memory.
impl Audited for Fabric {
    fn check_line(&self, line: AuditLine<'_>, reads: &mut u64) -> Result<(), Violation> {
        debug_assert_eq!(
            line.addr,
            self.line_addr(line.addr),
            "audited lines are aligned"
        );
        let mut rule = LineRule::new(line.golden);
        rule.add_caches(self.controllers(), line.addr, reads);
        if !line.written && !rule.resident() {
            return Ok(());
        }
        let mut memory = MemoryLine::new(self.bus().memory());
        match rule.verdict(&line, Some(&mut memory), reads) {
            None => Ok(()),
            Some(breach) => Err(breach.violation(
                line.addr,
                &Caches {
                    controllers: self.controllers(),
                    bridge: None,
                },
            )),
        }
    }

    fn resident_lines(&self, out: &mut Vec<u64>) {
        cached_lines(self.controllers(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_array::CacheConfig;
    use moesi::protocols::moesi_preferred;

    fn ctrl(id: usize) -> CacheController {
        CacheController::new(
            id,
            Box::new(moesi_preferred()),
            Some(CacheConfig::new(
                1024,
                16,
                2,
                cache_array::ReplacementKind::Lru,
            )),
            1,
        )
    }

    /// The full audit of a flat bus holding `controllers`, its memory a
    /// copy of `memory`.
    fn verify(
        ck: &Checker,
        controllers: Vec<CacheController>,
        memory: &SparseMemory,
    ) -> Result<(), Violation> {
        let mut fabric = Fabric::new(16, futurebus::TimingConfig::default(), controllers);
        for line in memory.lines() {
            fabric
                .bus_mut()
                .memory_mut()
                .write_line(line, memory.peek(line));
        }
        ck.verify(&fabric)
    }

    #[test]
    fn golden_image_starts_zeroed_and_tracks_writes() {
        let mut ck = Checker::new(16);
        assert_eq!(ck.golden_bytes(0x104, 4), vec![0; 4]);
        ck.record_write(0x104, &[1, 2, 3, 4]);
        assert_eq!(ck.golden_bytes(0x104, 4), vec![1, 2, 3, 4]);
        assert_eq!(
            ck.golden_bytes(0x100, 4),
            vec![0; 4],
            "rest of line untouched"
        );
    }

    #[test]
    fn a_first_partial_write_zero_fills_the_rest_of_its_line() {
        let mut ck = Checker::new(16);
        ck.record_write(0x10, &[0xFF; 16]); // a neighbour, in the slab first
        ck.record_write(0x26, &[7, 8]);
        let mut line = [0u8; 16];
        line[6..8].copy_from_slice(&[7, 8]);
        assert_eq!(ck.golden.line(0x20, &mut 0), (&line[..], true));
        assert_eq!(ck.golden.line(0x30, &mut 0), (&[0u8; 16][..], false));
        ck.record_write(0x2F, &[9]);
        line[15] = 9;
        assert_eq!(ck.golden_bytes(0x20, 16), line, "rewrites keep the rest");
        assert_eq!(ck.golden_bytes(0x10, 16), vec![0xFF; 16]);
    }

    #[test]
    fn read_checks_span_a_written_and_an_unwritten_line() {
        let mut ck = Checker::new(16);
        ck.record_write(0x1C, &[1, 2, 3, 4]); // the line below 0x20 only
        let got = [1, 2, 3, 4, 0, 0];
        assert_eq!(ck.check_read(0, 0x1C, &got), Ok(()));
        assert_eq!(
            ck.check_read(2, 0x1C, &[1, 2, 3, 4, 0, 5]),
            Err(Violation::ReadMismatch {
                cpu: 2,
                addr: 0x1C,
                got: vec![1, 2, 3, 4, 0, 5],
                expected: got.to_vec(),
            })
        );
        // The same with the written side above the boundary.
        let mut ck = Checker::new(16);
        ck.record_write(0x20, &[6, 7]);
        assert_eq!(ck.check_read(0, 0x1E, &[0, 0, 6, 7]), Ok(()));
        assert!(ck.check_read(0, 0x1E, &[0, 1, 6, 7]).is_err());
    }

    #[test]
    fn the_audit_sees_golden_writes_the_machine_never_logged() {
        // The oracle logs its own writes whatever the machine logs, so a
        // write the machine lost is still audited.
        let mut fabric = Fabric::new(16, futurebus::TimingConfig::default(), vec![ctrl(0)]);
        let mut ck = Checker::new(16);
        ck.track_changes(true); // the fabric is never handed the log
        assert_eq!(
            ck.check_changes(&mut fabric),
            Ok(()),
            "the first, full audit"
        );
        ck.record_write(0x104, &[1]);
        assert_eq!(
            ck.check_changes(&mut fabric),
            Err(Violation::StaleMemory { addr: 0x100 })
        );
    }

    #[test]
    fn a_line_logged_again_after_its_audit_is_audited_again() {
        let mut fabric = Fabric::new(16, futurebus::TimingConfig::default(), vec![ctrl(0)]);
        let mut ck = Checker::new(16);
        fabric.track_changes(ck.track_changes(true));
        assert_eq!(
            ck.check_changes(&mut fabric),
            Ok(()),
            "the first, full audit"
        );
        // A, A, B, A: only the repeat is skipped, and the audit re-checks
        // each distinct line once.
        for line in [0x100, 0x100, 0x200, 0x100] {
            fabric.bus_mut().memory_mut().write_line(line, &[0; 16]);
        }
        assert_eq!(ck.check_changes(&mut fabric), Ok(()));
        assert_eq!(ck.work().audited_lines, 2);
        // Drained, then logged again: audited again.
        fabric.bus_mut().memory_mut().write_line(0x100, &[0; 16]);
        assert_eq!(ck.check_changes(&mut fabric), Ok(()));
        assert_eq!(
            ck.work(),
            OracleWork {
                audits: 2,
                audited_lines: 3,
                golden_probes: 3,
                holder_reads: 3,
            },
            "a written-nowhere line costs a golden probe and a cache lookup"
        );
    }

    #[test]
    fn an_access_and_its_audit_share_one_golden_probe() {
        let mut fabric = Fabric::new(16, futurebus::TimingConfig::default(), vec![ctrl(0)]);
        let mut ck = Checker::new(16);
        fabric.track_changes(ck.track_changes(true));
        assert_eq!(
            ck.check_changes(&mut fabric),
            Ok(()),
            "the first, full audit"
        );
        ck.record_write(0x104, &[1]);
        fabric.bus_mut().memory_mut().write_bytes(0x100, 4, &[1]);
        assert_eq!(ck.check_changes(&mut fabric), Ok(()));
        assert_eq!(
            ck.work().golden_probes,
            1,
            "the audit reused the write's lookup"
        );
        // A read of another line moves the memo there; the next audit of
        // the written line probes for it again, and still finds it golden.
        assert_eq!(ck.check_read(0, 0x200, &[0]), Ok(()));
        fabric.bus_mut().memory_mut().write_bytes(0x100, 4, &[1]);
        assert_eq!(ck.check_changes(&mut fabric), Ok(()));
        assert_eq!(ck.work().golden_probes, 3);
        // An unwritten line's memo says so: memory holding anything but
        // zeros there is stale.
        assert_eq!(ck.check_read(0, 0x300, &[0]), Ok(()));
        fabric.bus_mut().memory_mut().write_bytes(0x300, 0, &[5]);
        fabric
            .controller_mut(0)
            .fill(0x300, LineState::Shareable, &[0; 16], &mut Vec::new());
        assert_eq!(
            ck.check_changes(&mut fabric),
            Err(Violation::StaleMemory { addr: 0x300 })
        );
        assert_eq!(ck.work().golden_probes, 4);
    }

    #[test]
    fn read_checks_catch_wrong_values() {
        let mut ck = Checker::new(16);
        ck.record_write(0x10, &[9]);
        assert!(ck.check_read(0, 0x10, &[9]).is_ok());
        let err = ck.check_read(1, 0x10, &[8]).unwrap_err();
        assert!(matches!(err, Violation::ReadMismatch { cpu: 1, .. }));
        assert!(err.to_string().contains("cpu1"));
    }

    #[test]
    fn detects_multiple_owners() {
        let mut a = ctrl(0);
        let mut b = ctrl(1);
        a.fill(0x100, LineState::Modified, &[0; 16], &mut Vec::new());
        b.fill(0x100, LineState::Owned, &[0; 16], &mut Vec::new());
        let ck = Checker::new(16);
        let mem = SparseMemory::new(16);
        let err = verify(&ck, vec![a, b], &mem).unwrap_err();
        assert!(matches!(err, Violation::MultipleOwners { .. }));
    }

    #[test]
    fn detects_exclusivity_violation() {
        let mut a = ctrl(0);
        let mut b = ctrl(1);
        // Give the E holder golden (zero) data so the stale-copy check
        // doesn't fire first.
        a.fill(0x100, LineState::Exclusive, &[0; 16], &mut Vec::new());
        b.fill(0x100, LineState::Shareable, &[0; 16], &mut Vec::new());
        let ck = Checker::new(16);
        let mem = SparseMemory::new(16);
        let err = verify(&ck, vec![a, b], &mem).unwrap_err();
        assert!(matches!(err, Violation::ExclusivityViolated { .. }));
    }

    #[test]
    fn exclusivity_names_the_exclusive_holder_and_the_first_other_copy() {
        // Three copies; the E holder is not the first controller, so the
        // reported other holder comes before it.
        let mut a = ctrl(0);
        let mut b = ctrl(1);
        let mut c = ctrl(2);
        a.fill(0x100, LineState::Shareable, &[0; 16], &mut Vec::new());
        b.fill(0x100, LineState::Exclusive, &[0; 16], &mut Vec::new());
        c.fill(0x100, LineState::Shareable, &[0; 16], &mut Vec::new());
        let ck = Checker::new(16);
        assert_eq!(
            verify(&ck, vec![a, b, c], &SparseMemory::new(16)),
            Err(Violation::ExclusivityViolated {
                addr: 0x100,
                exclusive_holder: "cpu1:MOESI".into(),
                other_holder: "cpu0:MOESI".into(),
            })
        );
    }

    #[test]
    fn multiple_owners_lists_every_owner_in_controller_order() {
        let mut a = ctrl(0);
        let mut b = ctrl(1);
        let mut c = ctrl(2);
        a.fill(0x100, LineState::Modified, &[0; 16], &mut Vec::new());
        b.fill(0x100, LineState::Shareable, &[0; 16], &mut Vec::new());
        c.fill(0x100, LineState::Owned, &[0; 16], &mut Vec::new());
        let ck = Checker::new(16);
        assert_eq!(
            verify(&ck, vec![a, b, c], &SparseMemory::new(16)),
            Err(Violation::MultipleOwners {
                addr: 0x100,
                owners: vec!["cpu0:MOESI".into(), "cpu2:MOESI".into()],
            })
        );
    }

    #[test]
    fn detects_stale_copy_and_stale_memory() {
        let mut a = ctrl(0);
        a.fill(0x100, LineState::Shareable, &[0; 16], &mut Vec::new());
        let mut ck = Checker::new(16);
        ck.record_write(0x100, &[1]);
        let mem = SparseMemory::new(16);
        let err = verify(&ck, vec![a], &mem).unwrap_err();
        assert!(matches!(err, Violation::StaleCopy { .. }));

        // Now with no cached copy at all: memory must hold the golden data.
        let b = ctrl(1);
        let err = verify(&ck, vec![b], &mem).unwrap_err();
        assert!(matches!(err, Violation::StaleMemory { addr: 0x100 }));
    }

    #[test]
    fn detects_dirty_exclusive_unmodified() {
        let mut a = ctrl(0);
        let mut ck = Checker::new(16);
        ck.record_write(0x100, &[7]);
        let mut line = vec![0u8; 16];
        line[0] = 7;
        a.fill(0x100, LineState::Exclusive, &line, &mut Vec::new());
        let mem = SparseMemory::new(16); // memory still zero: E must match it
        let err = verify(&ck, vec![a], &mem).unwrap_err();
        assert!(matches!(err, Violation::ExclusiveUnmodifiedDiffers { .. }));
    }

    #[test]
    fn detects_a_write_through_cache_that_owns() {
        use moesi::protocols::write_through;
        let mut wt = CacheController::new(
            0,
            Box::new(write_through()),
            Some(CacheConfig::new(
                1024,
                16,
                2,
                cache_array::ReplacementKind::Lru,
            )),
            1,
        );
        wt.fill(0x100, LineState::Owned, &[0; 16], &mut Vec::new());
        let ck = Checker::new(16);
        let err = verify(&ck, vec![wt], &SparseMemory::new(16)).unwrap_err();
        assert!(
            matches!(
                err,
                Violation::IllegalStateForKind {
                    addr: 0x100,
                    state: LineState::Owned,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("outside its kind's states"));
    }

    #[test]
    fn consistent_system_passes() {
        let mut a = ctrl(0);
        let mut b = ctrl(1);
        let mut ck = Checker::new(16);
        let mut mem = SparseMemory::new(16);
        ck.record_write(0x100, &[3]);
        let mut line = vec![0u8; 16];
        line[0] = 3;
        // One owner with golden data, one sharer, memory stale — legal.
        a.fill(0x100, LineState::Owned, &line, &mut Vec::new());
        b.fill(0x100, LineState::Shareable, &line, &mut Vec::new());
        assert_eq!(verify(&ck, vec![a, b], &mem), Ok(()));

        // An M holder alone is also legal with stale memory.
        let mut c = ctrl(2);
        c.fill(0x100, LineState::Modified, &line, &mut Vec::new());
        assert_eq!(verify(&ck, vec![c], &mem), Ok(()));

        // With memory updated and the line unowned everywhere: also legal.
        mem.write_line(0x100, &line);
        let d = ctrl(3);
        assert_eq!(verify(&ck, vec![d], &mem), Ok(()));
    }
}
