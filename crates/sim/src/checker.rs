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

use cache_array::split_line_crossers;
use futurebus::SparseMemory;
use moesi::LineState;
use std::fmt;

use crate::controller::CacheController;

/// A violation of the shared-memory-image invariants.
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

/// A machine the oracle audits incrementally: the flat bus's
/// [`Fabric`](crate::Fabric) or a fabric tree's root segment.
pub(crate) trait Audited {
    /// Moves the lines the machine changed since the last drain into `out`;
    /// true when a change was too broad to log line by line.
    fn drain_changed_lines(&mut self, out: &mut Vec<u64>) -> bool;

    /// Every invariant over `lines` (sorted, distinct, line-aligned). Lines
    /// the full audit would not visit pass.
    fn check_lines(&self, ck: &Checker, lines: &[u64]) -> Result<(), Violation>;

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

/// The golden-image oracle.
#[derive(Clone, Debug)]
pub struct Checker {
    /// The golden image: every written line in one slab, unwritten lines
    /// zero.
    golden: SparseMemory,
    /// Whether invariant 5 (E matches memory) is enforced. It holds for every
    /// class member, but the adapted Write-Once protocol's E state is entered
    /// by a write-through whose memory update can be captured by an owner in
    /// mixed systems; homogeneous systems keep it on.
    pub check_exclusive_clean: bool,
    /// Whether [`record_write`](Checker::record_write) feeds `audit_lines`.
    logging: bool,
    /// The lines the next incremental audit re-checks: the oracle's own
    /// writes, then the machine's drained logs. Kept for its capacity.
    audit_lines: Vec<u64>,
    /// Whether the next [`audit`](Checker::audit) must re-check every line.
    full_audit: bool,
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
        Checker {
            golden: SparseMemory::new(line_size),
            check_exclusive_clean: true,
            logging: false,
            audit_lines: Vec::new(),
            full_audit: false,
        }
    }

    /// Records a committed processor write (the run loop is the serialisation
    /// point, standing in for the bus plus local cache order). A line's first
    /// write zero-fills the rest of it.
    ///
    /// # Panics
    ///
    /// Panics when the write crosses a line boundary.
    pub fn record_write(&mut self, addr: u64, bytes: &[u8]) {
        let line = self.golden.align(addr);
        if self.logging {
            self.audit_lines.push(line);
        }
        self.golden.write_bytes(line, (addr - line) as usize, bytes);
    }

    /// The golden line containing `addr`, borrowed, and whether it was ever
    /// written.
    pub(crate) fn golden_line(&self, addr: u64) -> (&[u8], bool) {
        self.golden.peek_written(addr)
    }

    /// The golden bytes of each line-bounded piece of `len` bytes at `addr`,
    /// borrowed, in address order.
    fn golden_pieces(&self, addr: u64, len: usize) -> impl Iterator<Item = &[u8]> {
        split_line_crossers(addr, len, self.golden.line_size()).map(|(piece, n)| {
            let offset = (piece - self.golden.align(piece)) as usize;
            &self.golden.peek(piece)[offset..offset + n]
        })
    }

    /// The golden bytes at `addr`; the range may span any number of lines.
    #[must_use]
    pub fn golden_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        self.golden.peek_bytes(addr, len)
    }

    /// Checks a completed processor read against the golden image. A match
    /// allocates nothing, and a read within one line costs one lookup.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::ReadMismatch`] when the bytes differ.
    pub fn check_read(&self, cpu: usize, addr: u64, got: &[u8]) -> Result<(), Violation> {
        let offset = (addr - self.golden.align(addr)) as usize;
        let matches = if offset + got.len() <= self.golden.line_size() {
            self.golden.peek(addr)[offset..offset + got.len()] == *got
        } else {
            let mut rest = got;
            self.golden_pieces(addr, got.len()).all(|golden| {
                let (head, tail) = rest.split_at(golden.len());
                rest = tail;
                head == golden
            })
        };
        if matches {
            Ok(())
        } else {
            Err(Violation::ReadMismatch {
                cpu,
                addr,
                got: got.to_vec(),
                expected: self.golden_bytes(addr, got.len()),
            })
        }
    }

    /// Starts (or stops) logging the lines [`record_write`] touches, for an
    /// incremental audit. Changes made while the log was off are unknown, so
    /// the next [`audit`](Checker::audit) re-checks every line.
    ///
    /// [`record_write`]: Checker::record_write
    pub(crate) fn track_changes(&mut self, on: bool) {
        self.logging = on;
        self.audit_lines.clear();
        self.full_audit = true;
    }

    /// Makes the next [`audit`](Checker::audit) a full one.
    pub(crate) fn force_full_audit(&mut self) {
        self.full_audit = true;
    }

    /// The per-access audit of `machine`, shared by both machines. A line's
    /// invariants depend only on its own state and the previous audit
    /// passed, so re-checking the lines the oracle and the machine logged
    /// reports exactly what a full audit would; unloggable changes and a
    /// failed audit fall back to the full one. Debug builds assert as much.
    /// An access that changed nothing costs a drain of each empty log, and
    /// every audit, full or not, reuses one list of lines.
    ///
    /// # Errors
    ///
    /// Returns the first violation among the audited lines.
    pub(crate) fn audit(&mut self, machine: &mut impl Audited) -> Result<(), Violation> {
        let mut lines = std::mem::take(&mut self.audit_lines);
        let full = std::mem::take(&mut self.full_audit) | machine.drain_changed_lines(&mut lines);
        let verdict = if full {
            self.check_all(machine, &mut lines)
        } else if lines.is_empty() {
            Ok(())
        } else {
            if lines.len() > 1 {
                lines.sort_unstable();
                lines.dedup();
            }
            machine.check_lines(self, &lines)
        };
        debug_assert_eq!(
            verdict,
            self.check_all(machine, &mut lines),
            "incremental audit diverged"
        );
        lines.clear();
        self.audit_lines = lines;
        self.full_audit = verdict.is_err();
        verdict
    }

    /// Every invariant of `machine` over every line: each written golden
    /// line and each line the machine caches or tags, in address order.
    /// `lines` is scratch.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub(crate) fn check_all(
        &self,
        machine: &impl Audited,
        lines: &mut Vec<u64>,
    ) -> Result<(), Violation> {
        lines.clear();
        lines.extend(self.golden.lines());
        machine.resident_lines(lines);
        lines.sort_unstable();
        lines.dedup();
        machine.check_lines(self, lines)
    }

    /// Verifies all structural invariants over the caches and memory.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in line-address order.
    pub fn verify(
        &self,
        controllers: &[CacheController],
        memory: &SparseMemory,
    ) -> Result<(), Violation> {
        let mut lines: Vec<u64> = self.golden.lines().collect();
        cached_lines(controllers, &mut lines);
        lines.sort_unstable();
        lines.dedup();
        self.verify_lines(&lines, controllers, memory)
    }

    /// [`verify`](Checker::verify) restricted to `lines` (sorted, distinct,
    /// line-aligned): the incremental audit. Lines the full audit would not
    /// visit — neither golden nor cached anywhere — are skipped, so on the
    /// lines an access touched the verdict is exactly the full audit's.
    ///
    /// # Errors
    ///
    /// Returns the first violation among `lines`.
    pub(crate) fn verify_lines(
        &self,
        lines: &[u64],
        controllers: &[CacheController],
        memory: &SparseMemory,
    ) -> Result<(), Violation> {
        for &addr in lines {
            self.check_line(addr, controllers, memory)?;
        }
        Ok(())
    }

    /// Invariants 1–5 and the kind subsets for one line. A line neither
    /// golden nor resident anywhere is outside the audited set and passes.
    /// One pass reads each cache entry once and keeps counts and first
    /// holders; holder names are looked up again only for a violation.
    fn check_line(
        &self,
        addr: u64,
        controllers: &[CacheController],
        memory: &SparseMemory,
    ) -> Result<(), Violation> {
        debug_assert_eq!(addr, self.golden.align(addr), "audited lines are aligned");
        let (golden, written) = self.golden_line(addr);
        let mut resident = false;
        let mut owners = 0usize;
        let mut holders = 0usize;
        let mut exclusive: Option<&CacheController> = None;
        let mut clean_exclusive: Option<&CacheController> = None;
        let mut stale: Option<(&CacheController, LineState)> = None;
        let mut outside_kind: Option<(&CacheController, LineState)> = None;
        for ctrl in controllers {
            let Some(entry) = ctrl.cache().and_then(|c| c.lookup(addr)) else {
                continue;
            };
            resident = true;
            let state = entry.state;
            if !state.is_valid() {
                continue;
            }
            holders += 1;
            owners += usize::from(state.is_owned());
            if state.is_exclusive() && exclusive.is_none() {
                exclusive = Some(ctrl);
            }
            if state == LineState::Exclusive && clean_exclusive.is_none() {
                clean_exclusive = Some(ctrl);
            }
            if stale.is_none() && entry.data != golden {
                stale = Some((ctrl, state));
            }
            if outside_kind.is_none() && !ctrl.kind().reachable_states().contains(&state) {
                outside_kind = Some((ctrl, state));
            }
        }
        if !written && !resident {
            return Ok(());
        }

        // 1. Unique ownership.
        if owners > 1 {
            return Err(Violation::MultipleOwners {
                addr,
                owners: controllers
                    .iter()
                    .filter(|c| c.state_of(addr).is_owned())
                    .map(|c| c.name().to_string())
                    .collect(),
            });
        }

        // 2. Exclusivity: the exclusive copy is one of the valid ones.
        if let Some(excl) = exclusive.filter(|_| holders > 1) {
            if let Some(other) = controllers
                .iter()
                .find(|c| c.id() != excl.id() && c.state_of(addr).is_valid())
            {
                return Err(Violation::ExclusivityViolated {
                    addr,
                    exclusive_holder: excl.name().to_string(),
                    other_holder: other.name().to_string(),
                });
            }
        }

        // 3. Every valid copy equals the golden image.
        if let Some((ctrl, state)) = stale {
            return Err(Violation::StaleCopy {
                addr,
                holder: ctrl.name().to_string(),
                state,
            });
        }

        // Memory is read only for the rules that need it.
        let memory_stale = || memory.peek(addr) != golden;

        // 5. Exclusive-unmodified copies match memory (checked before the
        // default-owner rule so the more specific violation is reported).
        if let Some(ctrl) = clean_exclusive {
            if self.check_exclusive_clean && memory_stale() {
                return Err(Violation::ExclusiveUnmodifiedDiffers {
                    addr,
                    holder: ctrl.name().to_string(),
                });
            }
        }

        // 4. Memory is the default owner.
        if owners == 0 && memory_stale() {
            return Err(Violation::StaleMemory { addr });
        }

        // Kind subsets: write-through never owns, non-caching never holds.
        if let Some((ctrl, state)) = outside_kind {
            return Err(Violation::IllegalStateForKind {
                addr,
                holder: ctrl.name().to_string(),
                state,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_array::CacheConfig;
    use moesi::protocols::MoesiPreferred;

    fn ctrl(id: usize) -> CacheController {
        CacheController::new(
            id,
            Box::new(MoesiPreferred::new()),
            Some(CacheConfig::new(
                1024,
                16,
                2,
                cache_array::ReplacementKind::Lru,
            )),
            1,
        )
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
        assert_eq!(ck.golden_line(0x20), (&line[..], true));
        assert_eq!(ck.golden_line(0x30), (&[0u8; 16][..], false));
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
        // The oracle's own writes reach the audit list whatever the
        // machine logs, so a write the machine lost is still audited.
        let mut fabric = crate::Fabric::new(16, futurebus::TimingConfig::default(), vec![ctrl(0)]);
        fabric.track_changes(true);
        let mut ck = Checker::new(16);
        ck.track_changes(true);
        assert_eq!(ck.audit(&mut fabric), Ok(()), "the first, full audit");
        ck.record_write(0x104, &[1]);
        assert_eq!(
            ck.audit(&mut fabric),
            Err(Violation::StaleMemory { addr: 0x100 })
        );
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
        let err = ck.verify(&[a, b], &mem).unwrap_err();
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
        let err = ck.verify(&[a, b], &mem).unwrap_err();
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
            ck.verify(&[a, b, c], &SparseMemory::new(16)),
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
            ck.verify(&[a, b, c], &SparseMemory::new(16)),
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
        let err = ck.verify(std::slice::from_ref(&a), &mem).unwrap_err();
        assert!(matches!(err, Violation::StaleCopy { .. }));

        // Now with no cached copy at all: memory must hold the golden data.
        let b = ctrl(1);
        let err = ck.verify(&[b], &mem).unwrap_err();
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
        let err = ck.verify(std::slice::from_ref(&a), &mem).unwrap_err();
        assert!(matches!(err, Violation::ExclusiveUnmodifiedDiffers { .. }));
    }

    #[test]
    fn detects_a_write_through_cache_that_owns() {
        use moesi::protocols::WriteThrough;
        let mut wt = CacheController::new(
            0,
            Box::new(WriteThrough::new()),
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
        let err = ck.verify(&[wt], &SparseMemory::new(16)).unwrap_err();
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
        assert_eq!(ck.verify(&[a, b], &mem), Ok(()));

        // An M holder alone is also legal with stale memory.
        let mut c = ctrl(2);
        c.fill(0x100, LineState::Modified, &line, &mut Vec::new());
        assert_eq!(ck.verify(std::slice::from_ref(&c), &mem), Ok(()));

        // With memory updated and the line unowned everywhere: also legal.
        mem.write_line(0x100, &line);
        let d = ctrl(3);
        assert_eq!(ck.verify(&[d], &mem), Ok(()));
    }
}
