//! Bus transactions: requests masters issue and the outcomes they observe.

use crate::timing::Nanos;
use moesi::{MasterSignals, ResponseSignals};
use std::fmt;

/// A line-aligned byte address on the shared bus.
pub type LineAddr = u64;

/// What a transaction does in its data phase. A write borrows its payload
/// from whoever issues it, so building a transaction allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransactionKind<'a> {
    /// Read a full line (the `R` action of the tables). The master receives
    /// the line from memory or from an intervening owner.
    Read,
    /// Write `bytes` starting at `offset` within the line (the `W` action):
    /// a write-through, a broadcast update, or — with `offset == 0` and a
    /// full-line payload — a line push.
    Write {
        /// Byte offset of the payload within the line.
        offset: usize,
        /// The bytes written.
        bytes: &'a [u8],
    },
    /// No data phase: the "address only invalidate signal" of table note 6.
    AddressOnly,
}

impl TransactionKind<'_> {
    /// Payload size in bytes (zero for reads and address-only transactions —
    /// for reads the *response* carries the line, accounted separately).
    #[must_use]
    pub fn payload_len(&self) -> usize {
        match self {
            TransactionKind::Write { bytes, .. } => bytes.len(),
            _ => 0,
        }
    }
}

impl fmt::Display for TransactionKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionKind::Read => f.write_str("read"),
            TransactionKind::Write { offset, bytes } => {
                write!(f, "write {}B@+{offset}", bytes.len())
            }
            TransactionKind::AddressOnly => f.write_str("address-only"),
        }
    }
}

/// A transaction as presented on the bus during the broadcast address cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransactionRequest<'a> {
    /// Index of the issuing module in the module slice passed to
    /// [`Futurebus::execute`](crate::Futurebus::execute). The master does not
    /// snoop its own transaction.
    pub master: usize,
    /// The line-aligned address.
    pub addr: LineAddr,
    /// The data-phase operation.
    pub kind: TransactionKind<'a>,
    /// The consistency signals the master drives (CA, IM, BC).
    pub signals: MasterSignals,
}

impl<'a> TransactionRequest<'a> {
    /// A read transaction.
    #[must_use]
    pub fn read(master: usize, addr: LineAddr, signals: MasterSignals) -> Self {
        TransactionRequest {
            master,
            addr,
            kind: TransactionKind::Read,
            signals,
        }
    }

    /// A write transaction carrying `bytes` at `offset` within the line.
    #[must_use]
    pub fn write(
        master: usize,
        addr: LineAddr,
        signals: MasterSignals,
        offset: usize,
        bytes: &'a [u8],
    ) -> Self {
        TransactionRequest {
            master,
            addr,
            kind: TransactionKind::Write { offset, bytes },
            signals,
        }
    }

    /// An address-only transaction (invalidate).
    #[must_use]
    pub fn address_only(master: usize, addr: LineAddr, signals: MasterSignals) -> Self {
        TransactionRequest {
            master,
            addr,
            kind: TransactionKind::AddressOnly,
            signals,
        }
    }
}

impl fmt::Display for TransactionRequest<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "module {} {} @{:#x} [{}]",
            self.master, self.kind, self.addr, self.signals
        )
    }
}

/// Where the data phase was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataSource {
    /// Main memory responded (the default owner).
    Memory,
    /// The identified module intervened (asserted DI) and preempted memory.
    Intervention(usize),
    /// No data flowed (address-only).
    None,
}

/// What the master observes when its transaction completes.
#[derive(Clone, Copy, Debug)]
pub struct TransactionOutcome<'a> {
    /// The line contents, for reads: borrowed from the bus's line buffer,
    /// which the next transaction reuses.
    pub data: Option<&'a [u8]>,
    /// Wired-OR of every snooper's response lines on the final (non-aborted)
    /// pass.
    pub responses: ResponseSignals,
    /// Whether any other cache asserted CH — resolves the `CH:x/y` results.
    pub ch_seen: bool,
    /// Who served the data phase.
    pub source: DataSource,
    /// Total bus time consumed, including any abort-push-retry rounds.
    pub duration: Nanos,
    /// Number of BS abort rounds the transaction went through.
    pub aborts: u32,
}

/// Errors the bus can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BusError {
    /// The master drove an illegal signal combination (BC without IM).
    IllegalSignals(MasterSignals),
    /// `master` is not a valid module index.
    UnknownMaster(usize),
    /// More than one module asserted DI — ownership is supposed to be unique.
    MultipleInterveners(Vec<usize>),
    /// BS abort loops exceeded the retry limit.
    TooManyRetries(u32),
    /// A write payload does not fit in the line.
    PayloadOutOfRange {
        /// Offset of the payload within the line.
        offset: usize,
        /// Payload length.
        len: usize,
        /// The configured line size.
        line_size: usize,
    },
    /// The address is not aligned to the configured line size.
    UnalignedAddress(LineAddr),
    /// A snooper broke the bus protocol — e.g. asserted BS without having a
    /// push ready, or pushed a short line. Reported as an error so a buggy
    /// protocol is a diagnosable failure, not a process abort.
    ProtocolError {
        /// The offending module index.
        module: usize,
        /// What it did wrong.
        detail: String,
    },
}

impl BusError {
    /// The pipeline phase in which this error arises: validation failures
    /// never pass arbitration, the retry cutoff fires in abort-backoff, and
    /// duplicate interveners or protocol violations surface when the data
    /// has to move (an intervention supply or an abort push). Lets fault
    /// campaigns classify damage structurally instead of string-matching.
    #[must_use]
    pub fn phase(&self) -> crate::Phase {
        match self {
            BusError::IllegalSignals(_)
            | BusError::UnknownMaster(_)
            | BusError::PayloadOutOfRange { .. }
            | BusError::UnalignedAddress(_) => crate::Phase::Arbitrate,
            BusError::TooManyRetries(_) => crate::Phase::AbortBackoff,
            BusError::MultipleInterveners(_) | BusError::ProtocolError { .. } => {
                crate::Phase::DataTransfer
            }
        }
    }
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::IllegalSignals(s) => write!(f, "illegal master signals `{s}`"),
            BusError::UnknownMaster(m) => write!(f, "unknown master index {m}"),
            BusError::MultipleInterveners(ms) => {
                write!(f, "multiple modules intervened: {ms:?}")
            }
            BusError::TooManyRetries(n) => write!(f, "transaction aborted {n} times"),
            BusError::PayloadOutOfRange {
                offset,
                len,
                line_size,
            } => write!(
                f,
                "write payload {len}B@+{offset} exceeds line size {line_size}"
            ),
            BusError::UnalignedAddress(a) => write!(f, "address {a:#x} is not line-aligned"),
            BusError::ProtocolError { module, detail } => {
                write!(f, "module {module} broke the bus protocol: {detail}")
            }
        }
    }
}

impl std::error::Error for BusError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_fields() {
        let r = TransactionRequest::read(2, 0x80, MasterSignals::CA);
        assert_eq!(r.kind, TransactionKind::Read);
        assert_eq!(r.kind.payload_len(), 0);

        let w = TransactionRequest::write(0, 0x40, MasterSignals::IM, 4, &[1, 2, 3, 4]);
        assert_eq!(w.kind.payload_len(), 4);

        let a = TransactionRequest::address_only(1, 0, MasterSignals::CA_IM);
        assert_eq!(a.kind, TransactionKind::AddressOnly);
        assert_eq!(a.kind.payload_len(), 0);
    }

    #[test]
    fn display_is_descriptive() {
        let w = TransactionRequest::write(3, 0x100, MasterSignals::CA_IM_BC, 8, &[0; 4]);
        let s = w.to_string();
        assert!(s.contains("module 3"));
        assert!(s.contains("write 4B@+8"));
        assert!(s.contains("CA,IM,BC"));

        assert_eq!(
            BusError::IllegalSignals(MasterSignals::new(false, false, true)).to_string(),
            "illegal master signals `BC`"
        );
        assert!(BusError::TooManyRetries(5).to_string().contains("5 times"));
        let pe = BusError::ProtocolError {
            module: 2,
            detail: "asserted BS without a push".to_string(),
        };
        assert!(pe.to_string().contains("module 2"), "{pe}");
        assert!(pe.to_string().contains("without a push"), "{pe}");
    }
}
