//! The [`BusModule`] trait: anything attached to the Futurebus that snoops.

use crate::transaction::{LineAddr, TransactionRequest};
use moesi::{MasterSignals, ResponseSignals};

/// What a snooping module observes at the end of a transaction, after all
/// responses have been combined on the wired-OR lines.
#[derive(Clone, Copy, Debug)]
pub struct BusObservation<'a> {
    /// CH asserted by at least one *other* cache (not this module, not the
    /// master). Resolves `CH:O/M` and `CH:S/E` reaction results.
    pub ch_others: bool,
    /// The write payload, when this module connected to the transfer (SL on a
    /// broadcast) or captured it (DI on a write): byte offset within the line
    /// and the data.
    pub write_data: Option<(usize, &'a [u8])>,
}

/// The write-back a module performs after aborting a transaction with BS
/// (§3.2.2: "BS is used to abort a transaction and update memory before that
/// transaction can resume").
#[derive(Clone, Copy, Debug)]
pub struct PushWrite<'a> {
    /// The full line contents pushed to memory, borrowed from the pusher.
    pub data: &'a [u8],
    /// The signals the push write drives (e.g. `CA` for `BS;S,CA,W`).
    pub signals: MasterSignals,
}

/// What the bus watchdog recovers when it retires a non-responding module
/// from the snoop set.
///
/// A *stalled* module's snoop logic hung but its cache RAM is still readable,
/// so its dirty (owned) lines can be salvaged to memory; a *killed* module
/// takes its dirty lines with it, and the loss is reported here rather than
/// discovered later as silent corruption.
#[derive(Clone, Debug, Default)]
pub struct RetireReport {
    /// Dirty lines recovered from the module, ready to write back to memory.
    pub salvaged: Vec<(LineAddr, Box<[u8]>)>,
    /// Dirty lines whose only up-to-date copy died with the module.
    pub lost: Vec<LineAddr>,
}

/// A unit attached to the bus: a cache controller, an I/O board, etc.
///
/// Main memory is *not* a `BusModule`: it lives inside the
/// [`Futurebus`](crate::Futurebus) as the default owner of every line, which
/// keeps the data path (intervention preempting memory) in one place.
///
/// The bus drives a transaction through three phases:
///
/// 1. **Snoop** — every module other than the master sees the broadcast
///    address cycle and answers with its response lines ([`snoop`]).
/// 2. **Data** — if a module asserted DI on a read, the bus fetches the line
///    from it ([`supply_line`]); if it asserted BS, the bus collects its push
///    ([`prepare_push`]), writes it to memory, and restarts the transaction.
/// 3. **Complete** — every snooped module commits its state transition with
///    the resolved CH observation and any broadcast/captured data
///    ([`complete`]).
///
/// [`snoop`]: BusModule::snoop
/// [`supply_line`]: BusModule::supply_line
/// [`prepare_push`]: BusModule::prepare_push
/// [`complete`]: BusModule::complete
pub trait BusModule {
    /// Observe the broadcast address cycle and answer with response lines.
    ///
    /// A module asserting `BS` must be prepared for a [`prepare_push`] call;
    /// one asserting `DI` on a read must be prepared for [`supply_line`].
    ///
    /// [`prepare_push`]: BusModule::prepare_push
    /// [`supply_line`]: BusModule::supply_line
    fn snoop(&mut self, req: &TransactionRequest<'_>) -> ResponseSignals;

    /// Supply the full line for a read this module intervened on, borrowed
    /// (the bus copies it into its line buffer), or `None` if it cannot.
    ///
    /// Asserting DI without being able to supply the line is a protocol bug,
    /// but it must not crash the machine: the bus turns a `None` here into a
    /// reported [`BusError::ProtocolError`](crate::BusError::ProtocolError)
    /// instead of a process abort. The default implementation returns
    /// `None`, since modules that never assert DI never receive this call.
    fn supply_line(&mut self, _addr: LineAddr) -> Option<&[u8]> {
        None
    }

    /// Produce the push write-back after this module aborted with BS, or
    /// `None` if it has nothing to push.
    ///
    /// Asserting BS without a push is a protocol bug, but it must not crash
    /// the machine: the bus turns a `None` here into a reported
    /// [`BusError::ProtocolError`](crate::BusError::ProtocolError) instead of
    /// a process abort. The default implementation returns `None`, since
    /// modules that never assert BS never receive this call.
    fn prepare_push(&mut self, _addr: LineAddr) -> Option<PushWrite<'_>> {
        None
    }

    /// Retire this module from the bus after the watchdog timed it out.
    ///
    /// `salvage` is true for a stalled module whose cache RAM is still
    /// readable; the implementation should hand over its dirty lines and
    /// degrade itself to a non-caching client (the class explicitly supports
    /// those, §3.3). The default reports nothing salvaged and nothing lost —
    /// correct for modules that never own data.
    fn retire(&mut self, _salvage: bool) -> RetireReport {
        RetireReport::default()
    }

    /// Commit the state transition for a snooped transaction.
    fn complete(&mut self, req: &TransactionRequest<'_>, obs: &BusObservation<'_>);
}

// A mutable reference to a module is itself a module. This is what lets the
// bus pipeline be generic over `M: BusModule` while the historical
// `&mut [&mut dyn BusModule]` entry point keeps working: the dyn path simply
// instantiates the generic pipeline with `M = &mut dyn BusModule`, and owners
// of concrete component arrays (`&mut [CacheController]`) get a statically
// dispatched instantiation with no per-transaction reference vector.
impl<T: BusModule + ?Sized> BusModule for &mut T {
    fn snoop(&mut self, req: &TransactionRequest<'_>) -> ResponseSignals {
        (**self).snoop(req)
    }

    fn supply_line(&mut self, addr: LineAddr) -> Option<&[u8]> {
        (**self).supply_line(addr)
    }

    fn prepare_push(&mut self, addr: LineAddr) -> Option<PushWrite<'_>> {
        (**self).prepare_push(addr)
    }

    fn retire(&mut self, salvage: bool) -> RetireReport {
        (**self).retire(salvage)
    }

    fn complete(&mut self, req: &TransactionRequest<'_>, obs: &BusObservation<'_>) {
        (**self).complete(req, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TransactionKind;

    struct Dummy;
    impl BusModule for Dummy {
        fn snoop(&mut self, _req: &TransactionRequest<'_>) -> ResponseSignals {
            ResponseSignals::NONE
        }
        fn complete(&mut self, _req: &TransactionRequest<'_>, _obs: &BusObservation<'_>) {}
    }

    #[test]
    fn default_supply_declines_instead_of_panicking() {
        assert!(Dummy.supply_line(0x40).is_none());
    }

    #[test]
    fn default_push_declines_instead_of_panicking() {
        assert!(Dummy.prepare_push(0x40).is_none());
    }

    #[test]
    fn default_retire_reports_nothing() {
        let report = Dummy.retire(true);
        assert!(report.salvaged.is_empty() && report.lost.is_empty());
    }

    #[test]
    fn trait_is_object_safe() {
        let mut d = Dummy;
        let obj: &mut dyn BusModule = &mut d;
        let req = TransactionRequest {
            master: 0,
            addr: 0,
            kind: TransactionKind::Read,
            signals: MasterSignals::CA,
        };
        assert_eq!(obj.snoop(&req), ResponseSignals::NONE);
        obj.complete(
            &req,
            &BusObservation {
                ch_others: false,
                write_data: None,
            },
        );
    }
}
