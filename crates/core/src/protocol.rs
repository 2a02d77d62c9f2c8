//! The [`Protocol`] trait: a policy that picks one permitted action per event.
//!
//! §3.4 of the paper: "different boards on the bus can implement different
//! protocols, provided that each comes from this class", and "each bus user
//! can change the protocol it is using, either statically, dynamically, or can
//! use protocols selectively". A [`Protocol`] implementation is exactly such a
//! policy; the system simulator consults it on every local event and every
//! snooped bus event.

use crate::action::{BusReaction, LocalAction};
use crate::event::{BusEvent, LocalEvent};
use crate::policy::{IllegalCell, PolicyTable};
use crate::state::LineState;
use std::fmt;

/// What kind of bus client a protocol drives (§3.3).
///
/// The paper's Table 1 covers all three with one table: unstarred entries are
/// for copy-back caches, `*` entries for write-through caches, and `**`
/// entries for processors without caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// A copy-back (write-back) cache: may own lines and intervene.
    CopyBack,
    /// A write-through cache: two states (V ≡ S, I); incapable of ownership
    /// or intervention.
    WriteThrough,
    /// A processor without a cache: never retains data, never responds to bus
    /// events.
    NonCaching,
}

impl CacheKind {
    /// All three kinds.
    pub const ALL: [CacheKind; 3] = [
        CacheKind::CopyBack,
        CacheKind::WriteThrough,
        CacheKind::NonCaching,
    ];

    /// The line states this kind of client can hold.
    #[must_use]
    pub fn reachable_states(self) -> &'static [LineState] {
        match self {
            CacheKind::CopyBack => &LineState::ALL,
            CacheKind::WriteThrough => &[LineState::Shareable, LineState::Invalid],
            CacheKind::NonCaching => &[LineState::Invalid],
        }
    }
}

impl fmt::Display for CacheKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheKind::CopyBack => "copy-back",
            CacheKind::WriteThrough => "write-through",
            CacheKind::NonCaching => "non-caching",
        };
        f.write_str(s)
    }
}

/// Context available to a protocol when deciding a local action.
///
/// The §5.2 refinement (after Puzak et al.) lets a policy consult the
/// replacement status of the line; the controller provides it here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalCtx {
    /// Recency rank of the line in its set: 0 = most recently used. `None`
    /// when the line is not resident (e.g. on a miss).
    pub recency_rank: Option<u32>,
    /// Number of ways in the set (for interpreting `recency_rank`).
    pub ways: u32,
    /// Identity of the line (its aligned address), for policies that keep
    /// per-line state such as the hybrid switcher's sharing counters. `None`
    /// when unknown (e.g. abstract table queries).
    pub line_addr: Option<u64>,
}

/// Context available to a protocol when reacting to a snooped bus event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnoopCtx {
    /// Recency rank of the snooped line in its set: 0 = most recently used.
    pub recency_rank: Option<u32>,
    /// Number of ways in the set.
    pub ways: u32,
    /// Identity of the snooped line (its aligned address), for policies that
    /// keep per-line state. `None` when unknown.
    pub line_addr: Option<u64>,
}

impl SnoopCtx {
    /// True when the line is the least-recently-used element of its set —
    /// "nearing time for replacement" in the §5.2 refinement.
    #[must_use]
    pub fn near_replacement(self) -> bool {
        match self.recency_rank {
            Some(rank) => self.ways > 1 && rank + 1 >= self.ways,
            None => false,
        }
    }
}

/// A cache consistency policy: one column-picker over Tables 1 and 2 (or over
/// one of the protocol-specific Tables 3–7).
///
/// Implementations must be deterministic *given their own internal state*;
/// the [`random`](crate::protocols::random) policy carries its RNG
/// internally, which is why the methods take `&mut self`.
///
/// # Examples
///
/// ```
/// use moesi::protocols::moesi_preferred;
/// use moesi::{LineState, LocalEvent, LocalCtx, Protocol};
///
/// let mut p = moesi_preferred();
/// let action = p.on_local(LineState::Invalid, LocalEvent::Read, &LocalCtx::default());
/// assert_eq!(action.to_string(), "CH:S/E,CA,R"); // Table 1, I/Read, preferred
/// ```
pub trait Protocol {
    /// A short human-readable protocol name ("MOESI", "Berkeley", ...).
    fn name(&self) -> &str;

    /// What kind of bus client this protocol drives.
    fn kind(&self) -> CacheKind;

    /// Whether the protocol needs the BS (busy) line — true for the adapted
    /// Write-Once, Illinois and Firefly protocols, whose intervenient actions
    /// abort and push (§3.2.2, §4.3–4.5).
    fn requires_bs(&self) -> bool {
        false
    }

    /// Chooses the action for a local event on a line in `state`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `(state, event)` is not a legal
    /// combination for this protocol (a `—` cell in the tables), e.g. a
    /// `Pass` from Invalid. Fallible callers (the bus, the renderers) use
    /// [`Protocol::try_on_local`] instead.
    fn on_local(&mut self, state: LineState, event: LocalEvent, ctx: &LocalCtx) -> LocalAction;

    /// Chooses the reaction to a snooped bus event on a line in `state`.
    ///
    /// # Panics
    ///
    /// Implementations may panic on error-condition cells (`—` in Table 2),
    /// such as observing another master's broadcast write while holding the
    /// line Modified. Fallible callers use [`Protocol::try_on_bus`] instead.
    fn on_bus(&mut self, state: LineState, event: BusEvent, ctx: &SnoopCtx) -> BusReaction;

    /// Fallible form of [`Protocol::on_local`]: a `—` cell is a structured
    /// [`IllegalCell`] error instead of a panic, so the bus can surface a
    /// recoverable `ProtocolError` mid-transaction.
    ///
    /// The table-driven protocols override this; the default wraps
    /// [`Protocol::on_local`] and therefore still panics for hand-written
    /// implementations that do.
    fn try_on_local(
        &mut self,
        state: LineState,
        event: LocalEvent,
        ctx: &LocalCtx,
    ) -> Result<LocalAction, IllegalCell> {
        Ok(self.on_local(state, event, ctx))
    }

    /// Fallible form of [`Protocol::on_bus`]; see [`Protocol::try_on_local`].
    fn try_on_bus(
        &mut self,
        state: LineState,
        event: BusEvent,
        ctx: &SnoopCtx,
    ) -> Result<BusReaction, IllegalCell> {
        Ok(self.on_bus(state, event, ctx))
    }

    /// The declarative [`PolicyTable`] behind this protocol, if it is
    /// table-driven (all shipped protocols are). For stateful policies this is
    /// the *base* table their refinement deviates from.
    fn policy_table(&self) -> Option<&PolicyTable> {
        None
    }

    /// True when every decision is read straight from
    /// [`Protocol::policy_table`] with no dynamic selection — the
    /// precondition for the structural compatibility fast path
    /// (`compat::check_table`).
    fn table_is_exact(&self) -> bool {
        false
    }
}

impl fmt::Debug for dyn Protocol + Send {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Protocol({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachable_states_shrink_with_capability() {
        assert_eq!(CacheKind::CopyBack.reachable_states().len(), 5);
        assert_eq!(
            CacheKind::WriteThrough.reachable_states(),
            &[LineState::Shareable, LineState::Invalid]
        );
        assert_eq!(
            CacheKind::NonCaching.reachable_states(),
            &[LineState::Invalid]
        );
    }

    #[test]
    fn kind_display() {
        assert_eq!(CacheKind::CopyBack.to_string(), "copy-back");
        assert_eq!(CacheKind::WriteThrough.to_string(), "write-through");
        assert_eq!(CacheKind::NonCaching.to_string(), "non-caching");
    }

    #[test]
    fn near_replacement_is_lru_only() {
        let mru = SnoopCtx {
            recency_rank: Some(0),
            ways: 2,
            line_addr: None,
        };
        let lru = SnoopCtx {
            recency_rank: Some(1),
            ways: 2,
            line_addr: None,
        };
        let absent = SnoopCtx {
            recency_rank: None,
            ways: 2,
            line_addr: None,
        };
        let direct_mapped = SnoopCtx {
            recency_rank: Some(0),
            ways: 1,
            line_addr: None,
        };
        assert!(!mru.near_replacement());
        assert!(lru.near_replacement());
        assert!(!absent.near_replacement());
        // In a direct-mapped set recency carries no information; treat the
        // sole way as not "near replacement".
        assert!(!direct_mapped.near_replacement());
    }
}
