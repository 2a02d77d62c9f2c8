//! A protocol whose choices come from outside: a script first, then a
//! recorded choice.
//!
//! The exhaustive explorer (`crates/verify`) and the counterexample replayer
//! (`mpsim::replay`) drive the real simulator through this one protocol.
//! Every module of a machine is a scripted policy, a [`TablePolicy`] built by
//! [`ScriptHandle::protocol`], attached to one shared [`ScriptHandle`]. A decision first pops the module's queue of scripted
//! entries — one step of a replayed schedule. When that queue is empty (an
//! *underflow*), the module's [`Choices`] name the entries it may pick; the
//! handle records that choice set as an [`Offer`] and answers with the next
//! scripted index, or the first entry when no index is queued. The explorer
//! enumerates every index sequence over the offers it sees; a replayer sees
//! offers only when its schedule and the machine disagree.

use crate::action::{BusReaction, LocalAction};
use crate::event::{BusEvent, LocalEvent};
use crate::policy::{PolicyTable, Refinement, TablePolicy};
use crate::protocol::{CacheKind, LocalCtx, Protocol, SnoopCtx};
use crate::state::LineState;
use crate::table;

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Recency contexts a [`Choices::Protocol`] is queried under, so decisions
/// conditioned on `near_replacement()` (Puzak §5.2) contribute every variant
/// to the choice set.
const CTX_RANKS: [(Option<u32>, u32); 3] = [(None, 0), (Some(0), 2), (Some(1), 2)];

/// The entries a module may pick at a decision its script does not cover.
#[derive(Debug)]
pub enum Choices {
    /// Every permitted Table 1/2 entry for this client kind: §3.4's class at
    /// large, covering every member protocol and every selector at once.
    Permitted(CacheKind),
    /// Whatever this protocol answers, under each recency context in turn. A
    /// plain [`TablePolicy`] answers its own cell, corrupted or not.
    Protocol(Box<dyn Protocol + Send>),
}

impl Choices {
    /// The client kind the choices belong to.
    #[must_use]
    pub fn kind(&self) -> CacheKind {
        match self {
            Choices::Permitted(kind) => *kind,
            Choices::Protocol(p) => p.kind(),
        }
    }

    fn local(&mut self, state: LineState, event: LocalEvent) -> Vec<LocalAction> {
        match self {
            Choices::Permitted(kind) => table::permitted_local(state, event, *kind),
            Choices::Protocol(p) => union(CTX_RANKS.map(|(recency_rank, ways)| {
                let ctx = LocalCtx {
                    recency_rank,
                    ways,
                    line_addr: None,
                };
                p.try_on_local(state, event, &ctx).ok()
            })),
        }
    }

    fn bus(&mut self, state: LineState, event: BusEvent) -> Vec<BusReaction> {
        match self {
            Choices::Permitted(_) => table::permitted_bus(state, event),
            Choices::Protocol(p) => union(CTX_RANKS.map(|(recency_rank, ways)| {
                let ctx = SnoopCtx {
                    recency_rank,
                    ways,
                    line_addr: None,
                };
                p.try_on_bus(state, event, &ctx).ok()
            })),
        }
    }
}

/// The distinct answers, in first-seen order.
fn union<T: PartialEq, const N: usize>(answers: [Option<T>; N]) -> Vec<T> {
    let mut out = Vec::with_capacity(N);
    for a in answers.into_iter().flatten() {
        if !out.contains(&a) {
            out.push(a);
        }
    }
    out
}

/// The entry picked at one recorded decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    /// A local (Table 1) action.
    Local(LocalAction),
    /// A snoop (Table 2) reaction.
    Bus(BusReaction),
}

/// One decision made on underflow: who decided, what it picked, and out of
/// how many entries. An empty choice set (`options == 0`) picks nothing: the
/// protocol reports an illegal cell instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Offer {
    /// The deciding module.
    pub module: usize,
    /// The entry picked, or `None` for an empty choice set.
    pub pick: Option<Pick>,
    /// The size of the choice set.
    pub options: usize,
}

#[derive(Debug)]
struct Module {
    choices: Choices,
    local: VecDeque<LocalAction>,
    bus: VecDeque<BusReaction>,
}

/// The state every scripted module of one machine shares.
#[derive(Debug)]
struct Script {
    modules: Vec<Module>,
    /// Indices answering the next underflowed decisions, in decision order.
    picks: VecDeque<usize>,
    offers: Vec<Offer>,
}

impl Script {
    /// Records an underflowed decision over `set` and picks from it.
    fn offer<T: Copy>(&mut self, module: usize, set: &[T], pick: fn(T) -> Pick) -> Option<T> {
        let index = self.picks.pop_front().unwrap_or(0);
        let chosen = set.get(index).copied();
        assert!(
            chosen.is_some() || set.is_empty(),
            "scripted index {index} outside a set of {}",
            set.len()
        );
        self.offers.push(Offer {
            module,
            pick: chosen.map(pick),
            options: set.len(),
        });
        chosen
    }
}

/// The writer side of a machine's scripted modules: queues scripted entries
/// and indices, and collects the [`Offer`]s met on underflow.
///
/// # Examples
///
/// ```
/// use moesi::protocols::{Choices, Pick, ScriptHandle};
/// use moesi::{table, CacheKind, LineState, LocalCtx, LocalEvent, Protocol};
///
/// let handle = ScriptHandle::new(vec![Choices::Permitted(CacheKind::CopyBack)]);
/// let mut p = handle.protocol(0);
/// let permitted = table::permitted_local(
///     LineState::Invalid, LocalEvent::Read, CacheKind::CopyBack);
/// // A scripted entry is consumed first...
/// handle.push_local(0, permitted[0]);
/// let ctx = LocalCtx::default();
/// assert_eq!(p.on_local(LineState::Invalid, LocalEvent::Read, &ctx), permitted[0]);
/// assert_eq!(handle.underflows(), 0);
/// // ...then a scripted index picks from the recorded choice set.
/// handle.push_picks(&[1]);
/// assert_eq!(p.on_local(LineState::Invalid, LocalEvent::Read, &ctx), permitted[1]);
/// let offer = handle.take_offers()[0];
/// assert_eq!(offer.options, permitted.len());
/// assert_eq!(offer.pick, Some(Pick::Local(permitted[1])));
/// ```
#[derive(Clone, Debug)]
pub struct ScriptHandle {
    script: Arc<Mutex<Script>>,
}

impl ScriptHandle {
    /// A handle for one module per entry of `choices`, in bus order.
    #[must_use]
    pub fn new(choices: Vec<Choices>) -> Self {
        let modules = choices
            .into_iter()
            .map(|choices| Module {
                choices,
                local: VecDeque::new(),
                bus: VecDeque::new(),
            })
            .collect();
        ScriptHandle {
            script: Arc::new(Mutex::new(Script {
                modules,
                picks: VecDeque::new(),
                offers: Vec::new(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Script> {
        self.script.lock().unwrap()
    }

    /// The number of modules.
    #[must_use]
    pub fn modules(&self) -> usize {
        self.lock().modules.len()
    }

    /// Module `module`'s client kind.
    #[must_use]
    pub fn kind(&self, module: usize) -> CacheKind {
        self.lock().modules[module].choices.kind()
    }

    /// The protocol for module `module`. Each call builds a fresh protocol
    /// on the same queues, so a machine can be rebuilt around one handle. A
    /// clone of the protocol shares this handle's queues too.
    #[must_use]
    pub fn protocol(&self, module: usize) -> TablePolicy {
        let kind = self.kind(module);
        let hook = ScriptHook {
            module,
            script: Arc::clone(&self.script),
        };
        // Every cell is `—`: whatever the script declines is an illegal cell.
        TablePolicy::refined(
            PolicyTable::empty("scripted", kind).with_bs(),
            Refinement::Script(hook),
        )
    }

    /// Queues a local-event entry for `module` (consumed by its next
    /// `on_local`).
    pub fn push_local(&self, module: usize, action: LocalAction) {
        self.lock().modules[module].local.push_back(action);
    }

    /// Queues a snoop entry for `module` (consumed by its next `on_bus`).
    pub fn push_bus(&self, module: usize, reaction: BusReaction) {
        self.lock().modules[module].bus.push_back(reaction);
    }

    /// Queues the indices that answer the next underflowed decisions.
    pub fn push_picks(&self, picks: &[usize]) {
        self.lock().picks.extend(picks);
    }

    /// Drops every queued entry and index and every recorded offer.
    pub fn clear(&self) {
        let mut s = self.lock();
        for m in &mut s.modules {
            m.local.clear();
            m.bus.clear();
        }
        s.picks.clear();
        s.offers.clear();
    }

    /// Unconsumed (local, bus) entries still queued, over all modules.
    #[must_use]
    pub fn pending(&self) -> (usize, usize) {
        let s = self.lock();
        s.modules
            .iter()
            .fold((0, 0), |(l, b), m| (l + m.local.len(), b + m.bus.len()))
    }

    /// Takes the offers recorded since the last take (or clear).
    pub fn take_offers(&self) -> Vec<Offer> {
        std::mem::take(&mut self.lock().offers)
    }

    /// How many decisions found their module's queue empty since the last
    /// take (or clear).
    #[must_use]
    pub fn underflows(&self) -> usize {
        self.lock().offers.len()
    }
}

/// The queue-popping selector: scripted entries first, then a recorded
/// choice. Clones share the script.
#[derive(Clone, Debug)]
pub(crate) struct ScriptHook {
    module: usize,
    script: Arc<Mutex<Script>>,
}

impl ScriptHook {
    pub(crate) fn pick_local(&self, state: LineState, event: LocalEvent) -> Option<LocalAction> {
        let mut s = self.script.lock().expect("script lock poisoned");
        let m = &mut s.modules[self.module];
        if let Some(action) = m.local.pop_front() {
            return Some(action);
        }
        let set = m.choices.local(state, event);
        s.offer(self.module, &set, Pick::Local)
    }

    pub(crate) fn pick_bus(&self, state: LineState, event: BusEvent) -> Option<BusReaction> {
        let mut s = self.script.lock().expect("script lock poisoned");
        let m = &mut s.modules[self.module];
        if let Some(reaction) = m.bus.pop_front() {
            return Some(reaction);
        }
        let set = m.choices.bus(state, event);
        s.offer(self.module, &set, Pick::Bus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::puzak;

    fn copy_back() -> (TablePolicy, ScriptHandle) {
        let h = ScriptHandle::new(vec![Choices::Permitted(CacheKind::CopyBack)]);
        (h.protocol(0), h)
    }

    #[test]
    fn pops_in_fifo_order_then_records_the_choice_set() {
        let (mut p, h) = copy_back();
        let permitted =
            table::permitted_local(LineState::Invalid, LocalEvent::Read, CacheKind::CopyBack);
        h.push_local(0, permitted[1]);
        h.push_local(0, permitted[0]);
        let ctx = LocalCtx::default();
        assert_eq!(
            p.on_local(LineState::Invalid, LocalEvent::Read, &ctx),
            permitted[1]
        );
        assert_eq!(
            p.on_local(LineState::Invalid, LocalEvent::Read, &ctx),
            permitted[0]
        );
        // Queue empty: the first permitted (preferred) entry, offer recorded.
        assert_eq!(
            p.on_local(LineState::Invalid, LocalEvent::Read, &ctx),
            permitted[0]
        );
        assert_eq!(h.underflows(), 1);
        assert_eq!(
            h.take_offers(),
            vec![Offer {
                module: 0,
                pick: Some(Pick::Local(permitted[0])),
                options: permitted.len(),
            }]
        );
        assert_eq!(h.underflows(), 0, "taking the offers resets the count");
    }

    #[test]
    fn bus_queue_is_independent_of_local_queue() {
        let (mut p, h) = copy_back();
        let reactions = table::permitted_bus(LineState::Shareable, BusEvent::CacheRead);
        h.push_bus(0, reactions[reactions.len() - 1]);
        let got = p.on_bus(
            LineState::Shareable,
            BusEvent::CacheRead,
            &SnoopCtx::default(),
        );
        assert_eq!(got, reactions[reactions.len() - 1]);
        assert_eq!(h.pending(), (0, 0));
    }

    #[test]
    fn clear_empties_every_queue() {
        let (_p, h) = copy_back();
        h.push_local(0, LocalAction::silent(LineState::Modified));
        h.push_bus(0, BusReaction::IGNORE);
        h.push_picks(&[1]);
        assert_eq!(h.pending(), (1, 1));
        h.clear();
        assert_eq!(h.pending(), (0, 0));
    }

    #[test]
    fn a_clone_shares_its_handle() {
        let (mut p, h) = copy_back();
        let mut q = p.clone();
        h.push_local(0, LocalAction::silent(LineState::Modified));
        let ctx = LocalCtx::default();
        // The clone consumes the entry queued for the original's module...
        assert_eq!(
            q.on_local(LineState::Invalid, LocalEvent::Read, &ctx),
            LocalAction::silent(LineState::Modified)
        );
        // ...so the original underflows.
        p.on_local(LineState::Invalid, LocalEvent::Read, &ctx);
        assert_eq!(h.underflows(), 1);
    }

    #[test]
    fn requires_bs_for_adapted_replays() {
        let (p, _h) = copy_back();
        assert!(p.requires_bs());
        assert!(!p.table_is_exact());
    }

    #[test]
    fn a_protocol_offers_its_answers_under_every_recency_context() {
        let h = ScriptHandle::new(vec![Choices::Protocol(Box::new(puzak()))]);
        let mut p = h.protocol(0);
        h.push_picks(&[1]);
        let event = BusEvent::CacheBroadcastWrite;
        let got = p.on_bus(LineState::Shareable, event, &SnoopCtx::default());
        // Puzak updates a recently used line and drops one near replacement.
        let offer = h.take_offers()[0];
        assert_eq!(offer.options, 2, "{offer:?}");
        assert_eq!(offer.pick, Some(Pick::Bus(got)));
        assert_eq!(got.result.resolve(false), LineState::Invalid);
    }

    #[test]
    fn an_empty_choice_set_is_an_illegal_cell() {
        let (mut p, h) = copy_back();
        let err = p
            .try_on_local(LineState::Exclusive, LocalEvent::Pass, &LocalCtx::default())
            .unwrap_err();
        assert!(err.to_string().contains("no action"), "{err}");
        assert_eq!(
            h.take_offers(),
            vec![Offer {
                module: 0,
                pick: None,
                options: 0
            }]
        );
    }
}
