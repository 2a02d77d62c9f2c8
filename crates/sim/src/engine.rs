//! The cycle-stamped discrete-event core behind [`System`](crate::System)'s
//! run loops.
//!
//! The engine models the machine as a set of *lanes* (one per processor),
//! each with a private cycle clock, coupled only through the shared bus. The
//! event queue holds each lane's next wake-up and pops them in
//! `(cycle, lane)` order, so ties on the same cycle resolve deterministically
//! by lane id. That makes the event order — and therefore every coherence
//! interleaving — a pure function of the workload, independent of host
//! scheduling. The 7 golden-trace fixtures and the phase-accounting suite
//! are the semantic gate.

/// A lane-indexed slot key: `(cycle, lane)` packed so integer comparison is
/// the event order. [`EMPTY`] (all ones) sorts after every real key, so the
/// min-scan needs no occupancy branches.
const EMPTY: u128 = u128::MAX;

#[inline]
fn key(cycle: u64, lane: usize) -> u128 {
    (u128::from(cycle) << 64) | lane as u128
}

/// The structured outcome of [`EventQueue::pop`]: either the earliest
/// pending event, or a definitive signal that the queue is drained — every
/// lane's stream has ended and nothing was rescheduled. Run loops match on
/// this instead of unwrapping an option, so a lane whose stream ends
/// mid-cycle can never panic the engine: the queue simply reports
/// [`Popped::Drained`] and the loop terminates cleanly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Popped {
    /// The earliest queued event: `lane` wakes at `cycle`.
    Next {
        /// The event's cycle stamp.
        cycle: u64,
        /// The lane (processor index) the event belongs to.
        lane: usize,
    },
    /// No events remain; the run is over.
    Drained,
}

/// The deterministic event queue, ordered by `(cycle, lane)`: one slot per
/// lane holding its next wake-up as a packed key, and `pop` is a linear
/// min-scan. Exact because a lane has at most one event in flight. At the
/// machine sizes simulated here the flat, in-cache scan beats a binary
/// heap's branchy sifts.
#[derive(Debug)]
pub(crate) struct EventQueue {
    slots: Vec<u128>,
    live: usize,
}

impl EventQueue {
    /// A queue with every lane scheduled at cycle 0.
    pub(crate) fn new(lanes: usize) -> Self {
        EventQueue {
            slots: (0..lanes).map(|lane| key(0, lane)).collect(),
            live: lanes,
        }
    }

    /// Schedules `lane`'s next wake-up at `cycle`.
    pub(crate) fn schedule(&mut self, lane: usize, cycle: u64) {
        debug_assert_eq!(self.slots[lane], EMPTY, "one event in flight per lane");
        self.slots[lane] = key(cycle, lane);
        self.live += 1;
    }

    /// Pops the earliest event, or reports the queue drained.
    pub(crate) fn pop(&mut self) -> Popped {
        if self.live == 0 {
            return Popped::Drained;
        }
        let mut best = EMPTY;
        let mut at = 0;
        for (lane, &k) in self.slots.iter().enumerate() {
            if k < best {
                best = k;
                at = lane;
            }
        }
        self.slots[at] = EMPTY;
        self.live -= 1;
        Popped::Next {
            cycle: (best >> 64) as u64,
            lane: at,
        }
    }

    /// True when `lane`, rescheduled at `cycle`, would still precede every
    /// queued event — the run-ahead test: popping would return this lane
    /// immediately, so the caller may keep executing it without the
    /// schedule/pop round-trip. Exact by the same `(cycle, lane)` order the
    /// queue uses (no two queued events share a lane).
    pub(crate) fn lane_still_first(&self, lane: usize, cycle: u64) -> bool {
        let own = key(cycle, lane);
        self.slots.iter().all(|&k| own < k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwrap-free pop helper for the ordering tests: `Drained` maps to
    /// `None` so assertions stay literal.
    fn next(q: &mut EventQueue) -> Option<(u64, usize)> {
        match q.pop() {
            Popped::Next { cycle, lane } => Some((cycle, lane)),
            Popped::Drained => None,
        }
    }

    #[test]
    fn same_cycle_ties_break_by_lane_id() {
        let mut q = EventQueue::new(4);
        let order: Vec<usize> = (0..4).map(|_| next(&mut q).expect("4 queued").1).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn events_pop_in_cycle_then_lane_order() {
        let mut q = EventQueue::new(3);
        for _ in 0..3 {
            q.pop();
        }
        q.schedule(2, 10);
        q.schedule(0, 20);
        q.schedule(1, 10);
        assert_eq!(next(&mut q), Some((10, 1)));
        assert_eq!(next(&mut q), Some((10, 2)));
        assert_eq!(next(&mut q), Some((20, 0)));
        assert_eq!(q.pop(), Popped::Drained);
    }

    #[test]
    fn drained_queue_keeps_reporting_drained() {
        // The structured empty signal is stable: popping a drained queue any
        // number of times stays `Drained` and never panics.
        let mut q = EventQueue::new(2);
        assert!(matches!(q.pop(), Popped::Next { .. }));
        assert!(matches!(q.pop(), Popped::Next { .. }));
        for _ in 0..3 {
            assert_eq!(q.pop(), Popped::Drained);
        }
    }

    #[test]
    fn run_ahead_matches_the_queue_order() {
        let mut q = EventQueue::new(2);
        q.pop();
        q.pop();
        q.schedule(1, 100);
        // Lane 0 at an earlier cycle precedes; at the same cycle its lower
        // id precedes; later it does not.
        assert!(q.lane_still_first(0, 50));
        assert!(q.lane_still_first(0, 100));
        assert!(!q.lane_still_first(1, 100)); // its own event is not "another"
        assert!(!q.lane_still_first(0, 101));
    }

    #[test]
    fn empty_queue_always_runs_ahead() {
        let mut q = EventQueue::new(1);
        q.pop();
        assert!(q.lane_still_first(0, u64::MAX - 1));
    }
}
