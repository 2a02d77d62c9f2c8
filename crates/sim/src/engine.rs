//! The cycle-stamped discrete-event core that runs every machine: a
//! [`System`](crate::System), one bus or a fabric tree, drives its lanes
//! through `drive`.
//!
//! The engine models the machine as a set of *lanes* (one per processor),
//! each with a private cycle clock, coupled only through the shared bus. The
//! event queue holds each lane's next wake-up and pops them in
//! `(cycle, lane)` order, so ties on the same cycle resolve deterministically
//! by lane id. That makes the event order — and therefore every coherence
//! interleaving — a pure function of the workload, independent of host
//! scheduling. An untimed run is the same driver with one cycle of work per
//! access and no bus time, which reduces the order to a strict round-robin.
//! The 7 golden-trace fixtures and the phase-accounting suite are the
//! semantic gate.

use crate::metrics::TimedReport;
use crate::workload::Access;

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
/// lane's stream has ended and nothing was rescheduled. [`drive`] matches on
/// this instead of unwrapping an option, so a lane whose stream ends
/// mid-cycle can never panic the engine: the queue simply reports
/// [`Popped::Drained`] and the run terminates cleanly.
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
    /// One past the last popped key. Time never runs backwards, so no queued
    /// key is smaller.
    floor: u128,
}

impl EventQueue {
    /// A queue with every lane scheduled at cycle 0.
    pub(crate) fn new(lanes: usize) -> Self {
        EventQueue {
            slots: (0..lanes).map(|lane| key(0, lane)).collect(),
            live: lanes,
            floor: key(0, 0),
        }
    }

    /// Schedules `lane`'s next wake-up at `cycle`.
    pub(crate) fn schedule(&mut self, lane: usize, cycle: u64) {
        debug_assert_eq!(self.slots[lane], EMPTY, "one event in flight per lane");
        debug_assert!(
            key(cycle, lane) >= self.floor,
            "events never go back in time"
        );
        self.slots[lane] = key(cycle, lane);
        self.live += 1;
    }

    /// Pops the earliest event, or reports the queue drained.
    pub(crate) fn pop(&mut self) -> Popped {
        if self.live == 0 {
            return Popped::Drained;
        }
        // No queued key is below the floor, so the floor itself — the next
        // lane at the last popped cycle — is the minimum when queued: a
        // round-robin pops without a scan. Otherwise scan; the key's low
        // half is its lane, so a plain minimum finds both.
        let next_lane = self.floor as u64 as usize;
        let best = if self.slots.get(next_lane) == Some(&self.floor) {
            self.floor
        } else {
            self.slots.iter().copied().min().unwrap_or(EMPTY)
        };
        let lane = best as u64 as usize;
        self.slots[lane] = EMPTY;
        self.live -= 1;
        self.floor = best + 1;
        Popped::Next {
            cycle: (best >> 64) as u64,
            lane,
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

/// `steps` accesses per lane, drawn by `draw(lane, slot)`: the `next` of a
/// stream-fed run. Each call draws at most one access, into the driver's
/// slot, so every stream yields exactly `steps` accesses.
pub(crate) fn budget(
    lanes: usize,
    steps: u64,
    mut draw: impl FnMut(usize, &mut Access),
) -> impl FnMut(usize, &mut Access) -> bool {
    let mut done = vec![0u64; lanes];
    move |lane, slot| {
        let more = done[lane] < steps;
        if more {
            done[lane] += 1;
            draw(lane, slot);
        }
        more
    }
}

/// The run driver of every machine. The driver owns one [`Access`] slot:
/// `next(lane, slot)` draws that lane's next access into it, returning
/// `false` once the lane's workload is exhausted, and `issue(lane, slot)`
/// then performs it and returns the bus nanoseconds it used. Each access is
/// drawn immediately before its issue — never ahead — so the draw order is
/// the issue order. Each access first costs `cpu_work_ns` of the lane's
/// local work, then queues for the single shared bus — the §1 saturation
/// model.
///
/// Events execute in `(cycle, lane)` order; on top of it the driver *runs
/// ahead*: after an access, if the lane's new cycle still precedes every
/// queued event it keeps executing the same lane, skipping the schedule/pop
/// round-trip. Exhausted lanes stop rescheduling, so the run ends when the
/// queue reports [`Popped::Drained`]. With `cpu_work_ns = 1` and an `issue`
/// that returns 0 the order is a strict round-robin over the lanes.
///
/// Returns the wall time, bus occupancy, queueing and reference totals; the
/// caller fills in [`TimedReport::phase_hist`].
pub(crate) fn drive(
    lanes: usize,
    mut next: impl FnMut(usize, &mut Access) -> bool,
    mut issue: impl FnMut(usize, &Access) -> u64,
    cpu_work_ns: u64,
) -> TimedReport {
    let mut queue = EventQueue::new(lanes);
    let mut report = TimedReport::default();
    let mut bus_free: u64 = 0;
    let mut slot = Access::read(0, 0);
    while let Popped::Next {
        cycle: mut clock,
        lane,
    } = queue.pop()
    {
        loop {
            if !next(lane, &mut slot) {
                report.wall_ns = report.wall_ns.max(clock);
                break;
            }
            let bus_used = issue(lane, &slot);
            clock += cpu_work_ns;
            if bus_used > 0 {
                let start = clock.max(bus_free);
                report.bus_wait_ns += start - clock;
                bus_free = start + bus_used;
                report.bus_busy_ns += bus_used;
                clock = bus_free;
            }
            report.total_refs += 1;
            report.wall_ns = report.wall_ns.max(clock);
            if !queue.lane_still_first(lane, clock) {
                queue.schedule(lane, clock);
                break;
            }
        }
    }
    report
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

    #[test]
    fn pops_match_a_plain_minimum_as_time_moves_forward() {
        // The driver's pattern: a popped lane comes back a cycle or two
        // later, often tied with other lanes (the floor fast path), or never
        // (its workload ran out).
        let mut rng = moesi::rng::SmallRng::seed_from_u64(7);
        let mut q = EventQueue::new(8);
        let mut model: Vec<(u64, usize)> = (0..8).map(|lane| (0, lane)).collect();
        while let Some(&want) = model.iter().min() {
            assert_eq!(next(&mut q), Some(want));
            model.retain(|&e| e != want);
            if rng.gen_range(0..64u64) != 0 {
                let cycle = want.0 + rng.gen_range(1..3u64);
                q.schedule(want.1, cycle);
                model.push((cycle, want.1));
            }
        }
        assert_eq!(q.pop(), Popped::Drained);
    }
}
