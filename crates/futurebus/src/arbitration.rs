//! Bus arbitration: how long a requesting master queues for the grant.
//!
//! §2.1 of the paper describes distributed priority arbitration with an
//! optional fairness overlay; the Nikolov & Lerato comparison (PAPERS.md)
//! measures FCFS against priority and round-robin service disciplines on a
//! shared bus. The simulator models a discipline as the *queueing delay* a
//! master pays before its grant, in arbitration slots. The pipeline charges
//! `(slots - 1) * arbitration_ns` to [`Phase::Arbitrate`] (the first slot is
//! already in the base transaction cost), so the default single-slot
//! priority discipline is byte-identical to the historical fixed-cost model.
//!
//! Each [`Futurebus`](crate::Futurebus) segment owns its discipline's state
//! privately: the rotating token for round-robin, the request queue for
//! FCFS (with a membership bit per module, so a contender's "already
//! queued?" test is one bit, not a queue scan).
//!
//! [`Phase::Arbitrate`]: crate::Phase::Arbitrate

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// The bus service disciplines a segment can run, named after the policies
/// Nikolov & Lerato compare for a shared-bus multiprocessor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Discipline {
    /// Fixed priority by module index: the grant is combinational, one slot
    /// for everyone. The historical default, byte-identical to the
    /// fixed-cost arbitration model.
    #[default]
    Priority,
    /// Rotating priority: the master waits one slot for every contender the
    /// token passes over on its way round, so a master that just transacted
    /// pays a full rotation while a master next in turn pays one slot.
    RoundRobin,
    /// Arrival-order queueing: every live module not already queued joins
    /// the tail (in index order) when a new transaction arbitrates, and
    /// serving the master also serves everyone ahead of it — one slot each —
    /// so the master's delay is its queue depth.
    Fcfs,
}

impl Discipline {
    /// Every discipline, in presentation order.
    pub const ALL: [Discipline; 3] = [
        Discipline::Priority,
        Discipline::RoundRobin,
        Discipline::Fcfs,
    ];
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Discipline::Priority => "priority",
            Discipline::RoundRobin => "round-robin",
            Discipline::Fcfs => "fcfs",
        })
    }
}

impl FromStr for Discipline {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "priority" => Ok(Discipline::Priority),
            "round-robin" | "rr" => Ok(Discipline::RoundRobin),
            "fcfs" => Ok(Discipline::Fcfs),
            other => Err(format!(
                "unknown discipline `{other}` (expected priority, round-robin or fcfs)"
            )),
        }
    }
}

/// A segment's discipline together with the state it carries from one
/// grant to the next.
#[derive(Debug)]
pub(crate) enum Arbitration {
    Priority,
    /// The previous winner; `None` before the first grant, so module 0 is
    /// next in turn.
    RoundRobin {
        last: Option<usize>,
    },
    /// Queued requesters, head first, and the same set as one bit per
    /// module index (grown to the largest index seen).
    Fcfs {
        queue: VecDeque<usize>,
        queued: Vec<u64>,
    },
}

impl Arbitration {
    /// Fresh state for `discipline`: token before module 0, empty queue.
    pub(crate) fn new(discipline: Discipline) -> Self {
        match discipline {
            Discipline::Priority => Arbitration::Priority,
            Discipline::RoundRobin => Arbitration::RoundRobin { last: None },
            Discipline::Fcfs => Arbitration::Fcfs {
                queue: VecDeque::new(),
                queued: Vec::new(),
            },
        }
    }

    pub(crate) fn discipline(&self) -> Discipline {
        match self {
            Arbitration::Priority => Discipline::Priority,
            Arbitration::RoundRobin { .. } => Discipline::RoundRobin,
            Arbitration::Fcfs { .. } => Discipline::Fcfs,
        }
    }

    /// How many arbitration slots `master` waits before winning the bus when
    /// every module in `live` is contending: one bit per module index, the
    /// master's among them. Priority never reads it; the other disciplines
    /// count from its words, not by walking its members.
    pub(crate) fn slots_to_grant(&mut self, master: usize, live: &[u64]) -> u32 {
        let slots = match self {
            Arbitration::Priority => 1,
            Arbitration::RoundRobin { last } => {
                // The token serves contenders in ascending index order after
                // the previous winner, wrapping round: one slot per grant up
                // to and including the master's own.
                let waited = match *last {
                    None => members(live, 0, master + 1),
                    Some(l) if master > l => members(live, l + 1, master + 1),
                    Some(l) => members(live, l + 1, usize::MAX) + members(live, 0, master + 1),
                };
                *last = Some(master);
                waited
            }
            Arbitration::Fcfs { queue, queued } => {
                // Simultaneous arrivals join the tail in index order.
                queued.resize(queued.len().max(live.len()), 0);
                for (w, (&bits, queued)) in live.iter().zip(queued.iter_mut()).enumerate() {
                    let mut joiners = bits & !*queued;
                    *queued |= joiners;
                    while joiners != 0 {
                        queue.push_back(w * 64 + joiners.trailing_zeros() as usize);
                        joiners &= joiners - 1;
                    }
                }
                let pos = queue
                    .iter()
                    .position(|&m| m == master)
                    .expect("the master contends");
                // Everyone ahead of the master is served first, one slot
                // each; then the master's own grant slot.
                for m in queue.drain(..=pos) {
                    queued[m / 64] &= !(1u64 << (m % 64));
                }
                pos + 1
            }
        };
        u32::try_from(slots).expect("slot count fits in u32")
    }
}

/// The bits of the `w`-th word of a module set whose indices lie below
/// `bound`.
pub(crate) fn below(w: usize, bound: usize) -> u64 {
    match bound.saturating_sub(w * 64) {
        0 => 0,
        n if n >= 64 => u64::MAX,
        n => (1 << n) - 1,
    }
}

/// How many members of `live` (one bit per module index) lie in
/// `from..to`: a population count per word.
fn members(live: &[u64], from: usize, to: usize) -> usize {
    let words = live.iter().enumerate();
    words
        .map(|(w, &bits)| (bits & below(w, to) & !below(w, from)).count_ones() as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(discipline: Discipline) -> Arbitration {
        Arbitration::new(discipline)
    }

    /// `members` as a contender set, one bit per module index.
    fn set(members: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let mut set = Vec::new();
        for m in members {
            set.resize(set.len().max(m / 64 + 1), 0);
            set[m / 64] |= 1 << (m % 64);
        }
        set
    }

    #[test]
    fn priority_grants_in_one_slot_for_everyone() {
        let mut a = state(Discipline::Priority);
        for master in 0..4 {
            assert_eq!(a.slots_to_grant(master, &set([0, 1, 2, 3])), 1);
        }
    }

    #[test]
    fn round_robin_rotates() {
        let mut a = state(Discipline::RoundRobin);
        // Each master is next in turn, so each waits only its own slot.
        for master in [0, 1, 2] {
            assert_eq!(a.slots_to_grant(master, &set([0, 1, 2])), 1);
        }
        assert_eq!(a.slots_to_grant(0, &set([0, 1, 2])), 1, "wraps around");
    }

    #[test]
    fn round_robin_skips_non_requesters() {
        let mut a = state(Discipline::RoundRobin);
        assert_eq!(a.slots_to_grant(1, &set([1])), 1);
        assert_eq!(
            a.slots_to_grant(3, &set([0, 3])),
            1,
            "next after 1 among {{0,3}}"
        );
        assert_eq!(a.slots_to_grant(0, &set([0, 3])), 1);
    }

    #[test]
    fn round_robin_serves_everyone_within_one_rotation() {
        let mut a = state(Discipline::RoundRobin);
        for master in [5, 2, 7, 7, 0, 3, 6, 1, 4] {
            let slots = a.slots_to_grant(master, &set(0..8));
            assert!((1..=8).contains(&slots), "master {master}: {slots}");
        }
    }

    #[test]
    fn round_robin_charges_the_token_distance() {
        let mut a = state(Discipline::RoundRobin);
        // Token starts before module 0: master 2 waits for 0 and 1.
        assert_eq!(a.slots_to_grant(2, &set([0, 1, 2, 3])), 3);
        // Token now at 2; master 3 is next in turn.
        assert_eq!(a.slots_to_grant(3, &set([0, 1, 2, 3])), 1);
        // Wrapping: master 3 again pays a full rotation.
        assert_eq!(a.slots_to_grant(3, &set([0, 1, 2, 3])), 4);
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let mut a = state(Discipline::Fcfs);
        // All four arrive together (index order breaks the tie); master 1 is
        // second in line.
        assert_eq!(a.slots_to_grant(1, &set([0, 1, 2, 3])), 2);
        // 2 and 3 are still queued from the first round; master 0 re-arrives
        // behind them.
        assert_eq!(a.slots_to_grant(0, &set([0, 1, 2, 3])), 3);
        // Only 1 left queued; 0, 2 and 3 re-arrive behind it in index order,
        // so master 3 sits at the tail of a four-deep queue.
        assert_eq!(a.slots_to_grant(3, &set([0, 1, 2, 3])), 4);
    }

    #[test]
    fn fcfs_serves_the_longest_waiter_first() {
        let mut a = state(Discipline::Fcfs);
        assert_eq!(
            a.slots_to_grant(1, &set([1, 2])),
            1,
            "index order on arrival"
        );
        // 2 queued before 0 arrived, so 0 waits behind it.
        assert_eq!(a.slots_to_grant(0, &set([0, 2])), 2);
        assert_eq!(a.slots_to_grant(2, &set([2])), 1, "2 was served ahead of 0");
    }

    /// The FCFS grant as first written: a `VecDeque::contains` scan per
    /// contender. The membership bits must reproduce it slot for slot.
    fn fcfs_by_queue_scan(queue: &mut VecDeque<usize>, master: usize, live: &[usize]) -> u32 {
        for &m in live {
            if !queue.contains(&m) {
                queue.push_back(m);
            }
        }
        let pos = queue.iter().position(|&m| m == master).unwrap();
        queue.drain(..=pos);
        u32::try_from(pos + 1).unwrap()
    }

    #[test]
    fn fcfs_membership_bits_match_the_queue_scan() {
        let mut rng = moesi::rng::SmallRng::seed_from_u64(29);
        // Bus sizes on both sides of one and two 64-bit words.
        for modules in [1usize, 2, 4, 63, 64, 65, 130] {
            let mut fast = state(Discipline::Fcfs);
            let mut reference = VecDeque::new();
            for round in 0..400 {
                // Index `modules` is an external master (a bridge's own
                // transaction), which contends without being a module.
                let master = rng.gen_range(0..modules + 1);
                // A random ascending contender set that holds the master.
                let live: Vec<usize> = (0..=modules)
                    .filter(|&m| m == master || (m < modules && rng.gen_range(0..4u32) != 0))
                    .collect();
                let want = fcfs_by_queue_scan(&mut reference, master, &live);
                let got = fast.slots_to_grant(master, &set(live.iter().copied()));
                assert_eq!(got, want, "{modules} modules, round {round}");
                let Arbitration::Fcfs { queue, queued } = &fast else {
                    unreachable!()
                };
                assert_eq!(queue, &reference, "{modules} modules, round {round}");
                let members = queued
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>();
                assert_eq!(members, queue.len(), "one bit per queued module");
            }
        }
    }

    #[test]
    fn disciplines_parse_and_render_round_trip() {
        for d in Discipline::ALL {
            assert_eq!(d.to_string().parse::<Discipline>(), Ok(d));
        }
        assert_eq!("rr".parse::<Discipline>(), Ok(Discipline::RoundRobin));
        assert!("lifo".parse::<Discipline>().is_err());
        assert_eq!(Discipline::default(), Discipline::Priority);
    }

    #[test]
    fn every_discipline_keeps_its_name_and_grants() {
        for d in Discipline::ALL {
            let mut a = state(d);
            assert_eq!(a.discipline(), d);
            assert!(a.slots_to_grant(0, &set([0, 1])) >= 1, "{d}");
        }
    }
}
