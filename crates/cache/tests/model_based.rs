//! Model-based testing of `CacheArray`: random operation sequences are
//! checked against a trivially-correct reference model (a bounded map), so
//! residency, data, state and LRU behaviour can never silently drift. Inputs
//! come from the in-tree `moesi::rng::SmallRng` with fixed seeds.

use cache_array::{CacheArray, CacheConfig, ReplacementKind, SectorCache};
use moesi::rng::SmallRng;
use std::collections::HashMap;

const LINE: usize = 16;
const CASES: u64 = 64;

/// A reference model: line -> (state, data), plus an LRU list per set.
#[derive(Debug, Default)]
struct Reference {
    lines: HashMap<u64, (u8, Vec<u8>)>,
    /// Per set: line addresses, most recent first.
    lru: HashMap<usize, Vec<u64>>,
}

impl Reference {
    fn set_of(addr: u64, sets: usize) -> usize {
        ((addr / LINE as u64) % sets as u64) as usize
    }

    fn touch(&mut self, addr: u64, sets: usize) {
        let set = Self::set_of(addr, sets);
        let order = self.lru.entry(set).or_default();
        order.retain(|&a| a != addr);
        order.insert(0, addr);
    }

    fn fill(
        &mut self,
        addr: u64,
        state: u8,
        data: Vec<u8>,
        sets: usize,
        ways: usize,
    ) -> Option<u64> {
        let set = Self::set_of(addr, sets);
        let mut victim = None;
        if !self.lines.contains_key(&addr) {
            let order = self.lru.entry(set).or_default();
            if order.len() == ways {
                let evicted = order.pop().expect("full set");
                self.lines.remove(&evicted);
                victim = Some(evicted);
            }
        }
        self.lines.insert(addr, (state, data));
        self.touch(addr, sets);
        victim
    }

    fn invalidate(&mut self, addr: u64, sets: usize) -> bool {
        let set = Self::set_of(addr, sets);
        if let Some(order) = self.lru.get_mut(&set) {
            order.retain(|&a| a != addr);
        }
        self.lines.remove(&addr).is_some()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Fill { line: u64, state: u8, byte: u8 },
    Touch { line: u64 },
    Invalidate { line: u64 },
    Write { line: u64, offset: usize, byte: u8 },
    Read { line: u64, offset: usize },
    SetState { line: u64, state: u8 },
}

fn byte(rng: &mut SmallRng) -> u8 {
    rng.gen_range(0u32..256) as u8
}

fn random_op(rng: &mut SmallRng, lines: u64) -> Op {
    let line = rng.gen_range(0..lines);
    match rng.gen_range(0u32..6) {
        0 => Op::Fill {
            line,
            state: byte(rng),
            byte: byte(rng),
        },
        1 => Op::Touch { line },
        2 => Op::Invalidate { line },
        3 => Op::Write {
            line,
            offset: rng.gen_range(0..LINE),
            byte: byte(rng),
        },
        4 => Op::Read {
            line,
            offset: rng.gen_range(0..LINE),
        },
        _ => Op::SetState {
            line,
            state: byte(rng),
        },
    }
}

#[test]
fn cache_array_agrees_with_the_reference_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        // 8 sets x 2 ways of 16B lines.
        let cfg = CacheConfig::new(256, LINE, 2, ReplacementKind::Lru);
        let sets = cfg.sets();
        let ways = cfg.associativity;
        let mut cache: CacheArray<u8> = CacheArray::new(cfg, 7);
        let mut model = Reference::default();

        for _ in 0..rng.gen_range(1usize..200) {
            match random_op(&mut rng, 24) {
                Op::Fill { line, state, byte } => {
                    let addr = line * LINE as u64;
                    let data = vec![byte; LINE];
                    let victim = cache.fill(addr, state, &data, &mut Vec::new());
                    let model_victim = model.fill(addr, state, data, sets, ways);
                    assert_eq!(victim.map(|v| v.addr), model_victim, "case {case}");
                }
                Op::Touch { line } => {
                    let addr = line * LINE as u64;
                    if model.lines.contains_key(&addr) {
                        cache.touch(addr);
                        model.touch(addr, sets);
                    }
                }
                Op::Invalidate { line } => {
                    let addr = line * LINE as u64;
                    let was = cache.invalidate(addr).is_some();
                    assert_eq!(was, model.invalidate(addr, sets), "case {case}");
                }
                Op::Write { line, offset, byte } => {
                    let addr = line * LINE as u64 + offset as u64;
                    let write = Some((offset, &[byte][..]));
                    let ok = cache.locate(addr).is_some_and(|(at, state, _)| {
                        cache.commit_at(at, addr, write, false, Some(state))
                    });
                    let base = line * LINE as u64;
                    match model.lines.get_mut(&base) {
                        Some((_, data)) => {
                            assert!(ok, "case {case}");
                            data[offset] = byte;
                        }
                        None => assert!(!ok, "case {case}"),
                    }
                }
                Op::Read { line, offset } => {
                    let addr = line * LINE as u64 + offset as u64;
                    let got = cache.lookup(addr).map(|e| e.data[offset..=offset].to_vec());
                    let base = line * LINE as u64;
                    let expect = model.lines.get(&base).map(|(_, d)| vec![d[offset]]);
                    assert_eq!(got, expect, "case {case}");
                }
                Op::SetState { line, state } => {
                    let addr = line * LINE as u64;
                    let ok = cache.set_state(addr, state);
                    assert_eq!(ok, model.lines.contains_key(&addr), "case {case}");
                    if let Some((s, _)) = model.lines.get_mut(&addr) {
                        *s = state;
                    }
                }
            }
            // Global agreement after every operation.
            assert_eq!(cache.len(), model.lines.len(), "case {case}");
            for (&addr, (state, data)) in &model.lines {
                assert_eq!(cache.state_of(addr), Some(*state), "case {case}");
                let cached = cache.lookup(addr).map(|e| e.data);
                assert_eq!(cached, Some(data.as_slice()), "case {case}");
            }
            // Recency ranks agree with the reference LRU order.
            for (set, order) in &model.lru {
                for (rank, &addr) in order.iter().enumerate() {
                    assert_eq!(
                        cache.recency_rank(addr),
                        Some(rank as u32),
                        "case {case}: set {set} order {order:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn sector_cache_state_matches_a_flat_map() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case.wrapping_add(1000));
        // Fully-associative, large enough never to evict: behaviour must
        // match a flat (subsector -> state) map exactly.
        let mut sc: SectorCache<u8> = SectorCache::new(64, 64, 16);
        let mut model: HashMap<u64, u8> = HashMap::new();
        for _ in 0..rng.gen_range(1usize..120) {
            let addr = rng.gen_range(0u64..64) * 16;
            if rng.gen_bool(0.5) {
                let state = byte(&mut rng);
                assert_eq!(sc.install(addr, state), None, "no evictions expected");
                model.insert(addr, state);
            } else {
                let dropped = sc.invalidate_subsector(addr);
                assert_eq!(dropped, model.remove(&addr), "case {case}");
            }
            assert_eq!(sc.valid_subsectors(), model.len(), "case {case}");
            for (&a, &s) in &model {
                assert_eq!(sc.state_of(a), Some(s), "case {case}");
            }
        }
    }
}
