//! Randomized tests of the Futurebus transaction engine's data-path
//! semantics: the memory-update rules of §2/§4 must hold for arbitrary
//! transaction sequences against arbitrary snooper responses. Inputs come
//! from the in-tree `moesi::rng::SmallRng` with fixed seeds.

use futurebus::{
    BusModule, BusObservation, Futurebus, PushWrite, RetryPolicy, TimingConfig, TransactionRequest,
};
use moesi::rng::SmallRng;
use moesi::{MasterSignals, ResponseSignals};

const LINE: usize = 16;
const CASES: u64 = 64;

/// A snooper scripted by a response list, recording everything it observes.
struct Scripted {
    responses: Vec<ResponseSignals>,
    cursor: usize,
    line: Vec<u8>,
    seen_payloads: Vec<Vec<u8>>,
    pushes: usize,
}

impl Scripted {
    fn new(responses: Vec<ResponseSignals>) -> Self {
        Scripted {
            responses,
            cursor: 0,
            line: vec![0xAB; LINE],
            seen_payloads: Vec::new(),
            pushes: 0,
        }
    }
}

impl BusModule for Scripted {
    fn snoop(&mut self, _req: &TransactionRequest) -> ResponseSignals {
        let r = self.responses[self.cursor % self.responses.len()];
        self.cursor += 1;
        r
    }
    fn supply_line(&mut self, _addr: u64) -> Option<&[u8]> {
        Some(&self.line)
    }
    fn prepare_push(&mut self, _addr: u64) -> Option<PushWrite<'_>> {
        self.pushes += 1;
        Some(PushWrite {
            data: &self.line,
            signals: MasterSignals::CA,
        })
    }
    fn complete(&mut self, _req: &TransactionRequest, obs: &BusObservation<'_>) {
        if let Some((_, bytes)) = obs.write_data {
            self.seen_payloads.push(bytes.to_vec());
        }
    }
}

fn coin(rng: &mut SmallRng) -> bool {
    rng.gen_bool(0.5)
}

/// Any CH/DI/SL combination. No BS here (push loops are tested separately);
/// at most one DI per transaction holds because there is a single snooper.
fn random_response(rng: &mut SmallRng) -> ResponseSignals {
    ResponseSignals {
        ch: coin(rng),
        di: coin(rng),
        sl: coin(rng),
        bs: false,
    }
}

#[derive(Clone, Debug)]
enum Txn {
    Read {
        ca: bool,
        im: bool,
    },
    Write {
        offset: usize,
        len: usize,
        bc: bool,
        ca: bool,
    },
    Invalidate,
}

fn random_txn(rng: &mut SmallRng) -> Txn {
    match rng.gen_range(0u32..3) {
        0 => Txn::Read {
            ca: coin(rng),
            im: coin(rng),
        },
        1 => {
            let offset = rng.gen_range(0..LINE);
            let len = rng.gen_range(1usize..4);
            Txn::Write {
                offset: offset.min(LINE - len),
                len,
                bc: coin(rng),
                ca: coin(rng),
            }
        }
        _ => Txn::Invalidate,
    }
}

#[test]
fn memory_update_rules_hold_for_any_sequence() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut bus = Futurebus::new(LINE, TimingConfig::default());
        // Shadow of what memory must contain.
        let mut shadow = [0u8; LINE];
        let addr = 0x40;

        for i in 0..rng.gen_range(1usize..40) {
            let txn = random_txn(&mut rng);
            let response = random_response(&mut rng);
            let mut snooper = Scripted::new(vec![response]);
            let mut mods: Vec<&mut dyn BusModule> = vec![&mut snooper];
            match txn {
                Txn::Read { ca, im } => {
                    let signals = MasterSignals::new(ca, im, false);
                    let out = bus
                        .execute(&TransactionRequest::read(1, addr, signals), &mut mods)
                        .expect("read");
                    // Data came from the DI snooper or from memory.
                    let data = out.data.expect("reads return data");
                    if response.di {
                        assert_eq!(data, &[0xAB; LINE][..]);
                    } else {
                        assert_eq!(data, &shadow[..]);
                    }
                    assert_eq!(out.ch_seen, response.ch);
                    // Reads never modify memory.
                    assert_eq!(bus.memory().peek(addr), &shadow[..], "case {case} txn {i}");
                }
                Txn::Write {
                    offset,
                    len,
                    bc,
                    ca,
                } => {
                    let bytes = vec![i as u8; len];
                    let signals = MasterSignals::new(ca, true, bc);
                    bus.execute(
                        &TransactionRequest::write(1, addr, signals, offset, &bytes),
                        &mut mods,
                    )
                    .expect("write");
                    if bc {
                        // Broadcast writes always reach memory; SL snoopers
                        // receive the payload.
                        shadow[offset..offset + len].copy_from_slice(&bytes);
                        if response.sl {
                            assert_eq!(snooper.seen_payloads.last(), Some(&bytes));
                        }
                    } else if response.di {
                        // Captured: memory untouched, owner got the payload.
                        assert_eq!(snooper.seen_payloads.last(), Some(&bytes));
                    } else {
                        shadow[offset..offset + len].copy_from_slice(&bytes);
                    }
                    assert_eq!(bus.memory().peek(addr), &shadow[..], "case {case} txn {i}");
                }
                Txn::Invalidate => {
                    bus.execute(
                        &TransactionRequest::address_only(1, addr, MasterSignals::CA_IM),
                        &mut mods,
                    )
                    .expect("invalidate");
                    assert_eq!(bus.memory().peek(addr), &shadow[..], "case {case} txn {i}");
                }
            }
        }
    }
}

#[test]
fn stats_add_up_for_any_sequence() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case.wrapping_add(1000));
        let mut bus = Futurebus::new(LINE, TimingConfig::default());
        let (mut reads, mut writes, mut invals) = (0u64, 0u64, 0u64);
        let zeros = [0; LINE];
        for _ in 0..rng.gen_range(1usize..40) {
            let req = match random_txn(&mut rng) {
                Txn::Read { ca, im } => {
                    reads += 1;
                    TransactionRequest::read(0, 0, MasterSignals::new(ca, im, false))
                }
                Txn::Write {
                    offset,
                    len,
                    bc,
                    ca,
                } => {
                    writes += 1;
                    let signals = MasterSignals::new(ca, true, bc);
                    TransactionRequest::write(0, 0, signals, offset, &zeros[..len])
                }
                Txn::Invalidate => {
                    invals += 1;
                    TransactionRequest::address_only(0, 0, MasterSignals::CA_IM)
                }
            };
            bus.execute(&req, &mut []).expect("no snooper, no failure");
        }
        let s = bus.stats();
        assert_eq!(s.reads, reads, "case {case}");
        assert_eq!(s.writes, writes, "case {case}");
        assert_eq!(s.address_only, invals, "case {case}");
        assert_eq!(s.transactions, reads + writes + invals, "case {case}");
        assert!(s.busy_ns > 0);
    }
}

#[test]
fn bs_push_rounds_always_converge_or_error() {
    const MAX_RETRIES: usize = 4;
    for pre_aborts in 0..=MAX_RETRIES + 1 {
        // A snooper that aborts `pre_aborts` times before settling.
        let mut responses = vec![
            ResponseSignals {
                bs: true,
                ..ResponseSignals::NONE
            };
            pre_aborts
        ];
        responses.push(ResponseSignals::CH);
        let mut snooper = Scripted::new(responses);
        let mut bus = Futurebus::new(LINE, TimingConfig::default());
        bus.set_retry_policy(RetryPolicy {
            max_retries: MAX_RETRIES as u32,
            ..RetryPolicy::default()
        });
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut snooper];
        let result = bus.execute(
            &TransactionRequest::read(1, 0, MasterSignals::CA),
            &mut mods,
        );
        if pre_aborts <= MAX_RETRIES {
            let out = result.expect("within the retry limit");
            assert_eq!(out.aborts as usize, pre_aborts);
            assert_eq!(snooper.pushes, pre_aborts);
            if pre_aborts > 0 {
                // The push left the snooper's line in memory.
                assert_eq!(out.data.expect("read data"), &[0xAB; LINE][..]);
            }
        } else {
            assert!(result.is_err(), "must hit the retry limit");
        }
    }
}
