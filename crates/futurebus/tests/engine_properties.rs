//! Property tests of the Futurebus transaction engine's data-path semantics:
//! the memory-update rules of §2/§4 must hold for arbitrary transaction
//! sequences against arbitrary snooper responses.

use futurebus::{
    BusModule, BusObservation, Futurebus, PushWrite, TimingConfig, TransactionRequest,
};
use moesi::{MasterSignals, ResponseSignals};
use proptest::prelude::*;

const LINE: usize = 16;

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
    fn supply_line(&mut self, _addr: u64) -> Box<[u8]> {
        self.line.clone().into_boxed_slice()
    }
    fn prepare_push(&mut self, _addr: u64) -> PushWrite {
        self.pushes += 1;
        PushWrite {
            data: self.line.clone().into_boxed_slice(),
            signals: MasterSignals::CA,
        }
    }
    fn complete(&mut self, _req: &TransactionRequest, obs: &BusObservation<'_>) {
        if let Some((_, bytes)) = obs.write_data {
            self.seen_payloads.push(bytes.to_vec());
        }
    }
}

fn response_strategy() -> impl Strategy<Value = ResponseSignals> {
    // No BS here (push loops are tested separately); at most one DI asserted
    // per transaction is the caller's responsibility, tested below with a
    // single snooper.
    (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(ch, di, sl)| ResponseSignals {
        ch,
        di,
        sl,
        bs: false,
    })
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

fn txn_strategy() -> impl Strategy<Value = Txn> {
    prop_oneof![
        (any::<bool>(), any::<bool>()).prop_map(|(ca, im)| Txn::Read { ca, im }),
        (0..LINE, 1..4usize, any::<bool>(), any::<bool>()).prop_map(|(offset, len, bc, ca)| {
            Txn::Write {
                offset: offset.min(LINE - len),
                len,
                bc,
                ca,
            }
        }),
        Just(Txn::Invalidate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_update_rules_hold_for_any_sequence(
        txns in proptest::collection::vec((txn_strategy(), response_strategy()), 1..40),
    ) {
        let mut bus = Futurebus::new(LINE, TimingConfig::default());
        // Shadow of what memory must contain.
        let mut shadow = [0u8; LINE];
        let addr = 0x40;

        for (i, (txn, response)) in txns.into_iter().enumerate() {
            let mut snooper = Scripted::new(vec![response]);
            let mut mods: Vec<&mut dyn BusModule> = vec![&mut snooper];
            match txn {
                Txn::Read { ca, im } => {
                    let signals = MasterSignals::new(ca, im, false);
                    let out = bus
                        .execute(&TransactionRequest::read(1, addr, signals), &mut mods)
                        .expect("read");
                    // Reads never modify memory.
                    prop_assert_eq!(bus.memory().peek(addr), &shadow[..], "txn {}", i);
                    // Data came from the DI snooper or from memory.
                    let data = out.data.expect("reads return data");
                    if response.di {
                        prop_assert_eq!(&data[..], &[0xAB; LINE][..]);
                    } else {
                        prop_assert_eq!(&data[..], &shadow[..]);
                    }
                    prop_assert_eq!(out.ch_seen, response.ch);
                }
                Txn::Write { offset, len, bc, ca } => {
                    let bytes = vec![i as u8; len];
                    let signals = MasterSignals::new(ca, true, bc);
                    bus.execute(
                        &TransactionRequest::write(1, addr, signals, offset, bytes.clone()),
                        &mut mods,
                    )
                    .expect("write");
                    if bc {
                        // Broadcast writes always reach memory; SL snoopers
                        // receive the payload.
                        shadow[offset..offset + len].copy_from_slice(&bytes);
                        if response.sl {
                            prop_assert_eq!(
                                snooper.seen_payloads.last(),
                                Some(&bytes)
                            );
                        }
                    } else if response.di {
                        // Captured: memory untouched, owner got the payload.
                        prop_assert_eq!(snooper.seen_payloads.last(), Some(&bytes));
                    } else {
                        shadow[offset..offset + len].copy_from_slice(&bytes);
                    }
                    prop_assert_eq!(bus.memory().peek(addr), &shadow[..], "txn {}", i);
                }
                Txn::Invalidate => {
                    bus.execute(
                        &TransactionRequest::address_only(1, addr, MasterSignals::CA_IM),
                        &mut mods,
                    )
                    .expect("invalidate");
                    prop_assert_eq!(bus.memory().peek(addr), &shadow[..]);
                }
            }
        }
    }

    #[test]
    fn stats_add_up_for_any_sequence(
        txns in proptest::collection::vec(txn_strategy(), 1..40),
    ) {
        let mut bus = Futurebus::new(LINE, TimingConfig::default());
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut invals = 0u64;
        for txn in txns {
            match txn {
                Txn::Read { ca, im } => {
                    bus.execute(
                        &TransactionRequest::read(0, 0, MasterSignals::new(ca, im, false)),
                        &mut [],
                    )
                    .expect("read");
                    reads += 1;
                }
                Txn::Write { offset, len, bc, ca } => {
                    bus.execute(
                        &TransactionRequest::write(
                            0,
                            0,
                            MasterSignals::new(ca, true, bc),
                            offset,
                            vec![0; len],
                        ),
                        &mut [],
                    )
                    .expect("write");
                    writes += 1;
                }
                Txn::Invalidate => {
                    bus.execute(
                        &TransactionRequest::address_only(0, 0, MasterSignals::CA_IM),
                        &mut [],
                    )
                    .expect("invalidate");
                    invals += 1;
                }
            }
        }
        let s = bus.stats();
        prop_assert_eq!(s.reads, reads);
        prop_assert_eq!(s.writes, writes);
        prop_assert_eq!(s.address_only, invals);
        prop_assert_eq!(s.transactions, reads + writes + invals);
        prop_assert!(s.busy_ns > 0);
    }

    #[test]
    fn bs_push_rounds_always_converge_or_error(
        pre_aborts in 0usize..6,
    ) {
        // A snooper that aborts `pre_aborts` times before settling.
        let mut responses =
            vec![ResponseSignals { bs: true, ..ResponseSignals::NONE }; pre_aborts];
        responses.push(ResponseSignals::CH);
        let mut snooper = Scripted::new(responses);
        let mut bus = Futurebus::new(LINE, TimingConfig::default());
        let mut mods: Vec<&mut dyn BusModule> = vec![&mut snooper];
        let result = bus.execute(&TransactionRequest::read(1, 0, MasterSignals::CA), &mut mods);
        if pre_aborts <= 4 {
            let out = result.expect("within the retry limit");
            prop_assert_eq!(out.aborts as usize, pre_aborts);
            prop_assert_eq!(snooper.pushes, pre_aborts);
            if pre_aborts > 0 {
                // The push left the snooper's line in memory.
                prop_assert_eq!(&out.data.expect("read data")[..], &[0xAB; LINE][..]);
            }
        } else {
            prop_assert!(result.is_err(), "must hit the retry limit");
        }
    }
}
