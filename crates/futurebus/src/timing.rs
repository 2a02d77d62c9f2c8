//! The bus timing model, in nanoseconds.
//!
//! §5.2: "the preferred protocol is sensitive to the implementation of the
//! bus, the memory and the caches. Changes in their relative performance can
//! change the cost of various bus operations ... and change the preferred
//! actions." All costs are therefore configuration, not constants, and the
//! timing-sweep benchmark varies them.
//!
//! The one number the paper fixes is the broadcast handshake penalty: "The
//! exacted penalty on the Futurebus is that broadcast handshaking is 25
//! nanoseconds slower than single slave transactions" (§2.2) — the price of
//! filtering wired-OR glitches with an asymmetrical inertial delay line.

use std::fmt;

/// A duration in nanoseconds.
pub type Nanos = u64;

/// The paper's broadcast handshake penalty (§2.2).
pub const BROADCAST_PENALTY_NS: Nanos = 25;

/// Cost parameters for one Futurebus configuration.
///
/// # Examples
///
/// ```
/// use futurebus::TimingConfig;
///
/// let t = TimingConfig::default();
/// // A broadcast beat costs the wired-OR filter delay on top of a plain beat.
/// assert_eq!(t.data_beat(true) - t.data_beat(false), 25);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimingConfig {
    /// Bus arbitration overhead per transaction.
    pub arbitration_ns: Nanos,
    /// The broadcast address cycle (always broadcast on the Futurebus, §2.1),
    /// including its handshake.
    pub address_cycle_ns: Nanos,
    /// Extra delay per broadcast (multi-party) data beat, from the wired-OR
    /// glitch filter. 25 ns on the real bus.
    pub broadcast_penalty_ns: Nanos,
    /// One data beat (one bus word) in a single-slave transfer.
    pub data_beat_ns: Nanos,
    /// Main memory access latency (first word).
    pub memory_latency_ns: Nanos,
    /// An intervening cache's access latency (first word); usually well below
    /// memory latency — that asymmetry is what makes intervention attractive.
    pub intervention_latency_ns: Nanos,
    /// Bytes moved per data beat (bus width). 4 for the 32-bit Futurebus.
    pub bus_word_bytes: usize,
    /// How long the bus waits for a snooper's response before the watchdog
    /// declares it dead and retires it from the snoop set. Far above any
    /// legitimate handshake time: a healthy module answers within the
    /// address-cycle handshake, so only a genuinely hung board ever pays this.
    pub watchdog_timeout_ns: Nanos,
}

impl Default for TimingConfig {
    /// Plausible mid-1980s numbers: 100 ns bus cycle, 300 ns DRAM,
    /// 100 ns SRAM cache intervention.
    fn default() -> Self {
        TimingConfig {
            arbitration_ns: 50,
            address_cycle_ns: 100,
            broadcast_penalty_ns: BROADCAST_PENALTY_NS,
            data_beat_ns: 100,
            memory_latency_ns: 300,
            intervention_latency_ns: 100,
            bus_word_bytes: 4,
            watchdog_timeout_ns: 10_000,
        }
    }
}

impl TimingConfig {
    /// Cost of one data beat, broadcast or single-slave.
    #[must_use]
    pub fn data_beat(&self, broadcast: bool) -> Nanos {
        if broadcast {
            self.data_beat_ns + self.broadcast_penalty_ns
        } else {
            self.data_beat_ns
        }
    }

    /// Number of beats needed to move `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bus_word_bytes` is zero.
    #[must_use]
    pub fn beats_for(&self, bytes: usize) -> u64 {
        assert!(self.bus_word_bytes > 0, "bus width must be non-zero");
        (bytes.div_ceil(self.bus_word_bytes)) as u64
    }

    /// Cost of a full transaction moving `payload_bytes` bytes:
    /// arbitration, address cycle, and (for data-bearing transactions) the
    /// transfer from the given source.
    #[must_use]
    pub fn transaction(
        &self,
        payload_bytes: usize,
        source: DataSourceLatency,
        broadcast: bool,
    ) -> Nanos {
        let beats = if payload_bytes == 0 {
            0
        } else {
            self.beats_for(payload_bytes)
        };
        self.transaction_beats(beats, source, broadcast)
    }

    /// [`transaction`](TimingConfig::transaction) moving `beats` data beats
    /// (none: address only), for a caller that knows the count: a bus
    /// counts a whole line's beats once.
    pub(crate) fn transaction_beats(
        &self,
        beats: u64,
        source: DataSourceLatency,
        broadcast: bool,
    ) -> Nanos {
        let latency = match source {
            DataSourceLatency::Memory => self.memory_latency_ns,
            DataSourceLatency::Intervention => self.intervention_latency_ns,
            DataSourceLatency::Master => 0,
        };
        let data = if beats == 0 {
            0
        } else {
            latency + beats * self.data_beat(broadcast)
        };
        self.arbitration_ns + self.address_cycle_ns + data
    }
}

/// Who pays the first-word latency of a transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataSourceLatency {
    /// Main memory responds.
    Memory,
    /// An intervening (owner) cache responds.
    Intervention,
    /// The transaction master drives the data (writes).
    Master,
}

impl fmt::Display for DataSourceLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataSourceLatency::Memory => "memory",
            DataSourceLatency::Intervention => "intervention",
            DataSourceLatency::Master => "master",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_beats_cost_the_paper_penalty() {
        let t = TimingConfig::default();
        assert_eq!(t.data_beat(false), 100);
        assert_eq!(t.data_beat(true), 125);
        assert_eq!(t.broadcast_penalty_ns, 25);
    }

    #[test]
    fn beats_round_up_to_whole_bus_words() {
        let t = TimingConfig::default();
        assert_eq!(t.beats_for(4), 1);
        assert_eq!(t.beats_for(5), 2);
        assert_eq!(t.beats_for(32), 8);
        assert_eq!(t.beats_for(0), 0);
    }

    #[test]
    fn a_transfer_costed_by_its_beats_costs_what_its_bytes_cost() {
        let t = TimingConfig::default();
        for bytes in 0..=64 {
            let beats = t.beats_for(bytes);
            for source in [
                DataSourceLatency::Memory,
                DataSourceLatency::Intervention,
                DataSourceLatency::Master,
            ] {
                for broadcast in [false, true] {
                    assert_eq!(
                        t.transaction_beats(beats, source, broadcast),
                        t.transaction(bytes, source, broadcast),
                        "{bytes} bytes from {source}"
                    );
                }
            }
        }
    }

    #[test]
    fn intervention_is_cheaper_than_memory_by_default() {
        let t = TimingConfig::default();
        let from_mem = t.transaction(32, DataSourceLatency::Memory, false);
        let from_cache = t.transaction(32, DataSourceLatency::Intervention, false);
        assert!(from_cache < from_mem);
        assert_eq!(from_mem - from_cache, 200);
    }

    #[test]
    fn address_only_transactions_move_no_data() {
        let t = TimingConfig::default();
        let cost = t.transaction(0, DataSourceLatency::Master, false);
        assert_eq!(cost, t.arbitration_ns + t.address_cycle_ns);
    }

    #[test]
    fn full_transaction_sums_phases() {
        let t = TimingConfig::default();
        let cost = t.transaction(16, DataSourceLatency::Memory, true);
        assert_eq!(
            cost,
            50 + 100 + 300 + 4 * 125,
            "arb + addr + mem latency + 4 broadcast beats"
        );
    }

    #[test]
    #[should_panic(expected = "bus width")]
    fn zero_width_bus_is_rejected() {
        let t = TimingConfig {
            bus_word_bytes: 0,
            ..TimingConfig::default()
        };
        let _ = t.beats_for(8);
    }
}
