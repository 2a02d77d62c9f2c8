//! Per-phase bus profiling: Chrome trace-event export.
//!
//! [`chrome_trace`] renders everything an instrumented bus observed — one
//! complete-duration event per pipeline phase per transaction, laid out on
//! the bus-occupancy timeline, plus instant events for the disturbances the
//! transcript logs (`GLTCH`/`RETIR`/`CORPT`) — as Chrome trace-event JSON
//! that `chrome://tracing` or Perfetto load directly.
//!
//! [`trace_run`] is the CLI's exemplar driver behind `--trace-out`: one
//! small single-bus machine with tracing and phase events enabled, driven by
//! a seeded workload, optionally under fault injection. The run is always
//! sequential and self-contained, so the emitted JSON is a pure function of
//! the configuration — `--jobs N` cannot perturb it.

use futurebus::fault::{FaultConfig, FaultPlan};
use futurebus::{ChromeTraceWriter, Futurebus, Phase, TraceKind};

use crate::faults::{access, campaign_machine, plan_schedule, CampaignConfig};

/// Trace log capacity for [`trace_run`]: large enough that no record of a
/// CLI-sized run is evicted (eviction would desynchronise the instant-event
/// cursor from the phase events).
const TRACE_CAPACITY: usize = 1 << 20;

/// Renders the bus's phase events and transcript as Chrome trace-event JSON.
///
/// Each recorded transaction contributes one `"ph": "X"` duration event per
/// pipeline phase that consumed time, at its cumulative offset within the
/// transaction's slice `[start_ns, start_ns + duration)` of the
/// bus-occupancy timeline; `tid` is the mastering module. Disturbance
/// records in the transcript (glitches, retirements, corruptions) become
/// `"ph": "i"` instant events placed at the occupancy time of the
/// transaction they interrupted. Requires
/// [`enable_phase_events`](Futurebus::enable_phase_events) (and
/// [`enable_trace`](Futurebus::enable_trace) for the instants) to have been
/// on during the run.
#[must_use]
pub fn chrome_trace(bus: &Futurebus) -> String {
    let mut w = ChromeTraceWriter::new();
    let names: Vec<String> = Phase::PIPELINE.iter().map(|p| p.to_string()).collect();
    for ev in bus.phase_events() {
        let mut ts = ev.start_ns;
        for (name, dur) in names.iter().zip(ev.phase_ns) {
            if dur > 0 {
                w.duration(name, "phase", ev.master, ts, dur);
                ts += dur;
            }
        }
    }
    // Walk the transcript with a cursor that advances by each completed
    // transaction's duration — the same occupancy timeline the phase events
    // use. Pushes ride inside their master's slice, so they advance nothing.
    let mut cursor = 0;
    for rec in bus.trace().records() {
        match rec.kind {
            TraceKind::Read | TraceKind::Write | TraceKind::AddressOnly => {
                cursor += rec.duration;
            }
            TraceKind::Push => {}
            TraceKind::Glitch | TraceKind::Retire | TraceKind::Corrupt => {
                w.instant(&rec.kind.to_string(), "fault", rec.master, cursor);
            }
        }
    }
    w.finish()
}

/// Geometry and workload of one [`trace_run`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRunConfig {
    /// Protocol name (see `moesi::protocols::by_name`); all nodes run it.
    pub protocol: String,
    /// Number of cached processor nodes.
    pub cpus: usize,
    /// Line size in bytes (at least one 4-byte word).
    pub line_size: usize,
    /// Per-node cache capacity in bytes.
    pub cache_bytes: usize,
    /// Accesses to drive (round-robin over the nodes).
    pub steps: u64,
    /// Distinct lines in the working set.
    pub lines: u64,
    /// Seed for the workload (and the fault plan, when present).
    pub seed: u64,
    /// Optional fault plan to install on the bus.
    pub faults: Option<FaultConfig>,
}

impl Default for TraceRunConfig {
    fn default() -> Self {
        TraceRunConfig {
            protocol: "moesi".into(),
            cpus: 4,
            line_size: 16,
            cache_bytes: 1024,
            steps: 400,
            lines: 64,
            seed: 7,
            faults: None,
        }
    }
}

/// Runs one traced exemplar machine and returns its Chrome trace JSON.
///
/// # Errors
///
/// Returns a message for an unknown protocol or an empty geometry.
pub fn trace_run(cfg: &TraceRunConfig) -> Result<String, String> {
    if cfg.cpus == 0 || cfg.steps == 0 || cfg.lines == 0 || cfg.line_size < 4 {
        return Err("trace run needs cpus, steps, lines and a >= 4-byte line".into());
    }
    // The fault campaign's machine and its run-0 schedule.
    let campaign = CampaignConfig {
        protocols: vec![cfg.protocol.clone()],
        cpus: cfg.cpus,
        line_size: cfg.line_size,
        cache_bytes: cfg.cache_bytes,
        steps: cfg.steps,
        lines: cfg.lines,
        seed: cfg.seed,
        ..CampaignConfig::default()
    };
    let mut sys = campaign_machine(&campaign, &cfg.protocol, 0)?;
    let bus = sys.bus_mut();
    bus.enable_trace(TRACE_CAPACITY);
    bus.enable_phase_events();
    if let Some(faults) = cfg.faults {
        bus.inject_faults(FaultPlan::new(faults));
    }
    for step in plan_schedule(&campaign, 0) {
        access(&mut sys, &step);
    }
    let _ = sys.drain_bus_errors();
    Ok(chrome_trace(sys.bus()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_run_emits_phase_durations_and_no_fault_instants() {
        let text = trace_run(&TraceRunConfig::default()).unwrap();
        assert!(text.starts_with("{\n"), "{text}");
        assert!(text.ends_with("\n]\n}\n"), "{text}");
        assert!(text.contains("\"displayTimeUnit\": \"ns\""));
        assert!(
            text.contains("\"name\": \"data-transfer\""),
            "every completed transaction charges its data phase"
        );
        assert!(
            text.matches("\"ph\": \"X\"").count() > 100,
            "{}",
            text.len()
        );
        assert_eq!(text.matches("\"ph\": \"i\"").count(), 0);
        assert!(!text.contains(",\n]"), "no trailing comma");
    }

    #[test]
    fn faulted_runs_place_instant_events() {
        let cfg = TraceRunConfig {
            faults: Some(FaultConfig {
                glitch_rate: 0.5,
                ..FaultConfig::default()
            }),
            ..TraceRunConfig::default()
        };
        let text = trace_run(&cfg).unwrap();
        assert!(text.contains("\"name\": \"GLTCH\""), "glitches must land");
        assert!(text.contains("\"cat\": \"fault\""));
        assert!(
            text.contains("\"name\": \"snoop-resolve\""),
            "each glitch charges a settle window to snoop-resolve"
        );
    }

    #[test]
    fn traces_are_a_pure_function_of_the_config() {
        let cfg = TraceRunConfig {
            steps: 120,
            ..TraceRunConfig::default()
        };
        assert_eq!(trace_run(&cfg).unwrap(), trace_run(&cfg).unwrap());
    }

    #[test]
    fn bad_configs_are_rejected() {
        let unknown = TraceRunConfig {
            protocol: "mesif".into(),
            ..TraceRunConfig::default()
        };
        assert!(trace_run(&unknown).unwrap_err().contains("mesif"));
        let empty = TraceRunConfig {
            steps: 0,
            ..TraceRunConfig::default()
        };
        assert!(trace_run(&empty).is_err());
    }

    #[test]
    fn phase_events_tile_the_occupancy_timeline() {
        // The last duration event of each transaction ends where the
        // transaction's slice ends; summed phase durations equal busy_ns.
        let campaign = CampaignConfig {
            steps: 60,
            seed: 7,
            ..CampaignConfig::default()
        };
        let mut sys = campaign_machine(&campaign, "moesi", 0).unwrap();
        sys.bus_mut().enable_phase_events();
        for step in plan_schedule(&campaign, 0) {
            access(&mut sys, &step);
        }
        let charged: u64 = sys
            .bus()
            .phase_events()
            .iter()
            .map(|ev| ev.phase_ns.iter().sum::<u64>())
            .sum();
        assert_eq!(charged, sys.bus_stats().busy_ns);
    }
}
