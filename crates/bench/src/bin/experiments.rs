//! Runs the quantitative experiments E2–E6 of DESIGN.md and prints the
//! series recorded in EXPERIMENTS.md.
//!
//! Run with `cargo run --release -p bench --bin experiments`.

use bench::{
    compare_one, homogeneous_system, render_comparison, workload_streams, COMPARED_PROTOCOLS, LINE,
    WORKLOADS,
};
use futurebus::TimingConfig;
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{RefStream, Sequential};

const CPUS: usize = 4;
const STEPS: u64 = 1_000;

fn e2_sharing_sweep() {
    println!("================================================================");
    println!("E2 — §5.2 invalidate vs update, by sharing intensity");
    println!("================================================================");
    println!("4 CPUs, Dubois-Briggs model, p_write=0.3; bus-busy microseconds:");
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>10}",
        "p_shared", "update(us)", "inval(us)", "puzak(us)", "winner"
    );
    for p_shared in [0.05, 0.1, 0.2, 0.4, 0.6, 0.8] {
        let mut results = Vec::new();
        for protocol in ["moesi", "moesi-invalidating", "puzak"] {
            let mut sys =
                homogeneous_system(protocol, CPUS, 4096, LINE, TimingConfig::default(), true);
            let model = SharingModel {
                p_shared,
                line_size: LINE as u64,
                ..SharingModel::default()
            };
            let streams: Vec<Box<dyn RefStream + Send>> = (0..CPUS)
                .map(|cpu| Box::new(DuboisBriggs::new(cpu, model, 11)) as _)
                .collect();
            sys.run(&mut [streams], STEPS);
            results.push(sys.bus_stats().busy_ns as f64 / 1000.0);
        }
        let winner = if results[0] <= results[1] {
            "update"
        } else {
            "invalidate"
        };
        println!(
            "{:>9.2} {:>12.1} {:>12.1} {:>12.1} {:>10}",
            p_shared, results[0], results[1], results[2], winner
        );
    }
    println!();
}

fn e3_protocol_comparison() {
    println!("================================================================");
    println!("E3 — §5.2 full protocol comparison, per workload");
    println!("================================================================");
    for workload in WORKLOADS {
        let rows: Vec<_> = COMPARED_PROTOCOLS
            .iter()
            .map(|p| compare_one(p, workload, CPUS, STEPS))
            .collect();
        print!(
            "{}",
            render_comparison(
                &format!("workload: {workload} ({CPUS} CPUs x {STEPS} steps)"),
                &rows
            )
        );
        println!();
    }
}

fn e4_puzak_ablation() {
    println!("================================================================");
    println!("E4 — §5.2 replacement-status refinement (Puzak) ablation");
    println!("================================================================");
    println!("Shared lines contend with private traffic for a 2-way cache, so");
    println!("updates to near-replacement lines are wasted. Bus-busy us / misses:");
    println!(
        "{:>24} {:>10} {:>10} {:>12} {:>12}",
        "policy", "bus us", "misses", "updates", "invalidations"
    );
    for protocol in ["moesi", "moesi-invalidating", "puzak"] {
        // A small cache with heavy private pressure ages shared lines fast.
        let mut sys = homogeneous_system(protocol, CPUS, 1024, LINE, TimingConfig::default(), true);
        let model = SharingModel {
            shared_lines: 8,
            private_lines: 48,
            p_shared: 0.3,
            p_write: 0.4,
            p_rereference: 0.2,
            line_size: LINE as u64,
        };
        let streams: Vec<Box<dyn RefStream + Send>> = (0..CPUS)
            .map(|cpu| Box::new(DuboisBriggs::new(cpu, model, 5)) as _)
            .collect();
        sys.run(&mut [streams], STEPS);
        let t = sys.total_stats();
        println!(
            "{:>24} {:>10.1} {:>10} {:>12} {:>12}",
            protocol,
            sys.bus_stats().busy_ns as f64 / 1000.0,
            t.references() - t.hits(),
            t.updates_received,
            t.invalidations_received,
        );
    }
    println!();
}

fn e5_timing_sensitivity() {
    println!("================================================================");
    println!("E5 — §5.2 cost sensitivity: intervention vs memory latency");
    println!("================================================================");
    println!("Ping-pong sharing; memory latency fixed at 300 ns. MOESI-inv serves the");
    println!("migrating dirty line by cache-to-cache intervention; Illinois pushes it to");
    println!("memory (BS) and lets memory respond. \"Changes in their relative performance");
    println!("can change the cost of various bus operations\" — the crossover moves:");
    println!(
        "{:>18} {:>14} {:>14} {:>12}",
        "intervention(ns)", "moesi-inv(us)", "illinois(us)", "cheaper"
    );
    for intervention in [50u64, 100, 200, 300, 450, 600] {
        let timing = TimingConfig {
            intervention_latency_ns: intervention,
            ..TimingConfig::default()
        };
        let mut results = Vec::new();
        for protocol in ["moesi-invalidating", "illinois"] {
            let mut sys = homogeneous_system(protocol, CPUS, 4096, LINE, timing, true);
            sys.run(&mut [workload_streams("ping-pong", CPUS, LINE, 3)], STEPS);
            results.push(sys.bus_stats().busy_ns as f64 / 1000.0);
        }
        println!(
            "{:>18} {:>14.1} {:>14.1} {:>12}",
            intervention,
            results[0],
            results[1],
            if results[0] <= results[1] {
                "moesi-inv"
            } else {
                "illinois"
            }
        );
    }
    println!();
}

fn e6_line_size_sweep() {
    println!("================================================================");
    println!("E6 — §5.1 line size: miss ratio and traffic vs line size");
    println!("================================================================");
    println!("One CPU, sequential sweep with spatial locality (stride 4B):");
    println!(
        "{:>10} {:>10} {:>14} {:>12}",
        "line(B)", "hit%", "bytes moved", "bus txns"
    );
    for line in [8usize, 16, 32, 64, 128] {
        let mut sys = homogeneous_system("moesi", 1, 4096, line, TimingConfig::default(), true);
        let streams: Vec<Box<dyn RefStream + Send>> =
            vec![Box::new(Sequential::new(0, 4, 8192, 0.2, 9))];
        sys.run(&mut [streams], 4_000);
        let t = sys.total_stats();
        println!(
            "{:>10} {:>9.1}% {:>14} {:>12}",
            line,
            t.hit_ratio() * 100.0,
            sys.bus_stats().bytes_moved,
            sys.bus_stats().transactions,
        );
    }
    println!("\nLarger lines exploit the spatial locality (hit%% rises) but move more");
    println!("bytes per miss — the traffic trade-off behind §5.1's call for a single");
    println!("standardised size chosen from data like [Smit85c].\n");
}

fn main() {
    e2_sharing_sweep();
    e3_protocol_comparison();
    e4_puzak_ablation();
    e5_timing_sensitivity();
    e6_line_size_sweep();
}
