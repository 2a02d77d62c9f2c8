//! Renders every protocol's state machine as Graphviz DOT, plus a live
//! state census — Figure 3's taxonomy applied to a running machine.
//!
//! Run with `cargo run --example state_diagrams`. Pipe a diagram through
//! `dot -Tpng` to draw it.

use cache_array::CacheConfig;
use moesi::dot;
use moesi::protocols::by_name;
use mpsim::workload::{DuboisBriggs, SharingModel};
use mpsim::{RefStream, SystemBuilder};

fn main() {
    for name in [
        "moesi",
        "berkeley",
        "dragon",
        "write-once",
        "illinois",
        "firefly",
        "synapse",
    ] {
        let mut p = by_name(name, 0).expect("known protocol");
        println!("// ---- {} ----", p.name());
        print!("{}", dot::render(p.as_mut()));
        println!();
    }

    println!("// ---- live state census ----");
    println!("// After 500 steps of a sharing workload, the Figure-3 taxonomy");
    println!("// describes the machine's whole content:");
    let mut sys = SystemBuilder::new(32)
        .cache(by_name("moesi", 0).unwrap(), CacheConfig::small())
        .cache(by_name("moesi", 1).unwrap(), CacheConfig::small())
        .cache(by_name("moesi", 2).unwrap(), CacheConfig::small())
        .cache(by_name("moesi", 3).unwrap(), CacheConfig::small())
        .checking(true)
        .build();
    let model = SharingModel::default();
    let streams: Vec<Box<dyn RefStream + Send>> = (0..4)
        .map(|cpu| Box::new(DuboisBriggs::new(cpu, model, 31)) as _)
        .collect();
    sys.run(&mut [streams], 500);
    for cpu in 0..sys.nodes() {
        println!("// cpu{cpu}: {}", sys.state_census(cpu));
    }
    let total = sys.total_state_census();
    println!(
        "// total: {total}  ({} lines owned system-wide)",
        total.owned()
    );
    sys.verify().expect("consistent");
}
