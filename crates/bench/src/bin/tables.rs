//! Regenerates Tables 1–7 of the paper (experiments T1–T7 in DESIGN.md).
//!
//! Run with `cargo run -p bench --bin tables`.

use bench::render_policy;
use moesi::compat::check_protocol;
use moesi::protocols::by_name;
use moesi::{table, CacheKind};

fn main() {
    println!("================================================================");
    println!("Table 1 — MOESI protocol class: local events (copy-back rows)");
    println!("================================================================");
    print!("{}", table::render_table1(CacheKind::CopyBack));
    println!();
    println!("Table 1 (cont.) — write-through cache rows (*)");
    print!("{}", table::render_table1(CacheKind::WriteThrough));
    println!();
    println!("Table 1 (cont.) — non-caching processor rows (**)");
    print!("{}", table::render_table1(CacheKind::NonCaching));
    println!();

    println!("================================================================");
    println!("Table 2 — MOESI protocol class: bus events");
    println!("================================================================");
    print!("{}", table::render_table2());
    println!();

    for (title, name) in [
        ("Table 3 — Berkeley protocol", "berkeley"),
        ("Table 4 — Dragon protocol", "dragon"),
        ("Table 5 — Write-Once protocol", "write-once"),
        ("Table 6 — Illinois protocol", "illinois"),
        ("Table 7 — Firefly protocol", "firefly"),
        (
            "Bonus — Synapse protocol (Arch85's sixth, via [Fran84])",
            "synapse",
        ),
    ] {
        println!("================================================================");
        println!("{title}");
        println!("================================================================");
        println!(
            "{}",
            render_policy(name, 0).expect("shipped protocol table")
        );
    }

    println!("================================================================");
    println!("Class membership summary (§3.4 / §4)");
    println!("================================================================");
    for name in [
        "moesi",
        "moesi-invalidating",
        "puzak",
        "write-through",
        "non-caching",
        "berkeley",
        "dragon",
        "random",
        "write-once",
        "illinois",
        "firefly",
        "synapse",
    ] {
        let mut p = by_name(name, 9).expect("known");
        let report = check_protocol(p.as_mut());
        println!(
            "  {:<20} {}",
            name,
            if report.is_class_member() {
                "class member".to_string()
            } else {
                format!(
                    "adapted ({} out-of-class decisions)",
                    report.violations().len()
                )
            }
        );
    }
}
