//! Every shipped protocol's policy table, rendered by the one renderer behind
//! `moesi-sim table` (`bench::render_policy`), matches the committed fixtures
//! byte for byte:
//!
//! - `tests/fixtures/tables/paper_tables.txt` holds the paper's Tables 3–7,
//!   the output of `moesi-sim table`;
//! - `tests/fixtures/tables/all_tables.txt` holds every protocol
//!   `protocols::by_name` serves, the output of
//!   `moesi-sim table --protocol moesi,moesi-invalidating,puzak,hybrid,write-through,non-caching,berkeley,dragon,write-once,illinois,firefly,synapse,random`.
//!
//! Together they pin every cell of every shipped table, its class-membership
//! verdict and whether a refinement sits over it.

use std::path::PathBuf;

/// The paper's protocol examples, in table order (Tables 3–7).
const PAPER: [&str; 5] = ["berkeley", "dragon", "write-once", "illinois", "firefly"];

/// Every name `by_name` serves, one per protocol.
const ALL: [&str; 13] = [
    "moesi",
    "moesi-invalidating",
    "puzak",
    "hybrid",
    "write-through",
    "non-caching",
    "berkeley",
    "dragon",
    "write-once",
    "illinois",
    "firefly",
    "synapse",
    "random",
];

/// What `moesi-sim table --protocol <names>` prints at its default seed.
fn render(names: &[&str]) -> String {
    names
        .iter()
        .map(|name| bench::render_policy(name, 42).expect("shipped protocol") + "\n")
        .collect()
}

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/tables")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_shipped_table_matches_its_fixture() {
    assert_eq!(render(&PAPER), fixture("paper_tables.txt"));
    assert_eq!(render(&ALL), fixture("all_tables.txt"));
}
