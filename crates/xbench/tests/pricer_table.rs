//! The runtime prices every swap on a checked-in table, not on a PE it
//! maps: this maps the pricing PE again and fails if the table in
//! `crates/runtime/src/pricer/table.rs` is not what the mapper produces.

const CHECKED_IN: &str = include_str!("../../runtime/src/pricer/table.rs");

#[test]
fn the_checked_in_pricing_table_is_the_mapped_pe() {
    let fresh = xbench::pricer_table(xbench::PRICER_PE);
    let first_difference = CHECKED_IN
        .lines()
        .zip(fresh.lines())
        .position(|(a, b)| a != b);
    assert!(
        CHECKED_IN == fresh,
        "the pricing table differs from a fresh map (first at line {:?}); \
         regenerate it with `cargo run -p xbench --release --bin pricer_table \
         > crates/runtime/src/pricer/table.rs`",
        first_difference.map(|i| i + 1)
    );
}
