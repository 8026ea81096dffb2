//! Prints the runtime's pricing table: the (4,6) pricing PE mapped
//! parameterized, its PPC as `static` arrays ([`xbench::pricer_table`]).
//!
//! ```sh
//! cargo run -p xbench --release --bin pricer_table > crates/runtime/src/pricer/table.rs
//! ```
//!
//! `cargo test -p xbench --test pricer_table` fails while the checked-in
//! file differs from what this prints.

fn main() {
    print!("{}", xbench::pricer_table(xbench::PRICER_PE));
}
