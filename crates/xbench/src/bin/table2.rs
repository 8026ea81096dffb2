//! Regenerates **Table II**: resource utilization of a 4×4 VCGRA grid.
//!
//! Paper: conventional overlay needs 41 inter-network routing components
//! (9 VSBs + 32 VCBs) on LUTs and 25 32-bit settings registers on
//! flip-flops; the fully parameterized overlay needs 0 and 0 (physical
//! routing switches + configuration memory).
//!
//! Usage: `cargo run -p xbench --release --bin table2`

use vcgra::VcgraArch;
use xbench::{print_header, print_row};

fn main() {
    xbench::Cli {
        name: "table2",
        switches: &[],
        valued: &[],
        positional: None,
    }
    .parse();
    let grid = VcgraArch::paper_4x4();
    let conv = grid.resources(false);
    let par = grid.resources(true);

    println!(
        "4x4 VCGRA: {} PEs, {} VSBs, {} VCBs",
        grid.pe_count(),
        grid.vsb_count(),
        grid.vcb_count()
    );

    print_header("Table II — resource utilization of a 4x4 VCGRA grid");
    print_row(
        "inter-network on LUTs, conventional",
        "41",
        &conv.inter_network_components_on_luts.to_string(),
    );
    print_row(
        "inter-network on LUTs, parameterized",
        "0",
        &par.inter_network_components_on_luts.to_string(),
    );
    print_row(
        "settings registers (FF), conventional",
        "25",
        &conv.settings_registers_on_ffs.to_string(),
    );
    print_row(
        "settings registers (FF), parameterized",
        "0",
        &par.settings_registers_on_ffs.to_string(),
    );

    println!("\nBehind the component counts:");
    print_row(
        "flip-flop bits, conventional",
        "25 x 32 = 800",
        &conv.flip_flops.to_string(),
    );
    print_row(
        "inter-network LUT estimate, conv.",
        "-",
        &conv.inter_network_luts.to_string(),
    );
    print_row(
        "settings bits in config memory, param.",
        "800",
        &par.settings_bits_in_config_memory.to_string(),
    );
    print_row(
        "inter-network TCONs, parameterized",
        "-",
        &par.inter_network_tcons.to_string(),
    );

    // Scaling sweep: the savings grow with the grid.
    println!("\nScaling (conventional FF bits / routing components eliminated):");
    for (r, c) in [(4usize, 4usize), (6, 6), (8, 8), (12, 12)] {
        let g = vcgra::VcgraArch::new(r, c, 2);
        let res = g.resources(false);
        println!(
            "  {r:>2}x{c:<2}: {:>5} FF bits, {:>4} routing components -> 0 / 0 when parameterized",
            res.flip_flops, res.inter_network_components_on_luts
        );
    }
}
