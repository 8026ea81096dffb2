//! VCGRA grid architecture and resource accounting (Table II).
//!
//! A `rows × cols` VCGRA contains `rows·cols` PEs, `(rows-1)·(cols-1)`
//! Virtual Switch Blocks at the interior corners (the paper's 4×4 grid has
//! 9) and two Virtual Connection Blocks per PE (input and output side — 32
//! for the 4×4 grid, giving the paper's 41 routing components in total).
//! Every PE and every VSB owns one 32-bit settings register (25 total).
//!
//! * In the **conventional** overlay, the 41 routing components are built
//!   out of LUTs and the 25 settings registers out of logic-cell
//!   flip-flops, updated through a dedicated settings bus.
//! * In the **fully parameterized** overlay both counts drop to zero: the
//!   routing components map onto the FPGA's physical switch/connection
//!   blocks (TCONs) and the settings registers onto configuration memory
//!   (micro-reconfiguration, Section II-C).

/// Width of a settings register in bits (the paper uses 32-bit registers).
pub(crate) const SETTINGS_REGISTER_BITS: usize = 32;

/// Geometry and sizing of a VCGRA instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcgraArch {
    /// Number of PE rows.
    pub rows: usize,
    /// Number of PE columns.
    pub cols: usize,
    /// Word-level channel capacity between adjacent PEs (virtual wires per
    /// channel segment).
    pub channel_capacity: usize,
}

impl VcgraArch {
    /// The paper's evaluation grid: 4×4 PEs.
    pub fn paper_4x4() -> Self {
        Self {
            rows: 4,
            cols: 4,
            channel_capacity: 2,
        }
    }

    /// Creates a grid; both dimensions must be at least 2.
    pub fn new(rows: usize, cols: usize, channel_capacity: usize) -> Self {
        assert!(rows >= 2 && cols >= 2, "VCGRA needs at least a 2x2 grid");
        assert!(channel_capacity >= 1);
        Self {
            rows,
            cols,
            channel_capacity,
        }
    }

    /// Number of Processing Elements.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of Virtual Switch Blocks (interior corners of the PE grid).
    pub fn vsb_count(&self) -> usize {
        (self.rows - 1) * (self.cols - 1)
    }

    /// Number of Virtual Connection Blocks (one per PE side that meets a
    /// routing channel: input and output side per PE).
    pub fn vcb_count(&self) -> usize {
        2 * self.pe_count()
    }

    /// Total routing components of the inter-PE network.
    fn inter_network_components(&self) -> usize {
        self.vsb_count() + self.vcb_count()
    }

    /// Number of settings registers (one per PE, one per VSB).
    pub fn settings_register_count(&self) -> usize {
        self.pe_count() + self.vsb_count()
    }

    /// Resource accounting for one implementation style (a Table II row).
    pub fn resources(&self, parameterized: bool) -> GridResources {
        if parameterized {
            GridResources {
                inter_network_components_on_luts: 0,
                settings_registers_on_ffs: 0,
                flip_flops: 0,
                inter_network_luts: 0,
                settings_bits_in_config_memory: self.settings_register_count()
                    * SETTINGS_REGISTER_BITS,
                inter_network_tcons: self.inter_network_tcon_estimate(),
            }
        } else {
            GridResources {
                inter_network_components_on_luts: self.inter_network_components(),
                settings_registers_on_ffs: self.settings_register_count(),
                flip_flops: self.settings_register_count() * SETTINGS_REGISTER_BITS,
                inter_network_luts: self.inter_network_lut_estimate(),
                settings_bits_in_config_memory: 0,
                inter_network_tcons: 0,
            }
        }
    }

    /// LUT cost model of the conventional inter-PE network: every virtual
    /// 4:1 word-level multiplexer costs two 4-LUTs per bit (a standard
    /// 6-input 4:1 mux split over two 4-LUTs). A VSB switches a word
    /// towards 4 directions; a VCB selects among the adjacent channel's
    /// wires.
    fn inter_network_lut_estimate(&self) -> usize {
        let w = 35; // word width of the paper's FloPoCo format
        let per_mux4 = 2 * w;
        self.vsb_count() * 4 * per_mux4 * self.channel_capacity / 2 + self.vcb_count() * per_mux4
    }

    /// TCON count when the same multiplexers are mapped onto physical
    /// routing switches (three 2:1 selections per 4:1 mux per bit).
    fn inter_network_tcon_estimate(&self) -> usize {
        let w = 35;
        let per_mux4 = 3 * w;
        self.vsb_count() * 4 * per_mux4 * self.channel_capacity / 2 + self.vcb_count() * per_mux4
    }
}

/// One row of Table II (plus the LUT/FF cost behind the component counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridResources {
    /// Routing components that must be realized in LUTs (paper: 41 → 0).
    pub inter_network_components_on_luts: usize,
    /// Settings registers realized in flip-flops (paper: 25 → 0).
    pub settings_registers_on_ffs: usize,
    /// Flip-flop bits behind those registers.
    pub flip_flops: usize,
    /// Estimated LUTs behind the conventional inter-network.
    pub inter_network_luts: usize,
    /// Settings bits that live in configuration memory instead (the
    /// parameterized mapping of the registers).
    pub settings_bits_in_config_memory: usize,
    /// TCONs realizing the inter-network on physical routing switches.
    pub inter_network_tcons: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_counts_match_table2() {
        let g = VcgraArch::paper_4x4();
        assert_eq!(g.pe_count(), 16);
        assert_eq!(g.vsb_count(), 9);
        assert_eq!(g.vcb_count(), 32);
        assert_eq!(
            g.inter_network_components(),
            41,
            "paper: 41 routing components"
        );
        assert_eq!(
            g.settings_register_count(),
            25,
            "paper: 25 settings registers"
        );
    }

    #[test]
    fn conventional_row_of_table2() {
        let g = VcgraArch::paper_4x4();
        let r = g.resources(false);
        assert_eq!(r.inter_network_components_on_luts, 41);
        assert_eq!(r.settings_registers_on_ffs, 25);
        assert_eq!(r.flip_flops, 25 * 32);
        assert!(r.inter_network_luts > 0);
        assert_eq!(r.settings_bits_in_config_memory, 0);
    }

    #[test]
    fn parameterized_row_of_table2() {
        let g = VcgraArch::paper_4x4();
        let r = g.resources(true);
        assert_eq!(r.inter_network_components_on_luts, 0, "paper: 0");
        assert_eq!(r.settings_registers_on_ffs, 0, "paper: 0");
        assert_eq!(r.flip_flops, 0);
        assert_eq!(r.inter_network_luts, 0);
        assert_eq!(r.settings_bits_in_config_memory, 25 * 32);
        assert!(
            r.inter_network_tcons > 0,
            "network lives on physical switches"
        );
    }

    #[test]
    fn scaling_other_grids() {
        let g = VcgraArch::new(3, 5, 2);
        assert_eq!(g.pe_count(), 15);
        assert_eq!(g.vsb_count(), 8);
        assert_eq!(g.vcb_count(), 30);
        assert_eq!(g.settings_register_count(), 23);
    }

    #[test]
    #[should_panic(expected = "at least a 2x2")]
    fn tiny_grid_rejected() {
        VcgraArch::new(1, 4, 1);
    }
}
