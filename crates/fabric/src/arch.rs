//! Architecture parameters of the island-style fabric.

/// Parameters of the FPGA architecture (VPR-style, K = 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricArch {
    /// Logic-block array is `size × size` (I/O ring not included).
    pub size: usize,
    /// LUT inputs per logic block (the paper's architecture: 4).
    pub k: usize,
    /// Input connection-block flexibility: fraction of the channel's tracks
    /// an input pin can connect to.
    pub fc_in: f64,
    /// Output connection-block flexibility.
    pub fc_out: f64,
    /// I/O pads per perimeter position.
    pub io_capacity: usize,
}

impl FabricArch {
    /// The paper's architecture: single 4-LUT logic blocks, Fc_in = 0.5,
    /// Fc_out = 0.25, two pads per I/O position.
    pub fn paper_4lut(size: usize) -> Self {
        assert!(size >= 2);
        Self {
            size,
            k: 4,
            fc_in: 0.5,
            fc_out: 0.25,
            io_capacity: 2,
        }
    }

    /// Smallest array that fits `blocks` logic blocks and `ios` pads.
    pub fn sized_for(blocks: usize, ios: usize) -> Self {
        // `paper_4lut` needs size ≥ 2, which only `blocks == 0` starts under.
        let mut size = ((blocks as f64).sqrt().ceil() as usize + 1).max(2);
        loop {
            let arch = Self::paper_4lut(size);
            if arch.logic_sites() >= blocks && arch.io_sites() >= ios {
                return arch;
            }
            size += 1;
        }
    }

    /// Number of logic-block sites.
    pub fn logic_sites(&self) -> usize {
        self.size * self.size
    }

    /// Number of I/O pad sites (perimeter positions × capacity).
    pub fn io_sites(&self) -> usize {
        4 * self.size * self.io_capacity
    }

    /// Tracks an input pin touches for channel width `w`.
    pub(crate) fn fc_in_tracks(&self, w: usize) -> usize {
        ((self.fc_in * w as f64).round() as usize).clamp(1, w)
    }

    /// Tracks an output pin touches for channel width `w`.
    pub(crate) fn fc_out_tracks(&self, w: usize) -> usize {
        ((self.fc_out * w as f64).round() as usize).clamp(1, w)
    }
}

/// A placement site: either a logic block at array coordinates or an I/O
/// pad at a perimeter position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Logic block at `(x, y)`, `0 <= x, y < size`.
    Logic {
        /// Column.
        x: usize,
        /// Row.
        y: usize,
    },
    /// I/O pad: perimeter side (0 = south, 1 = east, 2 = north, 3 = west),
    /// position along the side, and sub-slot within the position.
    Io {
        /// Perimeter side.
        side: u8,
        /// Position along the side (`< size`).
        pos: usize,
        /// Slot within the position (`< io_capacity`).
        slot: usize,
    },
}

impl Site {
    /// Approximate physical location of the site in tile units, used by the
    /// placer's wirelength estimate. Logic tiles occupy `(1..=size)` in
    /// both axes; pads sit on the surrounding ring.
    pub fn location(&self, size: usize) -> (f64, f64) {
        match *self {
            Site::Logic { x, y } => (x as f64 + 1.0, y as f64 + 1.0),
            Site::Io { side, pos, .. } => match side {
                0 => (pos as f64 + 1.0, 0.0),
                1 => (size as f64 + 1.0, pos as f64 + 1.0),
                2 => (pos as f64 + 1.0, size as f64 + 1.0),
                _ => (0.0, pos as f64 + 1.0),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_for_fits() {
        let a = FabricArch::sized_for(2894, 180);
        assert!(a.logic_sites() >= 2894);
        assert!(a.io_sites() >= 180);
    }

    #[test]
    fn fc_tracks_clamped() {
        let a = FabricArch::paper_4lut(8);
        assert_eq!(a.fc_in_tracks(10), 5);
        assert_eq!(a.fc_out_tracks(10), 3);
        assert_eq!(a.fc_in_tracks(1), 1);
    }

    #[test]
    fn site_locations_are_distinct_sides() {
        let s = 8;
        let south = Site::Io {
            side: 0,
            pos: 3,
            slot: 0,
        }
        .location(s);
        let north = Site::Io {
            side: 2,
            pos: 3,
            slot: 0,
        }
        .location(s);
        assert_eq!(south.0, north.0);
        assert!(south.1 < north.1);
        let logic = Site::Logic { x: 0, y: 0 }.location(s);
        assert_eq!(logic, (1.0, 1.0));
    }
}
