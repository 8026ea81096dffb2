//! Configuration-frame addressing.
//!
//! FPGAs are configured in *frames* — the smallest unit the configuration
//! port can read or write. Micro-reconfiguration (the paper's Section II-C)
//! is a read-modify-write of every frame that holds at least one changed
//! bit, so the DCS cost model needs to know which frame each configurable
//! element lives in. We use a column-major model in the spirit of Xilinx
//! devices: each logic column contributes a fixed number of frames for LUT
//! truth tables and a fixed number for routing switches, and each frame
//! covers a vertical stripe of tiles.

use crate::arch::Site;

/// Frame geometry of a fabric.
#[derive(Debug, Clone, Copy)]
pub struct FrameModel {
    /// Array size this model addresses.
    pub size: usize,
    /// Tiles covered by one frame vertically.
    pub tiles_per_frame: usize,
}

impl FrameModel {
    /// Frame model for the settings plane of a `rows × cols` overlay grid:
    /// the square fabric region hosting it. Each grid cell's settings
    /// register lives in the frame returned by [`Self::lut_frame`] for
    /// `Site::Logic { x: col, y: row }` — cells in the same column stripe
    /// share a frame, so a parameter change touching several vertically
    /// adjacent PEs is one frame read-modify-write, not many.
    pub fn for_grid(rows: usize, cols: usize) -> Self {
        Self {
            size: rows.max(cols).max(2),
            tiles_per_frame: 4,
        }
    }

    fn stripes(&self) -> usize {
        self.size.div_ceil(self.tiles_per_frame)
    }

    /// Frame holding the LUT truth-table bits of a logic site.
    pub fn lut_frame(&self, site: Site) -> u32 {
        match site {
            Site::Logic { x, y } => (x * self.stripes() + y / self.tiles_per_frame) as u32,
            Site::Io { .. } => self.io_frame_base(),
        }
    }

    /// Frame holding the routing-switch bits near tile `(x, y)`.
    /// Routing frames live in a separate address range after LUT frames.
    // Test-only: the frame-range proof the overlay linter relies on.
    #[cfg(test)]
    fn routing_frame(&self, x: usize, y: usize) -> u32 {
        let base = (self.size * self.stripes()) as u32;
        base + (x.min(self.size - 1) * self.stripes()
            + (y.min(self.size - 1)) / self.tiles_per_frame) as u32
    }

    fn io_frame_base(&self) -> u32 {
        2 * (self.size * self.stripes()) as u32
    }

    /// Total addressable frames.
    // Test-only: the frame-range proof the overlay linter relies on.
    #[cfg(test)]
    fn frame_count(&self) -> u32 {
        self.io_frame_base() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_column_major_stripes() {
        let m = FrameModel {
            size: 8,
            tiles_per_frame: 4,
        };
        let f00 = m.lut_frame(Site::Logic { x: 0, y: 0 });
        let f03 = m.lut_frame(Site::Logic { x: 0, y: 3 });
        let f04 = m.lut_frame(Site::Logic { x: 0, y: 4 });
        let f10 = m.lut_frame(Site::Logic { x: 1, y: 0 });
        assert_eq!(f00, f03, "same stripe, same frame");
        assert_ne!(f00, f04, "next stripe, next frame");
        assert_ne!(f00, f10, "other column, other frame");
    }

    #[test]
    fn grid_settings_frames_stripe_by_column() {
        let m = FrameModel::for_grid(4, 4);
        let f = |r: usize, c: usize| m.lut_frame(Site::Logic { x: c, y: r });
        assert_eq!(f(0, 0), f(3, 0), "a 4-row column stripe is one frame");
        assert_ne!(f(0, 0), f(0, 1), "columns get distinct frames");
        // Degenerate grids still address ≥ 1 stripe.
        assert!(FrameModel::for_grid(2, 2).frame_count() > 0);
    }

    #[test]
    fn routing_frames_do_not_collide_with_lut_frames() {
        let m = FrameModel {
            size: 8,
            tiles_per_frame: 4,
        };
        let lut_max = m.lut_frame(Site::Logic { x: 7, y: 7 });
        let route_min = m.routing_frame(0, 0);
        assert!(route_min > lut_max);
        assert!(m.frame_count() > m.routing_frame(7, 7));
    }

    /// Why the overlay linter has no frame-range check: on every grid
    /// shape, every in-bounds cell's settings frame lies inside the frame
    /// space, and its routing frame lies above the whole settings plane
    /// and inside the frame space.
    #[test]
    fn every_in_bounds_grid_cell_addresses_a_frame_in_its_plane() {
        for rows in 2..=32 {
            for cols in 2..=32 {
                let m = FrameModel::for_grid(rows, cols);
                let frames = m.frame_count();
                let settings_plane = m.lut_frame(Site::Logic {
                    x: cols - 1,
                    y: rows - 1,
                });
                for y in 0..rows {
                    for x in 0..cols {
                        let lut = m.lut_frame(Site::Logic { x, y });
                        let routing = m.routing_frame(x, y);
                        assert!(
                            lut <= settings_plane && settings_plane < routing && routing < frames,
                            "{rows}×{cols} grid, cell ({y}, {x})"
                        );
                    }
                }
            }
        }
    }
}
