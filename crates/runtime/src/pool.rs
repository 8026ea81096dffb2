//! The grid pool: placement of concurrent tenants onto overlay instances.
//!
//! The pool owns a set of [`VcgraArch`] grids. A tenant asks for enough
//! PEs for its graph; the scheduler carves a **band** — a horizontal
//! stripe of consecutive rows spanning the grid's full width — out of a
//! grid with room, so several small applications share one grid.
//! [`GridPool::allocate`] is the one placement entry point and one
//! ordered policy; the first step that applies decides:
//!
//! 1. **dedicated band** — on the first grid (index order) with a free
//!    run of the needed rows that the caller *prefers* (the runtime
//!    prefers a grid whose region shape is already warm in the
//!    configuration cache), else on the first grid with a free run;
//! 2. **band compaction** — when the rows are free but fragmented, the
//!    first grid whose total free rows suffice has its bands slid down to
//!    row 0 (preserving their order), coalescing the free rows into one
//!    run. Every move is reported as a [`Relocation`] so the runtime can
//!    replay the displaced tenants' cached configurations onto the
//!    translated bands and charge the move as reconfiguration time;
//! 3. **time-multiplexing** — the new tenant shares the least-crowded
//!    already-allocated band that is big enough; a run serves the band's
//!    tenants one slot after another, and the runtime charges a
//!    full-region micro-reconfiguration whenever a slot swaps in a
//!    configuration other than the one the band holds (its `resident`);
//! 4. [`PoolError::Oversubscribed`] (the runtime queues the submission)
//!    or, for a demand no empty grid could hold, [`PoolError::TooBig`].
//!
//! Bands span full grid width because the VCGRA routing channels run
//! between adjacent PEs: a full-width stripe guarantees a tenant's routes
//! can never cross another tenant's region. That is also what makes
//! compaction safe: a band's placement is region-local, so relocating it
//! is a pure row translation (the same translation
//! `RouteGraph::translate_from` does across route-graph generations in
//! the par-engine) — the placement and routes survive verbatim, only the
//! physical row offset and the settings-frame addresses change.

use vcgra::VcgraArch;

/// Identifier the runtime hands out per admitted application.
pub type TenantId = u64;

/// Where a tenant's region lives. Who else is on the band is the pool's
/// fact, not the lease's: ask [`GridPool::band_tenants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Index of the grid in the pool.
    pub grid: usize,
    /// First physical row of the band.
    pub row0: usize,
    /// Rows in the band.
    pub rows: usize,
    /// Columns (the grid's full width).
    pub cols: usize,
}

impl Lease {
    /// PEs in the region.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }
}

/// One band moved by compaction. The runtime uses this to move the band's
/// history on the time axis and to charge the configuration replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relocation {
    /// Grid the band lives on.
    pub grid: usize,
    /// Row the band started at before the move.
    pub old_row0: usize,
    /// Row the band starts at now.
    pub new_row0: usize,
    /// Rows in the band.
    pub rows: usize,
    /// Tenants on the band, in admission order.
    pub tenants: Vec<TenantId>,
}

/// Read-only view of one allocated band (for invariant checks and
/// reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BandInfo {
    /// Grid the band lives on.
    pub grid: usize,
    /// First physical row.
    pub row0: usize,
    /// Rows in the band.
    pub rows: usize,
    /// Tenants on the band, in admission order.
    pub tenants: Vec<TenantId>,
    /// The tenant whose configuration the band holds: whoever was
    /// admitted or ran there last, while it is on the band.
    pub resident: Option<TenantId>,
}

#[derive(Debug)]
struct Band {
    row0: usize,
    rows: usize,
    tenants: Vec<TenantId>,
    resident: Option<TenantId>,
}

impl Band {
    /// The lease of a tenant on this band of grid `grid`, `cols` wide.
    fn lease(&self, grid: usize, cols: usize) -> Lease {
        Lease {
            grid,
            row0: self.row0,
            rows: self.rows,
            cols,
        }
    }
}

#[derive(Debug)]
struct Grid {
    arch: VcgraArch,
    bands: Vec<Band>,
}

impl Grid {
    /// First row index at which `rows` consecutive free rows start.
    fn find_free(&self, rows: usize) -> Option<usize> {
        let mut taken = vec![false; self.arch.rows];
        for b in &self.bands {
            taken[b.row0..b.row0 + b.rows].fill(true);
        }
        let mut run = 0;
        for (r, &t) in taken.iter().enumerate() {
            run = if t { 0 } else { run + 1 };
            if run == rows {
                return Some(r + 1 - rows);
            }
        }
        None
    }

    /// Rows not covered by any band.
    fn free_rows(&self) -> usize {
        self.arch.rows - self.bands.iter().map(|b| b.rows).sum::<usize>()
    }

    /// Slides every band down so they pack from row 0 in their current
    /// row order; all free rows coalesce at the top. A moved band keeps
    /// its tenants and its resident. Returns the bands that actually
    /// moved.
    fn compact(&mut self, grid_index: usize) -> Vec<Relocation> {
        self.bands.sort_by_key(|b| b.row0);
        let mut next = 0;
        let mut moved = Vec::new();
        for b in &mut self.bands {
            if b.row0 != next {
                moved.push(Relocation {
                    grid: grid_index,
                    old_row0: b.row0,
                    new_row0: next,
                    rows: b.rows,
                    tenants: b.tenants.clone(),
                });
                b.row0 = next;
            }
            next += b.rows;
        }
        moved
    }
}

/// Pool allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The graph does not fit any grid of the pool, even an empty one.
    TooBig {
        /// PEs the application needs.
        needed: usize,
        /// PEs of the largest grid in the pool.
        largest: usize,
    },
    /// The graph would fit an empty grid, but every band big enough is
    /// already carved up by smaller tenants — admission must wait for a
    /// release (the runtime queues the request).
    Oversubscribed {
        /// PEs the application needs.
        needed: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::TooBig { needed, largest } => {
                write!(
                    f,
                    "application needs {needed} PEs, largest grid has {largest}"
                )
            }
            PoolError::Oversubscribed { needed } => {
                write!(
                    f,
                    "no band of {needed} PEs free or shareable; release a tenant first"
                )
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// The scheduler's state: grids and their allocated bands.
pub struct GridPool {
    grids: Vec<Grid>,
}

impl GridPool {
    /// Creates a pool over the given grids. All grids must share a channel
    /// capacity (one overlay generation).
    pub fn new(grids: Vec<VcgraArch>) -> Self {
        assert!(!grids.is_empty(), "pool needs at least one grid");
        let cap = grids[0].channel_capacity;
        assert!(
            grids.iter().all(|g| g.channel_capacity == cap),
            "one channel capacity per pool"
        );
        GridPool {
            grids: grids
                .into_iter()
                .map(|arch| Grid {
                    arch,
                    bands: Vec::new(),
                })
                .collect(),
        }
    }

    /// Channel capacity of the pool's overlay generation.
    pub fn channel_capacity(&self) -> usize {
        self.grids[0].arch.channel_capacity
    }

    /// Grid shapes (for reporting).
    pub fn grid_archs(&self) -> Vec<VcgraArch> {
        self.grids.iter().map(|g| g.arch).collect()
    }

    /// Rows not covered by any band on one grid.
    pub fn free_rows(&self, grid: usize) -> usize {
        self.grids[grid].free_rows()
    }

    /// Every allocated band, grids in index order, bands in row order.
    pub fn bands(&self) -> Vec<BandInfo> {
        let mut out = Vec::new();
        for (gi, grid) in self.grids.iter().enumerate() {
            let mut rows: Vec<&Band> = grid.bands.iter().collect();
            rows.sort_by_key(|b| b.row0);
            out.extend(rows.into_iter().map(|b| BandInfo {
                grid: gi,
                row0: b.row0,
                rows: b.rows,
                tenants: b.tenants.clone(),
                resident: b.resident,
            }));
        }
        out
    }

    /// Rows a `demand`-PE application needs on a `cols`-wide grid
    /// (regions are at least 2×2 so they are valid [`VcgraArch`]s).
    /// Admission compiles against exactly this region, so band sizing and
    /// cache keys share one formula.
    pub fn rows_needed(demand: usize, cols: usize) -> usize {
        demand.div_ceil(cols).max(2)
    }

    /// Places a tenant needing `demand` PEs — the module doc's ordered
    /// policy. `prefer` is asked, in index order, about each grid that
    /// could host a dedicated band right now; the first it holds for gets
    /// the band, and if it holds for none the first grid asked does. The
    /// [`Relocation`]s are the bands step 2 moved (empty otherwise).
    pub fn allocate(
        &mut self,
        tenant: TenantId,
        demand: usize,
        prefer: impl Fn(usize) -> bool,
    ) -> Result<(Lease, Vec<Relocation>), PoolError> {
        assert!(demand > 0);
        // 1. Dedicated band: first fit, unless a later grid is preferred.
        let mut pick = None;
        for (gi, grid) in self.grids.iter().enumerate() {
            let rows = Self::rows_needed(demand, grid.arch.cols);
            if rows > grid.arch.rows {
                continue;
            }
            if let Some(row0) = grid.find_free(rows) {
                if prefer(gi) {
                    pick = Some((gi, row0, rows));
                    break;
                }
                pick = pick.or(Some((gi, row0, rows)));
            }
        }
        if let Some((gi, row0, rows)) = pick {
            return Ok((self.carve(gi, row0, rows, tenant), Vec::new()));
        }
        // 2. Compaction: the free rows exist, just not contiguously.
        for gi in 0..self.grids.len() {
            let grid = &mut self.grids[gi];
            let rows = Self::rows_needed(demand, grid.arch.cols);
            if rows > grid.arch.rows || grid.free_rows() < rows {
                continue;
            }
            let relocations = grid.compact(gi);
            let row0 = grid
                .find_free(rows)
                .expect("compaction coalesces all free rows");
            return Ok((self.carve(gi, row0, rows, tenant), relocations));
        }
        // 3. Time-multiplex: least-crowded band with enough PEs.
        let mut best: Option<(usize, usize)> = None; // (grid, band index)
        for (gi, grid) in self.grids.iter().enumerate() {
            let rows = Self::rows_needed(demand, grid.arch.cols);
            for (bi, band) in grid.bands.iter().enumerate() {
                if band.rows < rows {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bg, bb)) => {
                        let cur = &self.grids[bg].bands[bb];
                        (band.tenants.len(), band.rows) < (cur.tenants.len(), cur.rows)
                    }
                };
                if better {
                    best = Some((gi, bi));
                }
            }
        }
        if let Some((gi, bi)) = best {
            let cols = self.grids[gi].arch.cols;
            let band = &mut self.grids[gi].bands[bi];
            band.tenants.push(tenant);
            return Ok((band.lease(gi, cols), Vec::new()));
        }
        // 4. Nothing free, nothing shareable: distinguish "never fits"
        // from "fits an empty grid, come back after a release".
        self.fits_any_grid(demand)?;
        Err(PoolError::Oversubscribed { needed: demand })
    }

    /// Books a new dedicated band for `tenant`.
    fn carve(&mut self, grid: usize, row0: usize, rows: usize, tenant: TenantId) -> Lease {
        let band = Band {
            row0,
            rows,
            tenants: vec![tenant],
            resident: None,
        };
        let g = &mut self.grids[grid];
        let lease = band.lease(grid, g.arch.cols);
        g.bands.push(band);
        lease
    }

    /// `Ok` when `demand` would fit some *empty* grid of the pool —
    /// i.e. admission is a matter of waiting, not impossibility.
    /// [`PoolError::TooBig`] otherwise. Touches no state; the runtime
    /// uses it to reject impossible submissions synchronously instead of
    /// parking them in the queue.
    pub(crate) fn fits_any_grid(&self, demand: usize) -> Result<(), PoolError> {
        let fits = self
            .grids
            .iter()
            .any(|g| Self::rows_needed(demand, g.arch.cols) <= g.arch.rows);
        if fits {
            Ok(())
        } else {
            let largest = self
                .grids
                .iter()
                .map(|g| g.arch.pe_count())
                .max()
                .unwrap_or(0);
            Err(PoolError::TooBig {
                needed: demand,
                largest,
            })
        }
    }

    /// Releases a tenant's slot; empty bands are freed. A band the tenant
    /// was resident on holds no one's configuration afterwards. Returns
    /// true if the tenant held a lease.
    pub fn release(&mut self, tenant: TenantId) -> bool {
        for grid in &mut self.grids {
            for band in &mut grid.bands {
                if let Some(pos) = band.tenants.iter().position(|&t| t == tenant) {
                    band.tenants.remove(pos);
                    if band.resident == Some(tenant) {
                        band.resident = None;
                    }
                    grid.bands.retain(|b| !b.tenants.is_empty());
                    return true;
                }
            }
        }
        false
    }

    /// Where `tenant` is placed now: the band that lists it. Compaction
    /// moves the band, so this is read after every admission, never kept.
    pub fn lease(&self, tenant: TenantId) -> Option<Lease> {
        self.grids.iter().enumerate().find_map(|(grid, g)| {
            let band = g.bands.iter().find(|b| b.tenants.contains(&tenant))?;
            Some(band.lease(grid, g.arch.cols))
        })
    }

    /// Tenants sharing the band at (`grid`, `row0`), in admission order.
    pub fn band_tenants(&self, grid: usize, row0: usize) -> Vec<TenantId> {
        self.band(grid, row0)
            .map(|b| b.tenants.clone())
            .unwrap_or_default()
    }

    /// The tenant whose configuration the band at (`grid`, `row0`) holds.
    pub(crate) fn resident(&self, grid: usize, row0: usize) -> Option<TenantId> {
        self.band(grid, row0).and_then(|b| b.resident)
    }

    /// Records that the band at (`grid`, `row0`) now holds `tenant`'s
    /// configuration.
    pub(crate) fn set_resident(&mut self, grid: usize, row0: usize, tenant: TenantId) {
        if let Some(band) = self.grids[grid].bands.iter_mut().find(|b| b.row0 == row0) {
            band.resident = Some(tenant);
        }
    }

    fn band(&self, grid: usize, row0: usize) -> Option<&Band> {
        self.grids[grid].bands.iter().find(|b| b.row0 == row0)
    }

    /// Fraction of pool rows currently leased. A time-multiplexed band
    /// counts its rows **once** no matter how many tenants share it — the
    /// rows are a spatial resource; oversubscription shows up in the
    /// context-switch ledger, not here (so utilization never exceeds 1).
    pub fn utilization(&self) -> f64 {
        let total: usize = self.grids.iter().map(|g| g.arch.rows).sum();
        let used: usize = self
            .grids
            .iter()
            .flat_map(|g| g.bands.iter().map(|b| b.rows))
            .sum();
        used as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    fn pool() -> GridPool {
        GridPool::new(vec![VcgraArch::new(6, 4, 2), VcgraArch::new(4, 4, 2)])
    }

    /// Allocates with no grid preferred and no relocation expected.
    fn place(p: &mut GridPool, tenant: TenantId, demand: usize) -> Result<Lease, PoolError> {
        p.allocate(tenant, demand, |_| false)
            .map(|(lease, relocations)| {
                assert!(
                    relocations.is_empty(),
                    "tenant {tenant} was not expected to compact"
                );
                lease
            })
    }

    /// Whether the lease's band holds more than one tenant.
    fn shared(p: &GridPool, l: Lease) -> bool {
        p.band_tenants(l.grid, l.row0).len() > 1
    }

    #[test]
    fn small_tenants_pack_one_grid() {
        let mut p = pool();
        let a = place(&mut p, 1, 7).unwrap(); // 2 rows of 4
        let b = place(&mut p, 2, 8).unwrap(); // 2 rows of 4
        assert_eq!((a.grid, a.row0, a.rows), (0, 0, 2));
        assert_eq!((b.grid, b.row0, b.rows), (0, 2, 2));
        assert!(!shared(&p, a) && !shared(&p, b));
        assert!(p.utilization() > 0.0);
    }

    #[test]
    fn overflow_spills_to_second_grid_then_time_multiplexes() {
        let mut p = pool();
        for t in 0..5 {
            let l = place(&mut p, t, 8).unwrap();
            assert!(!shared(&p, l), "tenant {t} should get a dedicated band");
        }
        // All 10 rows are taken (3 bands on grid 0, 2 on grid 1): the sixth
        // tenant shares.
        let l = place(&mut p, 5, 8).unwrap();
        assert!(shared(&p, l));
        let mates = p.band_tenants(l.grid, l.row0);
        assert_eq!(mates.len(), 2);
        assert!(mates.contains(&5));
    }

    #[test]
    fn release_frees_bands_for_reuse() {
        let mut p = pool();
        let a = place(&mut p, 1, 24).unwrap(); // whole grid 0
        assert_eq!(a.rows, 6);
        // Grid 0 is full and grid 1 is too small, so a second 24-PE tenant
        // can only time-share tenant 1's band.
        let b = place(&mut p, 2, 24).unwrap();
        assert!(shared(&p, b));
        assert!(p.release(2));
        assert!(p.release(1));
        let b = place(&mut p, 3, 24).unwrap();
        assert_eq!((b.grid, b.row0, b.rows, shared(&p, b)), (0, 0, 6, false));
        assert!(!p.release(99), "unknown tenant");
    }

    #[test]
    fn too_big_is_rejected() {
        let mut p = pool();
        let err = place(&mut p, 1, 25).unwrap_err();
        assert_eq!(
            err,
            PoolError::TooBig {
                needed: 25,
                largest: 24
            }
        );
    }

    #[test]
    fn fragmented_pool_reports_oversubscription_not_too_big() {
        let mut p = pool();
        // Fill both grids with 2-row bands; a 5-row tenant would fit an
        // empty grid 0 (6 rows) but no band is big enough to share.
        for t in 0..5 {
            place(&mut p, t, 8).unwrap();
        }
        let err = place(&mut p, 9, 18).unwrap_err();
        assert_eq!(err, PoolError::Oversubscribed { needed: 18 });
        // After releasing grid 0's bands the same tenant gets a lease.
        for t in 0..3 {
            p.release(t);
        }
        let l = place(&mut p, 9, 18).unwrap();
        assert!(!shared(&p, l));
    }

    #[test]
    fn region_arch_is_band_shaped() {
        let mut p = pool();
        let l = place(&mut p, 1, 10).unwrap(); // 3 rows of 4
        assert_eq!((l.rows, l.cols), (3, 4));
        assert_eq!(l.pe_count(), 12);
    }

    #[test]
    fn compaction_admits_a_13_row_tenant_first_fit_refuses() {
        // One 16-row grid. Occupy rows 0-5 and 6-8, release the first
        // band: 13 rows are free (0-5 and 9-15) but the longest run is 7.
        let mut p = GridPool::new(vec![VcgraArch::new(16, 4, 2)]);
        place(&mut p, 1, 24).unwrap(); // rows 0-5
        let mid = place(&mut p, 2, 12).unwrap(); // rows 6-8
        assert_eq!((mid.row0, mid.rows), (6, 3));
        assert!(p.release(1));
        assert_eq!(p.free_rows(0), 13);

        // 52 PEs → 13 rows of 4: the one band sits in the middle, so first
        // fit has runs of 6 and 7 to offer (and 3 rows are too few to share).
        assert_eq!(GridPool::rows_needed(52, 4), 13);
        assert_eq!(
            p.bands()
                .iter()
                .map(|b| (b.row0, b.rows))
                .collect::<Vec<_>>(),
            [(6, 3)]
        );

        // The 3-row band slides to row 0 and the 13-row tenant admits at
        // row 3.
        let (lease, relocs) = p.allocate(9, 52, |_| false).unwrap();
        assert_eq!((lease.row0, lease.rows, shared(&p, lease)), (3, 13, false));
        assert_eq!(relocs.len(), 1);
        assert_eq!(
            relocs[0],
            Relocation {
                grid: 0,
                old_row0: 6,
                new_row0: 0,
                rows: 3,
                tenants: vec![2]
            }
        );
        // The moved band kept its tenants and its shape.
        assert_eq!(p.band_tenants(0, 0), vec![2]);
        assert_eq!(p.free_rows(0), 0);
    }

    #[test]
    fn compaction_preserves_band_order_and_reports_every_move() {
        let mut p = GridPool::new(vec![VcgraArch::new(10, 4, 2)]);
        for t in 0..5 {
            place(&mut p, t, 8).unwrap(); // five 2-row bands, rows 0..10
        }
        p.release(0); // rows 0-1 free
        p.release(2); // rows 4-5 free
                      // 4 free rows in two runs of 2: a 3-row tenant needs compaction.
        assert_eq!(
            p.bands().iter().map(|b| b.row0).collect::<Vec<_>>(),
            [2, 6, 8]
        );
        assert_eq!(p.free_rows(0), 4);
        let (lease, relocs) = p.allocate(7, 12, |_| false).unwrap();
        assert_eq!((lease.row0, lease.rows), (6, 3));
        // Bands 1, 3, 4 all moved down, order preserved.
        assert_eq!(
            relocs,
            vec![
                Relocation {
                    grid: 0,
                    old_row0: 2,
                    new_row0: 0,
                    rows: 2,
                    tenants: vec![1]
                },
                Relocation {
                    grid: 0,
                    old_row0: 6,
                    new_row0: 2,
                    rows: 2,
                    tenants: vec![3]
                },
                Relocation {
                    grid: 0,
                    old_row0: 8,
                    new_row0: 4,
                    rows: 2,
                    tenants: vec![4]
                },
            ]
        );
        let bands = p.bands();
        assert_eq!(bands.len(), 4);
        assert_eq!(bands[0].tenants, vec![1]);
        assert_eq!(bands[1].tenants, vec![3]);
        assert_eq!(bands[2].tenants, vec![4]);
        assert_eq!(bands[3].tenants, vec![7]);
    }

    /// The grids `prefer` is asked about are exactly the ones with a free
    /// run of the needed rows, in index order, and the first it holds for
    /// gets the band.
    #[test]
    fn dedicated_candidates_lists_every_feasible_grid() {
        let asked = RefCell::new(Vec::new());
        let ask = |p: &mut GridPool, tenant, demand, want: Option<usize>| {
            asked.borrow_mut().clear();
            let placed = p.allocate(tenant, demand, |g| {
                asked.borrow_mut().push(g);
                Some(g) == want
            });
            (placed.map(|(lease, _)| lease), asked.borrow().clone())
        };
        let mut p = pool();
        // Nobody preferred: both grids are asked, the first fit wins.
        let (l, grids) = ask(&mut p, 1, 8, None);
        assert_eq!((l.unwrap().grid, grids), (0, vec![0, 1]));
        // The pick is honored, on the rows first fit finds there.
        let (l, grids) = ask(&mut p, 2, 8, Some(1));
        let l = l.unwrap();
        assert_eq!(((l.grid, l.row0, l.rows), grids), ((1, 0, 2), vec![0, 1]));
        // A 5-row demand only ever fits grid 0, and only when it is empty:
        // with no candidate nobody is asked, and nothing is shareable.
        let (l, grids) = ask(&mut p, 3, 20, Some(1));
        assert_eq!(
            (l.unwrap_err(), grids),
            (PoolError::Oversubscribed { needed: 20 }, vec![])
        );
        p.release(1);
        let (l, grids) = ask(&mut p, 3, 20, Some(1));
        assert_eq!((l.unwrap().grid, grids), (0, vec![0]));
        // Grid 0 has one row left: grid 1 is the only candidate.
        let (l, grids) = ask(&mut p, 4, 8, Some(0));
        assert_eq!((l.unwrap().grid, grids), (1, vec![1]));
    }

    #[test]
    fn utilization_counts_time_shared_bands_once() {
        let mut p = pool();
        // Fill every row of both grids with dedicated bands.
        for t in 0..5 {
            let l = place(&mut p, t, 8).unwrap();
            assert!(!shared(&p, l));
        }
        assert_eq!(p.utilization(), 1.0);
        // Oversubscribe: three more tenants time-share existing bands.
        // The rows are a spatial resource — utilization must stay exactly
        // 1.0, not double-count the shared bands.
        for t in 5..8 {
            let l = place(&mut p, t, 8).unwrap();
            assert!(shared(&p, l));
        }
        assert_eq!(p.utilization(), 1.0, "shared bands must count once");
        // Releasing one sharer of a 2-tenant band frees no rows...
        let shared = p.bands().into_iter().find(|b| b.tenants.len() > 1).unwrap();
        assert!(p.release(*shared.tenants.last().unwrap()));
        assert_eq!(p.utilization(), 1.0);
        // ...releasing the last tenant of a band does.
        let solo = p
            .bands()
            .into_iter()
            .find(|b| b.tenants.len() == 1)
            .unwrap();
        assert!(p.release(solo.tenants[0]));
        assert!(p.utilization() < 1.0);
    }

    /// Bands lie inside their grid, hold at least two rows and a tenant,
    /// and never share a row; leased plus free rows is every grid's rows;
    /// every live tenant sits on exactly one band, and nobody else does.
    fn check_invariants(p: &GridPool, live: &BTreeSet<TenantId>) {
        let mut seen = BTreeSet::new();
        for (gi, grid) in p.grids.iter().enumerate() {
            let mut taken = vec![false; grid.arch.rows];
            for b in &grid.bands {
                assert!(b.rows >= 2, "bands are valid regions");
                assert!(b.row0 + b.rows <= grid.arch.rows, "band inside its grid");
                assert!(!b.tenants.is_empty(), "empty bands must be reclaimed");
                for (r, slot) in taken.iter_mut().enumerate().skip(b.row0).take(b.rows) {
                    assert!(!*slot, "bands must never overlap (grid {gi} row {r})");
                    *slot = true;
                }
                for &t in &b.tenants {
                    assert!(seen.insert(t), "tenant {t} leased twice");
                }
            }
            let free = taken.iter().filter(|&&t| !t).count();
            assert_eq!(free, grid.free_rows(), "row conservation on grid {gi}");
        }
        assert_eq!(
            &seen, live,
            "every live tenant on one band, no released one"
        );
    }

    /// Longest run of consecutive free rows on one grid, read off `bands()`.
    fn longest_free_run(p: &GridPool, gi: usize) -> usize {
        let mut longest = 0;
        let mut next = 0;
        for b in p.bands().iter().filter(|b| b.grid == gi) {
            longest = longest.max(b.row0 - next);
            next = b.row0 + b.rows;
        }
        longest.max(p.grids[gi].arch.rows - next)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn compaction_never_changes_total_free_rows(
            ops in prop::collection::vec((any::<u8>(), 1usize..25), 1..40),
        ) {
            // A mixed-width pool: `rows_needed` differs per grid.
            let mut p = GridPool::new(vec![
                VcgraArch::new(6, 4, 2),
                VcgraArch::new(4, 5, 2),
                VcgraArch::new(5, 4, 2),
            ]);
            let mut live: BTreeSet<TenantId> = BTreeSet::new();
            let mut next: TenantId = 0;
            for (kind, demand) in ops {
                if kind % 3 == 0 {
                    if let Some(&t) = live.iter().nth(demand % live.len().max(1)) {
                        p.release(t);
                        live.remove(&t);
                    }
                } else if p.allocate(next, demand, |_| false).is_ok() {
                    live.insert(next);
                    next += 1;
                } else {
                    next += 1;
                }
            }
            // Compacting every grid moves bands but conserves each grid's
            // free-row count and each band's shape and tenant list.
            let grids = p.grids.len();
            let before: Vec<_> = (0..grids).map(|g| p.free_rows(g)).collect();
            let mut shapes_before: Vec<_> =
                p.bands().into_iter().map(|b| (b.rows, b.tenants)).collect();
            for (g, grid) in p.grids.iter_mut().enumerate() {
                grid.compact(g);
            }
            let after: Vec<_> = (0..grids).map(|g| p.free_rows(g)).collect();
            let mut shapes_after: Vec<_> =
                p.bands().into_iter().map(|b| (b.rows, b.tenants)).collect();
            prop_assert_eq!(before, after, "compaction must not create or destroy rows");
            shapes_before.sort();
            shapes_after.sort();
            prop_assert_eq!(shapes_before, shapes_after, "band shapes and tenants survive");
            check_invariants(&p, &live);
            // After a full compaction every grid's free space is one run: a
            // demand for all of it is admitted there without further moves.
            for (gi, arch) in p.grid_archs().iter().enumerate() {
                let free = p.free_rows(gi);
                prop_assert_eq!(longest_free_run(&p, gi), free, "grid {} is not coalesced", gi);
                if free >= 2 {
                    let (lease, relocs) = p.allocate(next, free * arch.cols, |g| g == gi).unwrap();
                    next += 1;
                    prop_assert_eq!((lease.grid, lease.rows), (gi, free));
                    prop_assert_eq!(p.band_tenants(gi, lease.row0), vec![next - 1], "its own band");
                    prop_assert!(relocs.is_empty(), "grid {gi} must offer its {free} coalesced free rows");
                }
            }
        }
    }
}
