//! Property-based scheduler invariant suite.
//!
//! Random allocate / release sequences against a model of the pool. After **every** operation the scheduler must uphold:
//!
//! * **no overlap** — no two bands share a row, and every band lies
//!   inside its grid;
//! * **no leaks** — every live tenant sits on exactly one band, released
//!   tenants are gone, and empty bands are reclaimed;
//! * **conservation** — leased rows + free rows == grid rows, always;
//! * **the policy's order** — a grid with a free run gets the band (the
//!   preferred one if it has a run, else the first) and nothing moves;
//!   failing that, a request whose row demand fits the *total* free rows
//!   of some grid is admitted dedicated by compaction — fragmentation
//!   alone can never refuse work or time-share it; failing that it
//!   shares, and it is refused only when no band is tall enough;
//! * **honest relocation reports** — every `Relocation` the scheduler
//!   returns matches the band state after the move.
//!
//! The proptest stand-in draws inputs from a per-test deterministic
//! stream, so failures reproduce bit-for-bit.

use std::collections::BTreeSet;

use proptest::prelude::*;
use runtime::pool::{GridPool, PoolError};
use runtime::TenantId;
use vcgra::VcgraArch;

/// A mixed-width pool: the widths differ so `rows_needed` differs per
/// grid, which is what makes candidate selection and compaction
/// interesting.
fn pool() -> GridPool {
    GridPool::new(vec![
        VcgraArch::new(6, 4, 2),
        VcgraArch::new(4, 5, 2),
        VcgraArch::new(5, 4, 2),
    ])
}

/// Full invariant sweep: overlap, leaks, conservation.
fn check_invariants(p: &GridPool, live: &BTreeSet<TenantId>) {
    let archs = p.grid_archs();
    let bands = p.bands();
    for (gi, arch) in archs.iter().enumerate() {
        let mut taken = vec![false; arch.rows];
        let mut used = 0;
        for b in bands.iter().filter(|b| b.grid == gi) {
            assert!(b.rows >= 2, "bands are valid regions");
            assert!(b.row0 + b.rows <= arch.rows, "band inside its grid");
            for (r, slot) in taken
                .iter_mut()
                .enumerate()
                .take(b.row0 + b.rows)
                .skip(b.row0)
            {
                assert!(!*slot, "bands must never overlap (grid {gi} row {r})");
                *slot = true;
            }
            used += b.rows;
            assert!(!b.tenants.is_empty(), "empty bands must be reclaimed");
        }
        assert_eq!(
            used + p.free_rows(gi),
            arch.rows,
            "row conservation on grid {gi}"
        );
    }
    // Every live tenant exactly once, no ghost of a released tenant.
    let mut seen = BTreeSet::new();
    for b in &bands {
        for &t in &b.tenants {
            assert!(seen.insert(t), "tenant {t} leased twice");
            assert!(live.contains(&t), "released tenant {t} still holds rows");
        }
    }
    for &t in live {
        assert!(seen.contains(&t), "live tenant {t} lost its lease");
    }
}

/// Rows `demand` needs on grid `gi`, if the grid is tall enough at all.
fn rows_on(p: &GridPool, gi: usize, demand: usize) -> Option<usize> {
    let arch = p.grid_archs()[gi];
    Some(GridPool::rows_needed(demand, arch.cols)).filter(|&rows| rows <= arch.rows)
}

/// Longest run of consecutive free rows on one grid, read off `bands()`.
fn longest_free_run(p: &GridPool, gi: usize) -> usize {
    let mut longest = 0;
    let mut next = 0;
    for b in p.bands().iter().filter(|b| b.grid == gi) {
        longest = longest.max(b.row0 - next);
        next = b.row0 + b.rows;
    }
    longest.max(p.grid_archs()[gi].rows - next)
}

/// Grids, in index order, with a free run long enough for a dedicated
/// band right now.
fn grids_with_a_run(p: &GridPool, demand: usize) -> Vec<usize> {
    (0..p.grid_archs().len())
        .filter(|&gi| rows_on(p, gi, demand).is_some_and(|rows| rows <= longest_free_run(p, gi)))
        .collect()
}

/// True when some grid could host a dedicated band for `demand` once its
/// free rows are coalesced.
fn fits_after_compaction(p: &GridPool, demand: usize) -> bool {
    (0..p.grid_archs().len())
        .any(|gi| rows_on(p, gi, demand).is_some_and(|rows| rows <= p.free_rows(gi)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_allocate_release_compact_sequences_uphold_invariants(
        ops in prop::collection::vec((any::<u8>(), 1usize..30), 1..60),
    ) {
        let mut p = pool();
        let mut live: BTreeSet<TenantId> = BTreeSet::new();
        let mut next: TenantId = 0;
        for (kind, demand) in ops {
            match kind % 4 {
                // Allocate, preferring one grid: the lease must be what the
                // policy's order says for the state it found.
                0..=2 => {
                    let id = next;
                    next += 1;
                    let preferred = usize::from(kind / 4) % 3;
                    let with_a_run = grids_with_a_run(&p, demand);
                    let guaranteed = fits_after_compaction(&p, demand);
                    let shareable = p
                        .bands()
                        .iter()
                        .any(|b| rows_on(&p, b.grid, demand).is_some_and(|rows| rows <= b.rows));
                    match p.allocate(id, demand, |g| g == preferred) {
                        Ok((lease, relocs)) => {
                            live.insert(id);
                            if let Some(&first) = with_a_run.first() {
                                let want = if with_a_run.contains(&preferred) { preferred } else { first };
                                prop_assert_eq!(lease.grid, want, "a free run: preferred grid, else first");
                                prop_assert!(relocs.is_empty(), "a free run needs no compaction");
                            } else {
                                prop_assert_eq!(!relocs.is_empty(), guaranteed, "compacts iff it helps");
                            }
                            prop_assert_eq!(
                                p.band_tenants(lease.grid, lease.row0).len() > 1,
                                !guaranteed,
                                "free rows sufficed: must be dedicated, not shared"
                            );
                            prop_assert!(guaranteed || shareable);
                            for r in &relocs {
                                prop_assert_eq!(
                                    p.band_tenants(r.grid, r.new_row0),
                                    r.tenants.clone(),
                                    "relocation report must match the moved band"
                                );
                                prop_assert!(r.new_row0 < r.old_row0, "compaction slides down");
                            }
                        }
                        Err(e) => {
                            prop_assert!(
                                !guaranteed,
                                "fragmentation-only refusal despite compaction: {e} \
                                 (demand {demand})"
                            );
                            prop_assert!(!shareable, "refused beside a band it could share: {e}");
                            let never = (0..3).all(|gi| rows_on(&p, gi, demand).is_none());
                            prop_assert_eq!(matches!(e, PoolError::TooBig { .. }), never);
                        }
                    }
                }
                // Release a pseudo-random live tenant.
                _ => {
                    if let Some(&t) = live.iter().nth(demand % live.len().max(1)) {
                        prop_assert!(p.release(t), "live tenant must release");
                        live.remove(&t);
                        prop_assert!(!p.release(t), "double release must be a no-op");
                    }
                }
            }
            check_invariants(&p, &live);
        }
    }
}
