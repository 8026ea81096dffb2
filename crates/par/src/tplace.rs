//! TPLACE: simulated-annealing placement.
//!
//! Classic VPR-style annealer: half-perimeter wirelength cost with a
//! fanout correction factor, adaptive temperature schedule, and a range
//! limit that shrinks as the anneal cools. Logic blocks move over logic
//! sites, pads over I/O sites. [`place_multi_seed_on`] runs independent
//! anneals on scoped threads (one per seed) and keeps the best — the
//! embarrassingly parallel pattern the hpc-parallel guides recommend.

use crate::netlist::{BlockKind, ParNetlist};
use fabric::arch::{FabricArch, Site};
use logic::SplitMix64;

/// A placement: one site per block.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Site of every block (indexed like `ParNetlist::blocks`).
    pub site_of: Vec<Site>,
    /// Final HPWL cost.
    pub cost: f64,
}

/// VPR's fanout correction for HPWL (q factor), tabulated for small nets.
fn q_factor(pins: usize) -> f64 {
    const Q: [f64; 11] = [
        1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991, 1.4493,
    ];
    if pins < Q.len() {
        Q[pins]
    } else {
        1.4493 + 0.02616 * (pins - 10) as f64
    }
}

struct PlacerState<'a> {
    netlist: &'a ParNetlist,
    arch: FabricArch,
    site_of: Vec<Site>,
    occupant: logic::fxhash::FxHashMap<Site, u32>,
    // nets touching each block
    nets_of_block: Vec<Vec<u32>>,
    net_cost: Vec<f64>,
    cost: f64,
}

impl<'a> PlacerState<'a> {
    fn net_hpwl(&self, net: u32) -> f64 {
        let n = &self.netlist.nets[net as usize];
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        let mut pins = 0usize;
        let mut upd = |b: u32, state: &Self| {
            let (x, y) = state.site_of[b as usize].location(state.arch.size);
            if x < min_x {
                min_x = x;
            }
            if x > max_x {
                max_x = x;
            }
            if y < min_y {
                min_y = y;
            }
            if y > max_y {
                max_y = y;
            }
        };
        for &s in &n.sources {
            upd(s, self);
            pins += 1;
        }
        for &(b, _) in &n.sinks {
            upd(b, self);
            pins += 1;
        }
        q_factor(pins) * ((max_x - min_x) + (max_y - min_y))
    }

    fn recompute_all(&mut self) {
        self.cost = 0.0;
        for i in 0..self.netlist.nets.len() {
            let c = self.net_hpwl(i as u32);
            self.net_cost[i] = c;
            self.cost += c;
        }
    }
}

/// Runs the anneal with one seed.
pub fn place(netlist: &ParNetlist, arch: FabricArch, seed: u64) -> Placement {
    let mut rng = SplitMix64::new(seed);
    let s = arch.size;

    // Initial assignment: logic blocks into logic sites (row-major), pads
    // round-robin over the perimeter.
    let mut logic_sites: Vec<Site> = (0..s * s)
        .map(|i| Site::Logic { x: i % s, y: i / s })
        .collect();
    let mut io_sites: Vec<Site> = Vec::new();
    for side in 0..4u8 {
        for pos in 0..s {
            for slot in 0..arch.io_capacity {
                io_sites.push(Site::Io { side, pos, slot });
            }
        }
    }
    rng.shuffle(&mut logic_sites);
    rng.shuffle(&mut io_sites);
    let mut li = 0;
    let mut ii = 0;
    let mut site_of = Vec::with_capacity(netlist.blocks.len());
    for b in &netlist.blocks {
        let site = match b.kind {
            BlockKind::Logic => {
                li += 1;
                *logic_sites
                    .get(li - 1)
                    .unwrap_or_else(|| panic!("fabric too small: {} logic sites", s * s))
            }
            _ => {
                ii += 1;
                *io_sites
                    .get(ii - 1)
                    .unwrap_or_else(|| panic!("fabric too small for {ii} pads"))
            }
        };
        site_of.push(site);
    }

    let mut nets_of_block: Vec<Vec<u32>> = vec![Vec::new(); netlist.blocks.len()];
    for (i, n) in netlist.nets.iter().enumerate() {
        for &src in &n.sources {
            nets_of_block[src as usize].push(i as u32);
        }
        for &(b, _) in &n.sinks {
            nets_of_block[b as usize].push(i as u32);
        }
    }
    for v in &mut nets_of_block {
        v.sort_unstable();
        v.dedup();
    }

    let mut occupant = logic::fxhash::FxHashMap::default();
    for (b, &site) in site_of.iter().enumerate() {
        occupant.insert(site, b as u32);
    }

    let mut st = PlacerState {
        netlist,
        arch,
        site_of,
        occupant,
        nets_of_block,
        net_cost: vec![0.0; netlist.nets.len()],
        cost: 0.0,
    };
    st.recompute_all();

    let n_blocks = netlist.blocks.len();
    let moves_per_temp = ((n_blocks as f64).powf(4.0 / 3.0) as usize).max(64);
    let mut temp = 0.1 * st.cost / netlist.nets.len().max(1) as f64 * 20.0;
    let mut range = s as f64;

    // Candidate site pools for random proposals.
    let all_logic: Vec<Site> = (0..s * s)
        .map(|i| Site::Logic { x: i % s, y: i / s })
        .collect();
    let all_io: Vec<Site> = {
        let mut v = Vec::new();
        for side in 0..4u8 {
            for pos in 0..s {
                for slot in 0..arch.io_capacity {
                    v.push(Site::Io { side, pos, slot });
                }
            }
        }
        v
    };

    loop {
        let mut accepted = 0usize;
        for _ in 0..moves_per_temp {
            let b = rng.index(n_blocks) as u32;
            let kind = netlist.blocks[b as usize].kind;
            let pool = if kind == BlockKind::Logic { &all_logic } else { &all_io };
            // Range-limited proposal around the current site.
            let cur = st.site_of[b as usize];
            let (cx, cy) = cur.location(s);
            let target = {
                let mut t = pool[rng.index(pool.len())];
                for _ in 0..4 {
                    let (tx, ty) = t.location(s);
                    if (tx - cx).abs() <= range && (ty - cy).abs() <= range {
                        break;
                    }
                    t = pool[rng.index(pool.len())];
                }
                t
            };
            if target == cur {
                continue;
            }
            let displaced = st.occupant.get(&target).copied();
            if let Some(d) = displaced {
                if netlist.blocks[d as usize].kind != kind {
                    continue; // can't swap across site classes
                }
            }
            // Affected nets.
            let mut nets: Vec<u32> = st.nets_of_block[b as usize].clone();
            if let Some(d) = displaced {
                nets.extend_from_slice(&st.nets_of_block[d as usize]);
                nets.sort_unstable();
                nets.dedup();
            }
            let old_cost: f64 = nets.iter().map(|&i| st.net_cost[i as usize]).sum();
            // Apply.
            st.site_of[b as usize] = target;
            if let Some(d) = displaced {
                st.site_of[d as usize] = cur;
            }
            let new_cost: f64 = nets.iter().map(|&i| st.net_hpwl(i)).sum();
            let delta = new_cost - old_cost;
            if delta <= 0.0 || rng.unit_f64() < (-delta / temp).exp() {
                // Commit.
                for &i in &nets {
                    st.net_cost[i as usize] = st.net_hpwl(i);
                }
                st.cost += delta;
                st.occupant.insert(target, b);
                if let Some(d) = displaced {
                    st.occupant.insert(cur, d);
                } else {
                    st.occupant.remove(&cur);
                }
                accepted += 1;
            } else {
                // Revert.
                st.site_of[b as usize] = cur;
                if let Some(d) = displaced {
                    st.site_of[d as usize] = target;
                }
            }
        }
        let rate = accepted as f64 / moves_per_temp as f64;
        // VPR's adaptive alpha.
        let alpha = if rate > 0.96 {
            0.5
        } else if rate > 0.8 {
            0.9
        } else if rate > 0.15 {
            0.95
        } else {
            0.8
        };
        temp *= alpha;
        range = (range * (1.0 - 0.44 + rate)).clamp(1.0, s as f64);
        if temp < 0.005 * st.cost / netlist.nets.len().max(1) as f64 || temp < 1e-6 {
            break;
        }
    }
    st.recompute_all();
    Placement { site_of: st.site_of, cost: st.cost }
}

/// Runs one independent anneal per seed and returns the lowest-cost
/// placement. Seeds are split into at most `threads` contiguous chunks,
/// one scoped thread each; ties are broken by seed order — so the result
/// never depends on the thread count.
pub fn place_multi_seed_on(
    netlist: &ParNetlist,
    arch: FabricArch,
    seeds: &[u64],
    threads: usize,
) -> Placement {
    assert!(!seeds.is_empty());
    let threads = threads.max(1).min(seeds.len());
    let results: Vec<Placement> = if threads == 1 {
        seeds.iter().map(|&s| place(netlist, arch, s)).collect()
    } else {
        let per = seeds.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .chunks(per)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk.iter().map(|&s| place(netlist, arch, s)).collect::<Vec<_>>()
                    })
                })
                .collect();
            // Contiguous chunks concatenated in order: results stay in
            // seed order regardless of the worker count.
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("placement thread"))
                .collect()
        })
    };
    results
        .into_iter()
        .enumerate()
        .min_by(|(ia, a), (ib, b)| a.cost.total_cmp(&b.cost).then(ia.cmp(ib)))
        .map(|(_, p)| p)
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Block, Net};

    fn chain_netlist(n: usize) -> ParNetlist {
        // in -> L0 -> L1 -> ... -> out
        let mut blocks = vec![Block { name: "in".into(), kind: BlockKind::InputPad }];
        for i in 0..n {
            blocks.push(Block { name: format!("l{i}"), kind: BlockKind::Logic });
        }
        blocks.push(Block { name: "out".into(), kind: BlockKind::OutputPad });
        let mut nets = Vec::new();
        nets.push(Net { sources: vec![0], sinks: vec![(1, 0)] });
        for i in 0..n - 1 {
            nets.push(Net {
                sources: vec![(i + 1) as u32],
                sinks: vec![((i + 2) as u32, 0)],
            });
        }
        nets.push(Net {
            sources: vec![n as u32],
            sinks: vec![((n + 1) as u32, 0)],
        });
        ParNetlist { blocks, nets }
    }

    #[test]
    fn placement_is_legal() {
        let nl = chain_netlist(12);
        let arch = FabricArch::paper_4lut(5);
        let p = place(&nl, arch, 42);
        assert_eq!(p.site_of.len(), nl.blocks.len());
        // No double occupancy; kinds respected.
        let mut seen = std::collections::HashSet::new();
        for (b, &site) in p.site_of.iter().enumerate() {
            assert!(seen.insert(site), "two blocks on {site:?}");
            match nl.blocks[b].kind {
                BlockKind::Logic => assert!(matches!(site, Site::Logic { .. })),
                _ => assert!(matches!(site, Site::Io { .. })),
            }
        }
    }

    #[test]
    fn anneal_beats_random_for_chains() {
        let nl = chain_netlist(20);
        let arch = FabricArch::paper_4lut(6);
        let p = place(&nl, arch, 7);
        // A 20-long chain placed well should cost close to ~1-2 per edge.
        assert!(
            p.cost < 3.0 * nl.nets.len() as f64,
            "anneal cost {} too high",
            p.cost
        );
    }

    #[test]
    fn multi_seed_picks_best() {
        let nl = chain_netlist(10);
        let arch = FabricArch::paper_4lut(5);
        let best = place_multi_seed_on(&nl, arch, &[1, 2, 3, 4], 2);
        for s in [1u64, 2, 3, 4] {
            let single = place(&nl, arch, s);
            assert!(best.cost <= single.cost + 1e-9);
        }
    }
}
