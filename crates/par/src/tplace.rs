//! TPLACE: simulated-annealing placement.
//!
//! Classic VPR-style annealer: half-perimeter wirelength cost with a
//! fanout correction factor, adaptive temperature schedule, and a range
//! limit that shrinks as the anneal cools. Logic blocks move over logic
//! sites, pads over I/O sites. [`place_best`] runs one independent
//! anneal per seed, in seed order, and keeps the best.
//!
//! The range limits every logic move, as in VPR: a logic block's target
//! is drawn uniformly from the (2r+1)² window of tiles around its own,
//! r = max(1, ⌊range⌋), clipped to the grid — x first, then y. That
//! window is exactly the set of logic sites within `range` of the block
//! on both axes. Drawing the block's own tile wastes the proposal. Pads
//! keep a rejection draw: up to five uniform draws over every pad site,
//! the fifth kept wherever it lands. They are about a tenth of the blocks
//! (90 of 894 in the (5,10) PE), and their sites lie on the perimeter,
//! where the window is not a rectangle of site ids.
//!
//! A proposal touches flat state only: sites are small integers, the
//! occupant of a site and the location of a block are array reads, the
//! affected nets of a move are a merge of two sorted CSR rows into a
//! reused buffer, and their new costs are computed once and committed on
//! accept. The `f64` sums run over the same values in the same order as
//! the textbook formulation and the RNG is drawn in the same sequence, so
//! placements and costs equal it to the bit — `place_reference` in the
//! test module is that formulation, and a property test holds the two
//! together. The reference finds a logic block's window by filtering
//! every column and row through the range test on `Site::location`, so
//! the property test also holds the window's clipping to that test.

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
    /// Temperatures the anneal cooled through.
    pub temperatures: usize,
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

/// Marks a site nobody occupies.
const FREE: u32 = u32::MAX;

/// The anneal's cost state, flat: every lookup a proposal makes is an
/// array index. Sites are numbered logic row-major (`y·size + x`), then
/// pads in (side, position, slot) order — the order the proposal pools are
/// drawn in, so a pool index is a site id.
struct PlacerState {
    /// Net → the blocks of its pins (sources, then sinks; a block listed
    /// twice moves no bound but counts twice in the fanout factor), CSR.
    pin_off: Vec<u32>,
    pins: Vec<u32>,
    /// Fanout correction of each net.
    q: Vec<f64>,
    /// Block → the nets touching it, ascending and distinct, CSR.
    net_off: Vec<u32>,
    nets: Vec<u32>,
    /// Location of the site each block sits on.
    loc_of: Vec<(f64, f64)>,
    net_cost: Vec<f64>,
}

impl PlacerState {
    fn new(netlist: &ParNetlist) -> Self {
        let n_blocks = netlist.blocks.len();
        let (mut pin_off, mut pins) = (vec![0u32], Vec::new());
        let mut touching: Vec<Vec<u32>> = vec![Vec::new(); n_blocks];
        for (i, n) in netlist.nets.iter().enumerate() {
            for b in n
                .sources
                .iter()
                .copied()
                .chain(n.sinks.iter().map(|&(b, _)| b))
            {
                pins.push(b);
                // Nets arrive in ascending order: distinct means not the last.
                if touching[b as usize].last() != Some(&(i as u32)) {
                    touching[b as usize].push(i as u32);
                }
            }
            pin_off.push(pins.len() as u32);
        }
        let (mut net_off, mut nets) = (vec![0u32], Vec::new());
        for t in &touching {
            nets.extend_from_slice(t);
            net_off.push(nets.len() as u32);
        }
        Self {
            q: netlist
                .nets
                .iter()
                .map(|n| q_factor(n.sources.len() + n.sinks.len()))
                .collect(),
            pin_off,
            pins,
            net_off,
            nets,
            loc_of: vec![(0.0, 0.0); n_blocks],
            net_cost: vec![0.0; netlist.nets.len()],
        }
    }

    fn nets_of(&self, block: u32) -> &[u32] {
        &self.nets[self.net_off[block as usize] as usize..self.net_off[block as usize + 1] as usize]
    }

    fn net_hpwl(&self, net: u32) -> f64 {
        let mut min_x = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        let (a, b) = (
            self.pin_off[net as usize] as usize,
            self.pin_off[net as usize + 1] as usize,
        );
        for &block in &self.pins[a..b] {
            let (x, y) = self.loc_of[block as usize];
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
        }
        self.q[net as usize] * ((max_x - min_x) + (max_y - min_y))
    }

    /// Recomputes every net's cost; returns the total.
    fn recompute_all(&mut self) -> f64 {
        let mut cost = 0.0;
        for i in 0..self.net_cost.len() {
            let c = self.net_hpwl(i as u32);
            self.net_cost[i] = c;
            cost += c;
        }
        cost
    }
}

/// Merges two ascending, distinct lists into `out`, ascending and distinct
/// — what sorting and deduplicating their concatenation yields.
fn merge_distinct(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// A logic block's move target: a uniform draw, x then y, from the
/// (2r+1)² window of tiles around `(x, y)`, r = max(1, ⌊range⌋), clipped
/// to the `s × s` grid.
fn window_draw(rng: &mut SplitMix64, s: usize, x: usize, y: usize, range: f64) -> (usize, usize) {
    let r = (range as usize).max(1);
    let mut axis = |c: usize| {
        let lo = c.saturating_sub(r);
        lo + rng.index((c + r).min(s - 1) - lo + 1)
    };
    (axis(x), axis(y))
}

/// Runs the anneal with one seed (see the module docs for what keeps it
/// equal to `place_reference` to the bit). Its `par.place` span carries
/// the seed, the temperatures, the proposals and the accepted moves.
pub fn place(netlist: &ParNetlist, arch: FabricArch, seed: u64) -> Placement {
    let mut span = trace::span("par.place");
    span.arg("seed", seed);
    let mut rng = SplitMix64::new(seed);
    let s = arch.size;
    let n_logic = s * s;

    // The site table, in site-id order.
    let mut sites: Vec<Site> = (0..n_logic)
        .map(|i| Site::Logic { x: i % s, y: i / s })
        .collect();
    for side in 0..4u8 {
        for pos in 0..s {
            for slot in 0..arch.io_capacity {
                sites.push(Site::Io { side, pos, slot });
            }
        }
    }
    let site_loc: Vec<(f64, f64)> = sites.iter().map(|site| site.location(s)).collect();
    let n_io = sites.len() - n_logic;

    // Initial assignment: logic blocks onto shuffled logic sites, pads
    // onto shuffled I/O sites, both in block order.
    let mut logic_sites: Vec<u32> = (0..n_logic as u32).collect();
    let mut io_sites: Vec<u32> = (n_logic as u32..sites.len() as u32).collect();
    rng.shuffle(&mut logic_sites);
    rng.shuffle(&mut io_sites);
    let (mut logic_next, mut io_next) = (logic_sites.iter(), io_sites.iter());
    let mut st = PlacerState::new(netlist);
    let mut occupant = vec![FREE; sites.len()];
    let mut site_of: Vec<u32> = Vec::with_capacity(netlist.blocks.len());
    for (b, block) in netlist.blocks.iter().enumerate() {
        let site = *match block.kind {
            BlockKind::Logic => logic_next
                .next()
                .unwrap_or_else(|| panic!("fabric too small: {n_logic} logic sites")),
            _ => io_next
                .next()
                .unwrap_or_else(|| panic!("fabric too small: {n_io} pad sites")),
        };
        site_of.push(site);
        occupant[site as usize] = b as u32;
        st.loc_of[b] = site_loc[site as usize];
    }
    let mut cost = st.recompute_all();

    let n_blocks = netlist.blocks.len();
    let moves_per_temp = ((n_blocks as f64).powf(4.0 / 3.0) as usize).max(64);
    let mut temp = 0.1 * cost / netlist.nets.len().max(1) as f64 * 20.0;
    let mut range = s as f64;
    // Affected nets of the proposal and their costs after it.
    let (mut affected, mut new_costs) = (Vec::new(), Vec::new());
    let (mut temperatures, mut accepted_total) = (0usize, 0usize);

    loop {
        let mut accepted = 0usize;
        for _ in 0..moves_per_temp {
            let b = rng.index(n_blocks);
            let kind = netlist.blocks[b].kind;
            // Range-limited proposal around the current site.
            let cur = site_of[b] as usize;
            let target = if kind == BlockKind::Logic {
                let (x, y) = window_draw(&mut rng, s, cur % s, cur / s, range);
                y * s + x
            } else {
                let (cx, cy) = st.loc_of[b];
                let mut t = n_logic + rng.index(n_io);
                for _ in 0..4 {
                    let (tx, ty) = site_loc[t];
                    if (tx - cx).abs() <= range && (ty - cy).abs() <= range {
                        break;
                    }
                    t = n_logic + rng.index(n_io);
                }
                t
            };
            if target == cur {
                continue;
            }
            let displaced = occupant[target];
            if displaced != FREE && netlist.blocks[displaced as usize].kind != kind {
                continue; // can't swap across site classes
            }
            let others = if displaced == FREE {
                &[][..]
            } else {
                st.nets_of(displaced)
            };
            merge_distinct(st.nets_of(b as u32), others, &mut affected);
            let old_cost: f64 = affected.iter().map(|&i| st.net_cost[i as usize]).sum();
            // Apply.
            st.loc_of[b] = site_loc[target];
            if displaced != FREE {
                st.loc_of[displaced as usize] = site_loc[cur];
            }
            new_costs.clear();
            new_costs.extend(affected.iter().map(|&i| st.net_hpwl(i)));
            let new_cost: f64 = new_costs.iter().sum();
            let delta = new_cost - old_cost;
            if delta <= 0.0 || rng.unit_f64() < (-delta / temp).exp() {
                // Commit.
                for (&i, &c) in affected.iter().zip(&new_costs) {
                    st.net_cost[i as usize] = c;
                }
                cost += delta;
                site_of[b] = target as u32;
                occupant[target] = b as u32;
                occupant[cur] = displaced;
                if displaced != FREE {
                    site_of[displaced as usize] = cur as u32;
                }
                accepted += 1;
            } else {
                // Revert.
                st.loc_of[b] = site_loc[cur];
                if displaced != FREE {
                    st.loc_of[displaced as usize] = site_loc[target];
                }
            }
        }
        temperatures += 1;
        accepted_total += accepted;
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
        if temp < 0.005 * cost / netlist.nets.len().max(1) as f64 || temp < 1e-6 {
            break;
        }
    }
    span.arg("temperatures", temperatures);
    span.arg("proposals", temperatures * moves_per_temp);
    span.arg("accepted", accepted_total);
    Placement {
        site_of: site_of.iter().map(|&id| sites[id as usize]).collect(),
        cost: st.recompute_all(),
        temperatures,
    }
}

/// Runs one independent anneal per seed and returns the lowest-cost
/// placement; ties are broken by seed order (the earlier seed wins).
pub(crate) fn place_best(netlist: &ParNetlist, arch: FabricArch, seeds: &[u64]) -> Placement {
    seeds
        .iter()
        .map(|&s| place(netlist, arch, s))
        .reduce(|best, p| {
            if p.cost.total_cmp(&best.cost).is_lt() {
                p
            } else {
                best
            }
        })
        .expect("at least one placement seed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Block, Net};

    struct ReferenceState<'a> {
        netlist: &'a ParNetlist,
        arch: FabricArch,
        site_of: Vec<Site>,
        occupant: logic::fxhash::FxHashMap<Site, u32>,
        // nets touching each block
        nets_of_block: Vec<Vec<u32>>,
        net_cost: Vec<f64>,
        cost: f64,
    }

    impl<'a> ReferenceState<'a> {
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

    /// The textbook anneal `place` must equal to the bit: a hash map of
    /// occupants, an affected-net `Vec` sorted and deduplicated per proposal,
    /// `Site::location` per pin, every net re-walked on commit.
    fn place_reference(netlist: &ParNetlist, arch: FabricArch, seed: u64) -> Placement {
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

        let mut st = ReferenceState {
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
        let mut temperatures = 0;

        // Candidate pad sites for random proposals.
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
                // Range-limited proposal around the current site.
                let cur = st.site_of[b as usize];
                let (cx, cy) = cur.location(s);
                let in_range = |t: Site| {
                    let (tx, ty) = t.location(s);
                    (tx - cx).abs() <= range && (ty - cy).abs() <= range
                };
                let target = match cur {
                    // Uniform over the logic sites the range test accepts:
                    // a column of them, then a row.
                    Site::Logic { x: x0, y: y0 } => {
                        let xs: Vec<usize> = (0..s)
                            .filter(|&x| in_range(Site::Logic { x, y: y0 }))
                            .collect();
                        let x = xs[rng.index(xs.len())];
                        let ys: Vec<usize> = (0..s)
                            .filter(|&y| in_range(Site::Logic { x: x0, y }))
                            .collect();
                        Site::Logic {
                            x,
                            y: ys[rng.index(ys.len())],
                        }
                    }
                    // A pad: up to five draws over every pad site, the
                    // last kept wherever it lands.
                    Site::Io { .. } => {
                        let mut t = all_io[rng.index(all_io.len())];
                        for _ in 0..4 {
                            if in_range(t) {
                                break;
                            }
                            t = all_io[rng.index(all_io.len())];
                        }
                        t
                    }
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
            temperatures += 1;
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
        Placement {
            site_of: st.site_of,
            cost: st.cost,
            temperatures,
        }
    }

    /// A random netlist with everything the flat state must get right:
    /// logic blocks and both pad kinds, multi-pin and multi-source
    /// (tunable) nets, a block listed twice in one net, blocks on no net.
    fn random_netlist(
        rng: &mut SplitMix64,
        n_logic: usize,
        n_pads: usize,
        n_nets: usize,
    ) -> ParNetlist {
        let mut blocks = Vec::new();
        for i in 0..n_logic {
            blocks.push(Block {
                name: format!("l{i}"),
                kind: BlockKind::Logic,
            });
        }
        for i in 0..n_pads {
            let kind = if rng.coin() {
                BlockKind::InputPad
            } else {
                BlockKind::OutputPad
            };
            blocks.push(Block {
                name: format!("p{i}"),
                kind,
            });
        }
        // The last logic block and the last pad stay unconnected.
        let pick = |rng: &mut SplitMix64| {
            let b = rng.index(blocks.len() - 1);
            if b == n_logic - 1 {
                0
            } else {
                b as u32
            }
        };
        let nets = (0..n_nets)
            .map(|_| {
                let sources: Vec<u32> = (0..1 + rng.index(3)).map(|_| pick(rng)).collect();
                let mut sinks: Vec<(u32, u8)> = (0..1 + rng.index(12))
                    .map(|_| (pick(rng), rng.index(4) as u8))
                    .collect();
                if rng.coin() {
                    // The driver reads its own output; a sink block twice.
                    sinks.push((sources[0], 3));
                    sinks.push((sinks[0].0, 2));
                }
                Net { sources, sinks }
            })
            .collect();
        ParNetlist { blocks, nets }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]
        #[test]
        fn flat_place_equals_the_reference_to_the_bit(
            shape in proptest::any::<u64>(),
            n_logic in 2usize..40,
            n_pads in 2usize..24,
            n_nets in 1usize..60,
        ) {
            let nl = random_netlist(&mut SplitMix64::new(shape), n_logic, n_pads, n_nets);
            let arch = FabricArch::sized_for(n_logic, n_pads);
            for seed in [1u64, 2, 0xDEAD_BEEF] {
                let (flat, reference) = (place(&nl, arch, seed), place_reference(&nl, arch, seed));
                proptest::prop_assert_eq!(&flat.site_of, &reference.site_of);
                proptest::prop_assert_eq!(flat.cost.to_bits(), reference.cost.to_bits());
                proptest::prop_assert_eq!(flat.temperatures, reference.temperatures);
            }
        }
    }

    /// The range limiter limits: from corner, edge and centre tiles, every
    /// draw lies within ⌊range⌋ of the tile on both axes, and every such
    /// tile of the grid is drawn.
    #[test]
    fn window_draw_covers_the_clipped_window_and_nothing_else() {
        let s: usize = 9;
        let mut rng = SplitMix64::new(5);
        for (x, y) in [(0, 0), (s - 1, s - 1), (0, 4), (4, s - 1), (4, 4)] {
            for (r, range) in [(1, 1.0), (2, 2.75), (5, 5.5), (s, s as f64)] {
                let window: std::collections::HashSet<(usize, usize)> = (0..s)
                    .flat_map(|tx| (0..s).map(move |ty| (tx, ty)))
                    .filter(|&(tx, ty)| tx.abs_diff(x) <= r && ty.abs_diff(y) <= r)
                    .collect();
                let mut drawn = std::collections::HashSet::new();
                for _ in 0..64 * window.len() {
                    let t = window_draw(&mut rng, s, x, y, range);
                    assert!(window.contains(&t), "{t:?} outside r={r} of {:?}", (x, y));
                    drawn.insert(t);
                }
                assert_eq!(drawn, window, "r={r} around {:?}", (x, y));
            }
        }
    }

    fn chain_netlist(n: usize) -> ParNetlist {
        // in -> L0 -> L1 -> ... -> out
        let mut blocks = vec![Block {
            name: "in".into(),
            kind: BlockKind::InputPad,
        }];
        for i in 0..n {
            blocks.push(Block {
                name: format!("l{i}"),
                kind: BlockKind::Logic,
            });
        }
        blocks.push(Block {
            name: "out".into(),
            kind: BlockKind::OutputPad,
        });
        let mut nets = Vec::new();
        nets.push(Net {
            sources: vec![0],
            sinks: vec![(1, 0)],
        });
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
        let seeds = [1u64, 2, 3, 4, 1];
        let best = place_best(&nl, arch, &seeds);
        let singles: Vec<Placement> = seeds.iter().map(|&s| place(&nl, arch, s)).collect();
        let min = singles.iter().map(|p| p.cost).fold(f64::INFINITY, f64::min);
        // The lowest cost, and on a tie the earliest seed's placement.
        let first = singles.iter().position(|p| p.cost == min).unwrap();
        assert_eq!((best.cost, &best.site_of), (min, &singles[first].site_of));
    }
}
