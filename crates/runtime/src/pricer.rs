//! Micro-reconfiguration pricing for parameter-only changes.
//!
//! A warm parameter swap does what the paper's SCG does on the embedded
//! processor: evaluate the PE's PPC Boolean functions for the old and the
//! new settings, diff the specialized bits, and rewrite only the dirty
//! frames. Every changed PE of a swap is two lanes — old, new — of one
//! [`dcs::Scg::specialize_lanes`] sweep (32 PEs to a sweep, chunked
//! beyond), so a swap costs one pass over the PE's BDD store and one over
//! its PPC roots however many PEs it touches.
//!
//! The model a swap is priced on — the (4,6) virtual PE at two hops,
//! mapped parameterized, its PPC extracted — is a constant of the overlay,
//! and as the paper's TLUT/TCON mapper produces the PPC once, offline, it
//! is data here: `pricer/table.rs`, written by `xbench`'s `pricer_table`
//! and checked in (its test maps the PE again and compares). The table
//! holds what the SCG reads and nothing more: the node store children
//! first, one root per PPC bit, each root's frame index, the frames and
//! the parameter count. A process rebuilds the store from it on its first
//! swap — 1 389 nodes, no mapping — and every runtime and shard prices on
//! that one [`dcs::Scg`]. The frame *counts* it produces are a per-PE
//! model, anchored against the paper's published population through
//! [`dcs::paper_pe_reconfig`].
//!
//! Two frame populations are priced per swap:
//!
//! * **PPC frames** — configuration frames of the PE datapath whose TLUT /
//!   TCON bits changed, from [`dcs::Scg::pair_diff`];
//! * **settings frames** — the overlay's settings-register plane, addressed
//!   through [`fabric::frames::FrameModel::for_grid`]: PEs in the same
//!   column stripe share a frame, so a swap touching a whole column is one
//!   read-modify-write there.

use std::collections::BTreeSet;
use std::sync::LazyLock;
use std::time::Duration;

use dcs::{ReconfigInterface, Scg};
use fabric::frames::FrameModel;
use fabric::Site;
use logic::{Bdd, BddManager};
use softfloat::{FpFormat, FpValue};
use vcgra::{PeSettings, VirtualPeConfig};

#[rustfmt::skip]
mod table;

/// One PE whose settings change in a swap: region-local cell plus the old
/// and new settings-register content.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PeChange {
    /// Cell in *physical grid* coordinates (row, col) — the lease offset is
    /// already applied, so settings frames are shared correctly between
    /// tenants stacked on the same grid column.
    pub cell: (usize, usize),
    /// Settings currently loaded.
    pub old: PeSettings,
    /// Settings to load.
    pub new: PeSettings,
}

/// Price of one parameter-only micro-reconfiguration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapReport {
    /// PEs whose settings actually differed.
    pub dirty_pes: usize,
    /// Dirty PE-datapath frames (TLUT/TCON bits), summed over dirty PEs.
    pub ppc_frames: usize,
    /// Dirty settings-register frames (deduplicated across PEs).
    pub settings_frames: usize,
    /// Specialized bits that changed value.
    pub bits_changed: usize,
    /// Modeled configuration-port time for all dirty frames.
    pub port_time: Duration,
    /// SCG sweeps evaluated: one per `PES_PER_SWEEP` (32) PEs whose
    /// datapath parameters changed.
    pub sweeps: usize,
}

/// PEs priced by one SCG sweep: each is an (old, new) pair of lanes.
pub(crate) const PES_PER_SWEEP: usize = dcs::LANES / 2;

impl SwapReport {
    /// Total frames rewritten.
    pub fn frames(&self) -> usize {
        self.ppc_frames + self.settings_frames
    }
}

/// The pricing PE, as the table records it: a reduced format, whose store
/// of 1 389 nodes a swap sweeps in ≈ 2 µs (the paper's (6,26) PE's store
/// holds 62 483).
const PRICER_PE: VirtualPeConfig = VirtualPeConfig {
    format: FpFormat {
        we: table::WE,
        wf: table::WF,
    },
    hops: table::HOPS,
};

/// The configuration interface every price is charged at: the paper's
/// HWICAP, 251 ms per PE.
const IFACE: ReconfigInterface = ReconfigInterface::Hwicap;

/// The pricing PE's node store, rebuilt from the table on the process's
/// first swap.
static STORE: LazyLock<BddManager> = LazyLock::new(|| BddManager::from_nodes(&table::NODES));

/// The SCG every swap of the process is priced on.
static SCG: LazyLock<Scg<'static>> = LazyLock::new(|| {
    Scg::from_parts(
        &STORE,
        table::ROOTS.iter().map(|&r| Bdd::from_raw(r)).collect(),
        &table::ROOT_FRAME,
        &table::FRAMES,
        table::PARAMS,
    )
});

/// Overlay settings (in the application's format) as settings of the
/// pricing PE: the coefficient re-rounded to its format.
fn scaled(s: &PeSettings) -> PeSettings {
    PeSettings {
        coeff: FpValue::from_f64(s.coeff.to_f64(), PRICER_PE.format),
        ..*s
    }
}

/// Prices a parameter-only change over a set of PEs on one grid.
///
/// `grid` is the physical grid shape hosting the cells (for the
/// settings-plane frame model). Unchanged PEs (identical settings)
/// contribute nothing — the SCG diff is empty and the settings word is
/// identical, which is what makes the warm path cheap.
pub(crate) fn price_swap(grid: (usize, usize), changes: &[PeChange]) -> SwapReport {
    let scg = &*SCG;
    let frame_model = FrameModel::for_grid(grid.0, grid.1);
    let mut report = SwapReport::default();
    let mut settings_frames = BTreeSet::new();
    // PEs whose datapath parameters change, as pricing-PE settings.
    let mut repriced: Vec<(PeSettings, PeSettings)> = Vec::new();
    for ch in changes {
        // The settings word covers the coefficient image, the iteration
        // counter, and the mode; the counter is sequential state and
        // does not reach the PPC, so compare the word first.
        let word_equal = ch.old.coeff.bits == ch.new.coeff.bits
            && ch.old.counter == ch.new.counter
            && ch.old.mode == ch.new.mode;
        if word_equal {
            continue;
        }
        report.dirty_pes += 1;
        // The parameter bits are the scaled coefficient and the mode's
        // route selects: a coefficient that rounds to the same
        // pricing-format value (or a counter-only change) leaves them
        // as they were and dirties the settings plane only.
        let (old, new) = (scaled(&ch.old), scaled(&ch.new));
        if old.coeff.bits != new.coeff.bits || old.mode != new.mode {
            repriced.push((old, new));
        }
        // The settings word (counter + coefficient image) lives in the
        // settings plane: one frame per column stripe.
        settings_frames.insert(frame_model.lut_frame(Site::Logic {
            x: ch.cell.1,
            y: ch.cell.0,
        }));
    }
    // One sweep per chunk: PE `i` of it in lanes `2i` (old), `2i + 1`.
    let mut lanes = vec![0u64; PRICER_PE.settings_bits()];
    for chunk in repriced.chunks(PES_PER_SWEEP) {
        lanes.fill(0);
        for (i, (old, new)) in chunk.iter().enumerate() {
            old.set_param_lane(&PRICER_PE, 2 * i, &mut lanes);
            new.set_param_lane(&PRICER_PE, 2 * i + 1, &mut lanes);
        }
        let diff = scg.pair_diff(&scg.specialize_lanes(&lanes), chunk.len());
        report.ppc_frames += diff.dirty_frames;
        report.bits_changed += diff.bits_changed;
        report.sweeps += 1;
    }
    report.settings_frames = settings_frames.len();
    report.port_time = dcs::timing::reconfig_cost(report.frames(), IFACE);
    report
}

/// Modeled port time to configure `pes` PEs from scratch (cold
/// admission or a time-multiplexing context switch): the paper's
/// full per-PE micro-reconfiguration, 251 ms each on HWICAP.
pub(crate) fn full_config_cost(pes: usize) -> Duration {
    let per_pe = dcs::paper_pe_reconfig(IFACE);
    per_pe * pes as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs::ParamConfig;
    use mapping::{map_parameterized, MapOptions, MappedDesign};
    use std::sync::OnceLock;
    use vcgra::{PeMode, VirtualPe};

    const F: FpFormat = FpFormat::PAPER;

    /// The pricing PE mapped afresh, as the table's generator maps it:
    /// what the reference prices on, so that the table, `price_swap` and
    /// the reference are checked against each other.
    fn mapped() -> &'static (MappedDesign, ParamConfig) {
        static MAPPED: OnceLock<(MappedDesign, ParamConfig)> = OnceLock::new();
        MAPPED.get_or_init(|| {
            let aig = logic::opt::sweep(&VirtualPe::build(PRICER_PE, true).aig);
            let design = map_parameterized(&aig, MapOptions::default());
            let config = ParamConfig::extract(&design);
            (design, config)
        })
    }

    fn mac(c: f64, counter: u32) -> PeSettings {
        PeSettings {
            coeff: FpValue::from_f64(c, F),
            counter,
            mode: PeMode::Mac,
        }
    }

    /// The formulation `price_swap` replaced, kept as its oracle: per
    /// changed PE two `Vec<bool>` parameter vectors, two `Scg::specialize`
    /// results, their `dirty_frames` set and a bit-by-bit count.
    fn price_swap_reference(grid: (usize, usize), changes: &[PeChange]) -> SwapReport {
        let (design, config) = mapped();
        let scg = Scg::new(design, config);
        let frame_model = FrameModel::for_grid(grid.0, grid.1);
        let mut report = SwapReport::default();
        let mut settings_frames = BTreeSet::new();
        let mut repriced = 0usize;
        for ch in changes {
            let word_equal = ch.old.coeff.bits == ch.new.coeff.bits
                && ch.old.counter == ch.new.counter
                && ch.old.mode == ch.new.mode;
            if word_equal {
                continue;
            }
            report.dirty_pes += 1;
            let old_bits = scaled(&ch.old).to_param_bits(&PRICER_PE);
            let new_bits = scaled(&ch.new).to_param_bits(&PRICER_PE);
            if old_bits != new_bits {
                repriced += 1;
                let old_spec = scg.specialize(&old_bits);
                let new_spec = scg.specialize(&new_bits);
                report.ppc_frames += scg.dirty_frames(&old_spec, &new_spec).len();
                report.bits_changed += old_spec
                    .values
                    .iter()
                    .zip(&new_spec.values)
                    .filter(|(a, b)| a != b)
                    .count();
            }
            settings_frames.insert(frame_model.lut_frame(Site::Logic {
                x: ch.cell.1,
                y: ch.cell.0,
            }));
        }
        report.sweeps = repriced.div_ceil(PES_PER_SWEEP);
        report.settings_frames = settings_frames.len();
        report.port_time = dcs::timing::reconfig_cost(report.frames(), IFACE);
        report
    }

    /// A seeded change list with exactly `repriced` PEs whose datapath
    /// parameters change — coefficient changes, mode changes (they reach
    /// the routing frames, which the PPC order interleaves with the LUT
    /// frames) and both at once — shuffled among counter-only changes,
    /// coefficients that round to the same pricing-format value and
    /// unchanged PEs, on an 8 × 8 grid whose cells repeat.
    fn seeded_changes(seed: u64, repriced: usize) -> Vec<PeChange> {
        // Distinct in the (4,6) pricing format.
        const COEFFS: [f64; 8] = [0.5, -0.75, 1.0, 1.25, -1.5, 2.0, 3.0, -0.625];
        const MODES: [PeMode; 4] = [PeMode::Mac, PeMode::Mul, PeMode::Add, PeMode::Pass];
        let mut rng = logic::SplitMix64::new(seed);
        let mut changes = Vec::new();
        let settings = |rng: &mut logic::SplitMix64| PeSettings {
            coeff: FpValue::from_f64(COEFFS[rng.index(8)], F),
            counter: 1 + rng.index(4) as u32,
            mode: MODES[rng.index(4)],
        };
        for i in 0..repriced {
            let old = settings(&mut rng);
            let mut new = old;
            if i % 3 != 1 {
                let c = COEFFS.iter().map(|&c| FpValue::from_f64(c, F));
                new.coeff = c
                    .cycle()
                    .skip(rng.index(8))
                    .find(|c| c.bits != old.coeff.bits)
                    .unwrap();
            }
            if i % 3 != 0 {
                new.mode = MODES
                    [(MODES.iter().position(|&m| m == old.mode).unwrap() + 1 + rng.index(3)) % 4];
            }
            changes.push((old, new));
        }
        for i in 0..repriced / 4 + 3 {
            let old = settings(&mut rng);
            let mut new = old;
            match i % 3 {
                0 => new.counter += 7,
                // 2^-8 of the value: a new application-format value, but
                // under half a (4,6) ulp (2^-7), so the same (4,6) value.
                1 => new.coeff = FpValue::from_f64(old.coeff.to_f64() * (1.0 + 1.0 / 256.0), F),
                _ => {}
            }
            changes.push((old, new));
        }
        // Fisher–Yates, so the chunk boundary falls among mixed kinds.
        for i in (1..changes.len()).rev() {
            changes.swap(i, rng.index(i + 1));
        }
        changes
            .into_iter()
            .map(|(old, new)| PeChange {
                cell: (rng.index(8), rng.index(8)),
                old,
                new,
            })
            .collect()
    }

    #[test]
    fn one_sweep_prices_what_two_specializations_per_pe_priced() {
        for (seed, repriced) in [0, 1, 32, 33, 70].into_iter().enumerate() {
            let changes = seeded_changes(seed as u64, repriced);
            let want = price_swap_reference((8, 8), &changes);
            let got = price_swap((8, 8), &changes);
            assert_eq!(
                want.sweeps,
                repriced.div_ceil(PES_PER_SWEEP),
                "the list reprices {repriced}"
            );
            assert_eq!(
                (
                    got.dirty_pes,
                    got.ppc_frames,
                    got.settings_frames,
                    got.bits_changed
                ),
                (
                    want.dirty_pes,
                    want.ppc_frames,
                    want.settings_frames,
                    want.bits_changed
                ),
                "{repriced} repriced PEs"
            );
            assert_eq!((got.sweeps, got.port_time), (want.sweeps, want.port_time));
            if repriced > 0 {
                assert!(got.ppc_frames > 0 && got.bits_changed >= got.ppc_frames);
            }
        }
    }

    #[test]
    fn a_mode_change_reaches_the_routing_frames() {
        // The case a per-run frame accumulation gets wrong: the route
        // selects drive TCON bits whose frames the PPC order visits in
        // several runs, between runs of LUT frames.
        let old = mac(0.5, 1);
        let ch = PeChange {
            cell: (0, 0),
            old,
            new: PeSettings {
                mode: PeMode::Pass,
                ..old
            },
        };
        let got = price_swap((4, 4), &[ch]);
        let want = price_swap_reference((4, 4), &[ch]);
        assert!(got.ppc_frames > 0);
        assert_eq!(
            (got.ppc_frames, got.bits_changed),
            (want.ppc_frames, want.bits_changed)
        );
    }

    #[test]
    fn identical_settings_price_to_zero() {
        let ch = PeChange {
            cell: (0, 0),
            old: mac(0.5, 1),
            new: mac(0.5, 1),
        };
        let r = price_swap((4, 4), &[ch]);
        assert_eq!(r.dirty_pes, 0);
        assert_eq!(r.frames(), 0);
        assert_eq!(r.port_time, Duration::ZERO);
    }

    #[test]
    fn coefficient_change_dirties_ppc_and_settings_frames() {
        let ch = PeChange {
            cell: (1, 2),
            old: mac(0.5, 1),
            new: mac(-1.25, 1),
        };
        let r = price_swap((4, 4), &[ch]);
        assert_eq!(r.dirty_pes, 1);
        assert!(r.ppc_frames > 0, "coefficient bits live in the PPC");
        assert_eq!(r.settings_frames, 1);
        assert!(r.port_time > Duration::ZERO);
        // Far below a full per-PE reconfiguration.
        assert!(r.port_time < full_config_cost(1));
    }

    #[test]
    fn counter_only_change_touches_settings_plane_only() {
        let ch = PeChange {
            cell: (0, 0),
            old: mac(0.5, 1),
            new: mac(0.5, 16),
        };
        let r = price_swap((4, 4), &[ch]);
        assert_eq!(r.dirty_pes, 1);
        assert_eq!(r.ppc_frames, 0, "the datapath does not see the counter");
        assert_eq!(r.settings_frames, 1);
    }

    #[test]
    fn column_stripe_shares_one_settings_frame() {
        let changes: Vec<PeChange> = (0..4)
            .map(|r| PeChange {
                cell: (r, 1),
                old: mac(1.0, 1),
                new: mac(2.0, 1),
            })
            .collect();
        let r = price_swap((4, 4), &changes);
        assert_eq!(r.dirty_pes, 4);
        assert_eq!(r.settings_frames, 1, "one column stripe, one frame");
    }

    #[test]
    fn full_config_reproduces_paper_estimate() {
        let ms = full_config_cost(1).as_secs_f64() * 1e3;
        assert!((ms - 251.0).abs() < 1.0, "got {ms:.1} ms per PE");
    }
}
