//! Micro-reconfiguration pricing for parameter-only changes.
//!
//! A warm parameter swap does what the paper's SCG does on the embedded
//! processor: evaluate the PE's PPC Boolean functions for the old and the
//! new settings, diff the specialized bits, and rewrite only the dirty
//! frames. The pricer owns one parameterized PE design (`mapping` +
//! `dcs::ParamConfig`) built lazily on first use — by default in a reduced
//! floating-point format so pricing stays interactive; the frame *counts*
//! it produces are a per-PE model, anchored against the paper's published
//! population through [`dcs::paper_pe_reconfig`].
//!
//! Two frame populations are priced per swap:
//!
//! * **PPC frames** — configuration frames of the PE datapath whose TLUT /
//!   TCON bits changed, from [`dcs::Scg::dirty_frames`];
//! * **settings frames** — the overlay's settings-register plane, addressed
//!   through [`fabric::frames::FrameModel::for_grid`]: PEs in the same
//!   column stripe share a frame, so a swap touching a whole column is one
//!   read-modify-write there.

use std::sync::OnceLock;
use std::time::Duration;

use dcs::{ParamConfig, ReconfigInterface, Scg};
use fabric::frames::FrameModel;
use fabric::Site;
use mapping::{map_parameterized, MapOptions, MappedDesign};
use softfloat::{FpFormat, FpValue};
use vcgra::{PeSettings, VirtualPe, VirtualPeConfig};

/// One PE whose settings change in a swap: region-local cell plus the old
/// and new settings-register content.
#[derive(Debug, Clone, Copy)]
pub struct PeChange {
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
#[derive(Debug, Clone, Copy, Default)]
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
    /// Measured host time evaluating the PPC Boolean functions.
    pub eval_time: Duration,
}

impl SwapReport {
    /// Total frames rewritten.
    pub fn frames(&self) -> usize {
        self.ppc_frames + self.settings_frames
    }
}

struct PricerModel {
    design: MappedDesign,
    config: ParamConfig,
    pe_cfg: VirtualPeConfig,
}

/// Lazily-built PPC pricer over one parameterized PE.
pub struct SettingsPricer {
    format: FpFormat,
    iface: ReconfigInterface,
    model: OnceLock<PricerModel>,
}

impl SettingsPricer {
    /// Creates a pricer; `format` is the floating-point format of the
    /// *pricing* PE (reduced formats price in well under a second; the
    /// trend matches the paper-scale PE).
    pub fn new(format: FpFormat, iface: ReconfigInterface) -> Self {
        SettingsPricer { format, iface, model: OnceLock::new() }
    }

    /// The configuration interface this pricer charges.
    pub fn interface(&self) -> ReconfigInterface {
        self.iface
    }

    fn model(&self) -> &PricerModel {
        self.model.get_or_init(|| {
            let pe_cfg = VirtualPeConfig { format: self.format, hops: 2 };
            let aig = logic::opt::sweep(&VirtualPe::build(pe_cfg, true).aig);
            let design = map_parameterized(&aig, MapOptions::default());
            let config = ParamConfig::extract(&design);
            PricerModel { design, config, pe_cfg }
        })
    }

    /// Converts overlay settings (in the application's format) into the
    /// pricing PE's parameter-bit vector.
    fn param_bits(&self, m: &PricerModel, s: &PeSettings) -> Vec<bool> {
        let coeff = FpValue::from_f64(s.coeff.to_f64(), m.pe_cfg.format);
        let scaled = PeSettings { coeff, counter: s.counter, mode: s.mode };
        scaled.to_param_bits(&m.pe_cfg)
    }

    /// Prices a parameter-only change over a set of PEs on one grid.
    ///
    /// `grid` is the physical grid shape hosting the cells (for the
    /// settings-plane frame model). Unchanged PEs (identical settings)
    /// contribute nothing — the SCG diff is empty and the settings word is
    /// identical, which is what makes the warm path cheap.
    pub fn price_swap(&self, grid: (usize, usize), changes: &[PeChange]) -> SwapReport {
        let m = self.model();
        let scg = Scg::new(&m.design, &m.config);
        let frame_model = FrameModel::for_grid(grid.0, grid.1);
        let mut report = SwapReport::default();
        let mut settings_frames = std::collections::BTreeSet::new();
        let t0 = std::time::Instant::now();
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
            let old_bits = self.param_bits(m, &ch.old);
            let new_bits = self.param_bits(m, &ch.new);
            if old_bits != new_bits {
                let old_spec = scg.specialize(&old_bits);
                let new_spec = scg.specialize(&new_bits);
                let dirty = scg.dirty_frames(&old_spec, &new_spec);
                report.ppc_frames += dirty.len();
                report.bits_changed += old_spec
                    .values
                    .iter()
                    .zip(&new_spec.values)
                    .filter(|(a, b)| a != b)
                    .count();
            }
            // The settings word (counter + coefficient image) lives in the
            // settings plane: one frame per column stripe.
            settings_frames.insert(frame_model.lut_frame(Site::Logic {
                x: ch.cell.1,
                y: ch.cell.0,
            }));
        }
        report.eval_time = t0.elapsed();
        report.settings_frames = settings_frames.len();
        report.port_time = dcs::timing::reconfig_cost(report.frames(), self.iface);
        report
    }

    /// Modeled port time to configure `pes` PEs from scratch (cold
    /// admission or a time-multiplexing context switch): the paper's
    /// full per-PE micro-reconfiguration, 251 ms each on HWICAP.
    pub fn full_config_cost(&self, pes: usize) -> Duration {
        let per_pe = dcs::paper_pe_reconfig(self.iface);
        per_pe * pes as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgra::PeMode;

    const F: FpFormat = FpFormat::PAPER;

    fn pricer() -> SettingsPricer {
        // Tiny pricing PE keeps the lazy build fast in debug tests.
        SettingsPricer::new(FpFormat::new(3, 4), ReconfigInterface::Hwicap)
    }

    fn mac(c: f64, counter: u32) -> PeSettings {
        PeSettings { coeff: FpValue::from_f64(c, F), counter, mode: PeMode::Mac }
    }

    #[test]
    fn identical_settings_price_to_zero() {
        let p = pricer();
        let ch = PeChange { cell: (0, 0), old: mac(0.5, 1), new: mac(0.5, 1) };
        let r = p.price_swap((4, 4), &[ch]);
        assert_eq!(r.dirty_pes, 0);
        assert_eq!(r.frames(), 0);
        assert_eq!(r.port_time, Duration::ZERO);
    }

    #[test]
    fn coefficient_change_dirties_ppc_and_settings_frames() {
        let p = pricer();
        let ch = PeChange { cell: (1, 2), old: mac(0.5, 1), new: mac(-1.25, 1) };
        let r = p.price_swap((4, 4), &[ch]);
        assert_eq!(r.dirty_pes, 1);
        assert!(r.ppc_frames > 0, "coefficient bits live in the PPC");
        assert_eq!(r.settings_frames, 1);
        assert!(r.port_time > Duration::ZERO);
        // Far below a full per-PE reconfiguration.
        assert!(r.port_time < p.full_config_cost(1));
    }

    #[test]
    fn counter_only_change_touches_settings_plane_only() {
        let p = pricer();
        let ch = PeChange { cell: (0, 0), old: mac(0.5, 1), new: mac(0.5, 16) };
        let r = p.price_swap((4, 4), &[ch]);
        assert_eq!(r.dirty_pes, 1);
        assert_eq!(r.ppc_frames, 0, "the datapath does not see the counter");
        assert_eq!(r.settings_frames, 1);
    }

    #[test]
    fn column_stripe_shares_one_settings_frame() {
        let p = pricer();
        let changes: Vec<PeChange> = (0..4)
            .map(|r| PeChange { cell: (r, 1), old: mac(1.0, 1), new: mac(2.0, 1) })
            .collect();
        let r = p.price_swap((4, 4), &changes);
        assert_eq!(r.dirty_pes, 4);
        assert_eq!(r.settings_frames, 1, "one column stripe, one frame");
    }

    #[test]
    fn full_config_reproduces_paper_estimate() {
        let p = pricer();
        let ms = p.full_config_cost(1).as_secs_f64() * 1e3;
        assert!((ms - 251.0).abs() < 1.0, "got {ms:.1} ms per PE");
    }
}
