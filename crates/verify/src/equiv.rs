//! Equivalence checking between a source AIG and its mapped design
//! (absorbed from `mapping::verify`); callers run it through
//! [`crate::Verifier::verify_equivalence`].
//!
//! For a set of parameter assignments (always including all-zeros and
//! all-ones, plus random draws), the mapped design is specialized and
//! bit-parallel simulated against the AIG with the same parameters folded
//! to constants. This validates the *entire* parameterized flow: PTT
//! computation, TLUT extraction, TCON covers and the specialization logic.

use logic::aig::{Aig, InputKind};
use logic::fxhash::FxHashMap;
use logic::rng::SplitMix64;
use logic::sim::simulate_u64;
use mapping::MappedDesign;

/// Checks AIG-vs-mapped equivalence over `param_draws` random parameter
/// assignments (plus the two constant corner assignments), with 4 batches of
/// 64 random regular patterns each. Returns a human-readable error on the
/// first mismatch.
pub(crate) fn check_equivalent(
    aig: &Aig,
    design: &MappedDesign,
    param_draws: usize,
    seed: u64,
) -> Result<(), String> {
    let mut rng = SplitMix64::new(seed);
    let np = design.param_names.len();

    // Map param name -> AIG input index, for folding.
    let mut param_aig_idx: FxHashMap<&str, u32> = FxHashMap::default();
    for (idx, info) in aig.inputs().iter().enumerate() {
        if info.kind == InputKind::Param {
            param_aig_idx.insert(info.name.as_str(), idx as u32);
        }
    }

    let mut assignments: Vec<Vec<bool>> = vec![vec![false; np], vec![true; np]];
    for _ in 0..param_draws {
        assignments.push((0..np).map(|_| rng.coin()).collect());
    }

    for params in &assignments {
        // Fold parameters in the AIG (only those the design knows about).
        let mut fold: FxHashMap<u32, bool> = FxHashMap::default();
        for (v, name) in design.param_names.iter().enumerate() {
            let idx = *param_aig_idx
                .get(name.as_str())
                .ok_or_else(|| format!("parameter {name} missing in AIG"))?;
            fold.insert(idx, params[v]);
        }
        let spec_aig = aig.specialize(&fold);
        let spec_map = design.specialize(params);

        // Regular input order must agree (mapper preserves AIG order).
        let n_reg = design.input_names.len();
        if spec_aig.num_inputs() != n_reg {
            return Err(format!(
                "input count mismatch: AIG {} vs mapped {}",
                spec_aig.num_inputs(),
                n_reg
            ));
        }
        for round in 0..4 {
            let words: Vec<u64> = (0..n_reg).map(|_| rng.next_u64()).collect();
            let oa = simulate_u64(&spec_aig, &words);
            let om = spec_map.simulate(&words);
            for (i, ((name, _), (&wa, &wm))) in aig
                .outputs()
                .iter()
                .zip(oa.iter().zip(om.iter()))
                .enumerate()
            {
                if wa != wm {
                    return Err(format!(
                        "output {i} ({name}) differs for params {params:?} round {round}: \
                         aig={wa:#018x} mapped={wm:#018x}"
                    ));
                }
            }
        }
    }
    Ok(())
}
