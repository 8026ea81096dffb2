//! Property suite for the modeled time axis.
//!
//! Two layers:
//!
//! * **pure timeline** — random phase schedules (with relocations)
//!   straight into [`Timeline`], asserting after every step the bounds
//!   that make the makespan *honest*:
//!   `max(per-lane busy) <= makespan <= serialized`, `makespan >=
//!   port_busy`, `overlap_saved` monotone, and — on execute-free
//!   schedules — `makespan <= charged`, the ISSUE's literal
//!   "never exceeds summed port time" bound (execute intervals can
//!   legitimately push a lane's later port phase past the flat port sum,
//!   which is why the general bound is `serialized`, not `charged`);
//! * **runtime-driven** — random admission / parameter-swap / release /
//!   compaction / run sequences through the real [`Runtime`], asserting
//!   the same bounds on the live axis plus a clean timeline verify pass
//!   and exact ledger reconciliation after every operation.
//!
//! The proptest stand-in draws inputs from a per-test deterministic
//! stream, so failures reproduce bit-for-bit.

use std::time::Duration;

use proptest::prelude::*;
use runtime::timeline::{Phase, Timeline};
use runtime::{kernels, Admission, Runtime, RuntimeConfig, StreamRequest, TenantId};
use softfloat::{FpFormat, FpValue};
use vcgra::VcgraArch;

const F: FpFormat = FpFormat::PAPER;

/// Decodes a draw into a phase; `allow_exec` gates [`Phase::Execute`]
/// out of execute-free schedules.
fn phase_of(kind: u8, allow_exec: bool) -> Phase {
    match kind % if allow_exec { 5 } else { 4 } {
        0 => Phase::Admission,
        1 => Phase::Swap,
        2 => Phase::Switch,
        3 => Phase::Replay,
        _ => Phase::Execute,
    }
}

/// Asserts every bound the axis promises, given the busiest lane.
fn assert_bounds(tl: &Timeline, ctx: &str) {
    let max_lane = tl.lane_busy().into_values().max().unwrap_or(Duration::ZERO);
    assert!(
        tl.makespan() >= max_lane,
        "{ctx}: makespan {:?} < busiest lane {:?}",
        tl.makespan(),
        max_lane
    );
    assert!(
        tl.makespan() >= tl.port_busy(),
        "{ctx}: makespan {:?} < port busy {:?} (the port is a single resource)",
        tl.makespan(),
        tl.port_busy()
    );
    assert!(
        tl.makespan() <= tl.serialized(),
        "{ctx}: makespan {:?} > serialized {:?} (overlap can only save time)",
        tl.makespan(),
        tl.serialized()
    );
    let summed: Duration = tl.intervals().iter().filter(|iv| iv.phase.charged()).map(|iv| iv.dur).sum();
    assert_eq!(tl.charged(), summed, "{ctx}: running charged sum drifted from the interval log");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Execute-free random schedules: everything on the axis is charged,
    // so the makespan can never exceed the flat summed port time.
    #[test]
    fn reconfig_only_makespan_never_exceeds_summed_port_time(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), 1u64..40), 1..80),
    ) {
        let mut tl = Timeline::new();
        let mut prev_saved = Duration::ZERO;
        for (kind, lane_draw, ms) in ops {
            let lane = ((lane_draw % 3) as usize, ((lane_draw / 3) % 4) as usize * 4);
            if kind % 16 == 15 {
                let to = ((lane_draw % 3) as usize, ((lane_draw / 7) % 4) as usize * 4);
                let replay = Duration::from_millis(ms);
                tl.move_lane(lane, to, replay);
                tl.schedule(to, Phase::Replay, None, replay);
            } else {
                tl.schedule(lane, phase_of(kind, false), None, Duration::from_millis(ms));
            }
            assert_bounds(&tl, "reconfig-only");
            prop_assert!(
                tl.makespan() <= tl.charged(),
                "execute-free: makespan {:?} must not exceed summed port time {:?}",
                tl.makespan(),
                tl.charged()
            );
            prop_assert!(tl.overlap_saved() >= prev_saved, "overlap_saved must be monotone");
            prev_saved = tl.overlap_saved();
        }
    }

    // Mixed schedules with execution: the general sandwich
    // `max(lane busy) <= makespan <= charged + exec` holds throughout.
    #[test]
    fn mixed_schedules_keep_the_makespan_sandwich(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), 1u64..40), 1..80),
    ) {
        let mut tl = Timeline::new();
        let mut prev_saved = Duration::ZERO;
        for (kind, lane_draw, ms) in ops {
            let lane = ((lane_draw % 3) as usize, ((lane_draw / 3) % 4) as usize * 4);
            if kind % 16 == 15 {
                let to = ((lane_draw % 3) as usize, ((lane_draw / 7) % 4) as usize * 4);
                let replay = Duration::from_millis(ms);
                tl.move_lane(lane, to, replay);
                tl.schedule(to, Phase::Replay, None, replay);
            } else {
                tl.schedule(lane, phase_of(kind, true), None, Duration::from_millis(ms));
            }
            assert_bounds(&tl, "mixed");
            prop_assert!(tl.overlap_saved() >= prev_saved, "overlap_saved must be monotone");
            prev_saved = tl.overlap_saved();
        }
    }

    // The real runtime under random admission / swap / release /
    // compaction / run churn: after every operation the live axis obeys
    // the bounds, the ledger mirrors it exactly, and the verify pass
    // finds zero violations.
    #[test]
    fn runtime_churn_keeps_an_honest_reconcilable_axis(
        ops in prop::collection::vec((any::<u8>(), 1u64..400), 1..24),
    ) {
        let mut rt = Runtime::new(RuntimeConfig {
            grids: vec![VcgraArch::new(6, 4, 2), VcgraArch::new(4, 4, 2)],
            ..RuntimeConfig::default()
        });
        let mut live: Vec<TenantId> = Vec::new();
        let mut ran = false;
        for (i, (kind, seed)) in ops.into_iter().enumerate() {
            match kind % 6 {
                // Admit a small seeded FIR (may queue or time-share).
                0 | 1 => {
                    let taps = 2 + (seed % 5) as usize;
                    let adm = rt.submit(format!("t{i}"), kernels::fir_seeded(F, taps, seed).graph)
                        .expect("submit");
                    if let Admission::Admitted(a) = adm {
                        live.push(a.tenant);
                    }
                }
                // Parameter swap on a pseudo-random live tenant.
                2 => {
                    if let Some(&t) = live.get(seed as usize % live.len().max(1)) {
                        let n = rt.tenant(t).expect("live").graph.coeff_nodes().len();
                        let coeffs: Vec<FpValue> = (0..n)
                            .map(|j| FpValue::from_f64((seed as f64 + j as f64) * 0.25, F))
                            .collect();
                        rt.swap_params(t, &coeffs).expect("swap");
                    }
                }
                // Release (drains the queue, may relocate bands).
                3 => {
                    if !live.is_empty() {
                        let t = live.remove(seed as usize % live.len());
                        for adm in rt.release(t).expect("release") {
                            live.push(adm.tenant);
                        }
                    }
                }
                // Background compaction into idle port windows.
                4 => {
                    rt.compact_background().expect("compact");
                }
                // Stream a few vectors (adds Execute/Switch intervals).
                _ => {
                    if let Some(&t) = live.get(seed as usize % live.len().max(1)) {
                        let n = rt.tenant(t).expect("live").graph.num_inputs;
                        let inputs: Vec<Vec<FpValue>> = (0..3)
                            .map(|v| {
                                (0..n)
                                    .map(|j| FpValue::from_f64((v + j) as f64 * 0.5, F))
                                    .collect()
                            })
                            .collect();
                        rt.run(vec![StreamRequest { tenant: t, inputs }]).expect("run");
                        ran = true;
                    }
                }
            }
            assert_bounds(rt.timeline(), "runtime churn");
            if !ran {
                // Until the first execution the axis is execute-free, so
                // the ISSUE's literal bound applies: modeled makespan
                // never exceeds the flat summed port time.
                prop_assert!(
                    rt.ledger().modeled_makespan <= rt.ledger().total_port_time(),
                    "exec-free prefix: makespan {:?} > summed port time {:?}",
                    rt.ledger().modeled_makespan,
                    rt.ledger().total_port_time()
                );
            }
            prop_assert_eq!(
                rt.ledger().modeled_makespan,
                rt.timeline().makespan(),
                "ledger gauge must mirror the axis"
            );
            prop_assert_eq!(
                rt.timeline().charged(),
                rt.ledger().total_port_time(),
                "charged axis time must reconcile with the flat port sum"
            );
            let report = rt.verify_timeline();
            prop_assert!(report.violations.is_empty(), "timeline pass: {:?}", report.violations);
        }
    }
}
