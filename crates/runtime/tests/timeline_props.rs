//! Property suite for the modeled time axis.
//!
//! Two layers:
//!
//! * **pure timeline** — random phase schedules (with relocations)
//!   straight into [`Timeline`], asserting after every step, on totals
//!   derived from the interval log, the bounds that make the makespan
//!   *honest*: `max(per-lane busy) <= makespan <= serialized`, where
//!   `serialized` — every interval laid end to end — is the summed port
//!   time (every interval is charged), `makespan >= port busy`, and the
//!   overlap saved monotone;
//! * **runtime-driven** — random admission / parameter-swap / release /
//!   run sequences through the real [`Runtime`], some admissions tall
//!   enough to compact a fragmented grid, asserting
//!   the same bounds on the live axis, the ledger's makespan and overlap
//!   against the log, and a clean timeline verify pass after every
//!   operation;
//! * **the window** — a schedule five windows long against an unbounded
//!   list of its own: the log stays bounded and is that list's tail.
//!
//! The log keeps the last [`WINDOW`] intervals at least, so the totals
//! above are whole only while a run schedules fewer: each test that
//! reads them asserts that its run fits.
//!
//! The proptest stand-in draws inputs from a per-test deterministic
//! stream, so failures reproduce bit-for-bit.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;
use runtime::timeline::{Interval, Lane, Phase, Timeline, WINDOW};
use runtime::{kernels, Admission, Runtime, RuntimeConfig, StreamRequest, TenantId};
use softfloat::{FpFormat, FpValue};
use vcgra::VcgraArch;

const F: FpFormat = FpFormat::PAPER;

/// Decodes a draw into a phase.
fn phase_of(kind: u8) -> Phase {
    match kind % 4 {
        0 => Phase::Admission,
        1 => Phase::Swap,
        2 => Phase::Switch,
        _ => Phase::Replay,
    }
}

/// The axis's totals from its interval log alone, after asserting the
/// bounds every schedule keeps: `(end, serialized)` — when the last
/// interval ends (the makespan), and every phase laid end to end (the
/// summed port time).
fn log_totals(tl: &Timeline, ctx: &str) -> (Duration, Duration) {
    let ivs = tl.intervals();
    assert!(ivs.len() < WINDOW, "{ctx}: the run outgrew the window");
    let sum = |pick: fn(&Interval) -> bool| ivs.iter().filter(|iv| pick(iv)).map(|iv| iv.dur).sum();
    let mut lanes: BTreeMap<_, Duration> = BTreeMap::new();
    for iv in ivs {
        *lanes.entry(iv.lane).or_default() += iv.dur;
    }
    let end = ivs.iter().map(Interval::end).max().unwrap_or_default();
    let busiest = lanes.into_values().max().unwrap_or_default();
    let (port, serialized): (Duration, Duration) = (sum(|iv| iv.phase.uses_port()), sum(|_| true));
    assert!(
        end >= busiest,
        "{ctx}: makespan {end:?} < busiest lane {busiest:?}"
    );
    assert!(
        end >= port,
        "{ctx}: makespan {end:?} < port busy {port:?} (one port)"
    );
    assert!(
        end <= serialized,
        "{ctx}: makespan {end:?} > serialized {serialized:?}"
    );
    (end, serialized)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Random schedules: everything on the axis is charged, so the
    // makespan can never exceed the flat summed port time.
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
                tl.schedule(lane, phase_of(kind), None, Duration::from_millis(ms));
            }
            let (end, serialized) = log_totals(&tl, "reconfig-only");
            prop_assert!(serialized - end >= prev_saved, "overlap_saved must be monotone");
            prev_saved = serialized - end;
        }
    }

    // The real runtime under random admission / swap / release / run
    // churn: after every operation the live axis obeys
    // the bounds, the ledger's totals agree with its log exactly, and the
    // sched and timeline passes find zero violations.
    #[test]
    fn runtime_churn_keeps_an_honest_reconcilable_axis(
        ops in prop::collection::vec((any::<u8>(), 1u64..400), 1..24),
    ) {
        let mut rt = Runtime::new(RuntimeConfig {
            grids: vec![VcgraArch::new(6, 4, 2), VcgraArch::new(4, 4, 2)],
            ..RuntimeConfig::default()
        });
        let mut live: Vec<TenantId> = Vec::new();
        for (i, (kind, seed)) in ops.into_iter().enumerate() {
            match kind % 6 {
                // Admit a seeded FIR (may queue or time-share): a small
                // one, or a 4-row one that compacts a grid whose free rows
                // are fragmented.
                0 | 1 | 4 => {
                    let taps = if kind % 6 == 4 { 8 } else { 2 + (seed % 5) as usize };
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
                // Stream a few vectors (may add a Switch interval).
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
                    }
                }
            }
            let (end, charged) = log_totals(rt.timeline(), "runtime churn");
            let ledger = rt.ledger();
            prop_assert_eq!(
                ledger.modeled_makespan,
                end,
                "the ledger's makespan is where the interval log ends"
            );
            prop_assert_eq!(
                ledger.overlap_saved,
                ledger.total_port_time() - ledger.modeled_makespan,
                "overlap saved is the serialized story less the makespan"
            );
            prop_assert_eq!(
                charged,
                ledger.total_port_time(),
                "charged axis time must reconcile with the flat port sum"
            );
            let report = rt.verify_all();
            prop_assert!(report.violations.is_empty(), "sched+timeline: {:?}", report.violations);
        }
    }
}

/// A schedule five windows long, relocations included, against a list of
/// its own that keeps every interval from `schedule`'s returned starts:
/// after every step the log holds fewer than `2 × WINDOW` intervals, at
/// least the last `WINDOW` (all of them before that many), and is exactly
/// the list's tail.
#[test]
fn the_log_is_a_bounded_tail_of_the_schedule() {
    let mut tl = Timeline::new();
    let mut all: Vec<(Lane, Phase, Duration, Duration)> = Vec::new();
    let mut draw = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        draw ^= draw << 13;
        draw ^= draw >> 7;
        draw ^= draw << 17;
        draw
    };
    while all.len() < 5 * WINDOW {
        let (d, lane_draw) = (next(), next());
        let lane = ((lane_draw % 3) as usize, ((lane_draw / 3) % 4) as usize * 4);
        let dur = Duration::from_micros(1 + d % 997);
        if d % 16 == 15 {
            let to = ((lane_draw % 3) as usize, ((lane_draw / 7) % 4) as usize * 4);
            tl.move_lane(lane, to, dur);
            let start = tl.schedule(to, Phase::Replay, None, dur);
            all.push((to, Phase::Replay, start, dur));
        } else {
            let phase = phase_of(d as u8);
            let start = tl.schedule(lane, phase, None, dur);
            all.push((lane, phase, start, dur));
        }
        let log = tl.intervals();
        assert!(log.len() < 2 * WINDOW, "the log outgrew 2 × WINDOW");
        assert!(
            log.len() >= all.len().min(WINDOW),
            "the log lost recent intervals"
        );
        let tail = &all[all.len() - log.len()..];
        let kept: Vec<_> = log
            .iter()
            .map(|iv| (iv.lane, iv.phase, iv.start, iv.dur))
            .collect();
        assert_eq!(kept, tail, "the log is the schedule's tail");
    }
}
