//! The width search's cold probes really do run beside its main sequence:
//! read from the `par.probe` spans, the one record of where a probe ran
//! (the result holds none, so `determinism.rs` can compare it whole). A
//! binary of its own, because the span recorder is process-global.

mod common;

use common::mul_netlist;
use trace::{AttrValue, Phase, TraceEvent};

/// What a `par.probe` span's end event says about its probe.
#[derive(Debug)]
struct ProbeSpan {
    width: usize,
    success: bool,
    confirm: bool,
    overlapped: bool,
}

fn probe_spans(events: &[TraceEvent]) -> Vec<ProbeSpan> {
    events
        .iter()
        .filter(|e| e.name == "par.probe" && e.phase == Phase::End)
        .map(|e| {
            let arg = |key| e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
            let flag = |key| arg(key) == Some(&AttrValue::Bool(true));
            let Some(&AttrValue::U64(width)) = arg("width") else {
                panic!("a probe span without its width: {e:?}")
            };
            ProbeSpan {
                width: width as usize,
                success: flag("success"),
                confirm: flag("confirm"),
                overlapped: flag("overlapped"),
            }
        })
        .collect()
}

/// What the speculative cold probe of a search must have gone through for
/// the case to test what it is listed for (read at two threads, one slot).
#[derive(Debug)]
enum Speculated {
    /// The floor certifies the minimum: no confirmation, nothing to take.
    Unused,
    /// The `W−1` probe ran beside the binary phase, failed, and was taken
    /// by the confirmation loop.
    Consumed,
    /// It *succeeded*: the search adopted the narrower result and went on
    /// certifying below it.
    Adopted,
    /// The search ended on a warm failure above the width in the slot:
    /// that probe was let go, and no row of it may appear.
    Cancelled,
}

/// The seven pinned searches at one and at two threads: one thread routes
/// nothing beside the search; at two, each case's speculative probe is
/// consumed, adopted or let go as listed.
#[test]
fn the_cold_certificate_runs_beside_the_search() {
    use Speculated::*;
    let listed = [
        Unused, Unused, Consumed, Consumed, Adopted, Adopted, Cancelled,
    ];
    trace::configure(trace::TraceConfig::On);
    for (case, speculated) in common::CASES.iter().zip(listed) {
        let at = format!("{case:?}, {speculated:?}");
        let nl = mul_netlist(case.0, case.1);
        trace::take_events();
        common::search(&nl, case, 1);
        let serial = probe_spans(&trace::take_events());
        assert!(!serial.is_empty(), "the probes were traced ({at})");
        assert!(
            serial.iter().all(|p| !p.overlapped),
            "one thread never speculates ({at})"
        );

        let search = common::search(&nl, case, 2);
        let spans = probe_spans(&trace::take_events());
        assert!(
            spans.iter().all(|p| p.confirm || !p.overlapped),
            "only a confirmation probe runs beside the search ({at})"
        );
        let beside = |width: usize, success: bool| {
            spans
                .iter()
                .any(|p| p.overlapped && p.width == width && p.success == success)
        };
        let confirm = |width: usize, success: bool| {
            search
                .probes
                .iter()
                .any(|p| p.confirm && p.width == width && p.success == success)
        };
        let w = search.min_width;
        match speculated {
            Unused => assert!(!search.probes.iter().any(|p| p.confirm), "{at}"),
            Consumed => assert!(confirm(w - 1, false) && beside(w - 1, false), "{at}"),
            Adopted => assert!(confirm(w, true) && beside(w, true), "{at}"),
            Cancelled => {
                // A warm failure below the final W−1 started a cold twin;
                // the search moved past it, and it left no cold row.
                let dropped = search
                    .probes
                    .iter()
                    .find(|p| !p.success && p.warm_nets > 0 && p.width + 1 < w)
                    .unwrap_or_else(|| panic!("no warm failure below W−1 ({at})"))
                    .width;
                assert!(
                    spans.iter().any(|p| p.overlapped && p.width == dropped),
                    "no speculation was let go ({at})"
                );
                assert!(
                    !search
                        .probes
                        .iter()
                        .any(|p| p.width == dropped && p.warm_nets == 0),
                    "a cancelled probe reached the log ({at})"
                );
            }
        }
    }
    trace::configure(trace::TraceConfig::Off);
}
