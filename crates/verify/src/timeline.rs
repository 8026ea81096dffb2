//! Pass 2b — the **timeline checker**: proves the runtime's modeled time
//! axis is a well-formed schedule, not just a renamed sum.
//!
//! The runtime schedules every reconfiguration phase as an interval on a
//! per-band lane, with host→fabric phases additionally serialized on the
//! single configuration port. It does so with per-lane and port cursors;
//! this pass re-proves, by a different algorithm (sort and sweep) over a
//! plain-data [`TimelineSnapshot`], the two claims the cursors must
//! keep:
//!
//! 1. **Port exclusivity** — no two port intervals overlap: the
//!    HWICAP/MST-AXI interface streams one bitstream at a time
//!    ([`Violation::PortOverlap`]);
//! 2. **Lane exclusivity** — no two intervals on one band lane overlap:
//!    a band's configuration is rewritten by one phase at a time
//!    ([`Violation::LaneOverlap`]).
//!
//! The runtime keeps a bounded window of its most recent intervals, so
//! the snapshot holds that window, not the whole history: an overlap
//! between an interval inside it and one that already left it is out of
//! this pass's view. The modeled totals (summed port time, makespan,
//! overlap saved) are the runtime's `Ledger`'s alone, and the pass reads
//! none of them.
//!
//! Like every pass, the checker trusts nothing about how the snapshot
//! was produced: it recomputes overlaps from the raw intervals.

use crate::Violation;

/// One scheduled interval, exported as plain data (nanoseconds): what
/// the checks read and nothing else. The phase is reduced to whether it
/// streamed through the port, so the checker does not depend on the
/// runtime crate's `Phase` enum; which phase it was and whom it served
/// stay on the runtime's own intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSnap {
    /// The band lane, as `(grid, row0)`.
    pub lane: (usize, usize),
    /// True when the phase streamed through the configuration port.
    pub uses_port: bool,
    /// Modeled start, nanoseconds from runtime construction.
    pub start_ns: u64,
    /// Modeled duration, nanoseconds (non-zero by construction).
    pub dur_ns: u64,
}

impl PhaseSnap {
    /// Modeled end, nanoseconds.
    pub(crate) fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Plain-data export of the runtime's time axis: the window of recent
/// intervals it keeps.
#[derive(Debug, Clone, Default)]
pub struct TimelineSnapshot {
    /// The kept intervals, in scheduling order.
    pub intervals: Vec<PhaseSnap>,
}

/// Checks one timeline snapshot. Returns every violation found.
pub fn check_timeline(snap: &TimelineSnapshot) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Port exclusivity: sort the port intervals by start and require
    // each to begin no earlier than its predecessor's end.
    let mut port: Vec<&PhaseSnap> = snap.intervals.iter().filter(|iv| iv.uses_port).collect();
    port.sort_by_key(|iv| (iv.start_ns, iv.end_ns()));
    for pair in port.windows(2) {
        if pair[1].start_ns < pair[0].end_ns() {
            violations.push(Violation::PortOverlap {
                a: pair[0].lane,
                b: pair[1].lane,
                at_ns: pair[1].start_ns,
            });
        }
    }

    // Lane exclusivity: same sweep per lane, port and lane-local phases
    // alike.
    let mut by_lane: std::collections::BTreeMap<(usize, usize), Vec<&PhaseSnap>> =
        std::collections::BTreeMap::new();
    for iv in &snap.intervals {
        by_lane.entry(iv.lane).or_default().push(iv);
    }
    for (lane, mut ivs) in by_lane {
        ivs.sort_by_key(|iv| (iv.start_ns, iv.end_ns()));
        for pair in ivs.windows(2) {
            if pair[1].start_ns < pair[0].end_ns() {
                violations.push(Violation::LaneOverlap {
                    lane,
                    at_ns: pair[1].start_ns,
                });
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lane: (usize, usize), uses_port: bool, start_ns: u64, dur_ns: u64) -> PhaseSnap {
        PhaseSnap {
            lane,
            uses_port,
            start_ns,
            dur_ns,
        }
    }

    fn clean() -> TimelineSnapshot {
        TimelineSnapshot {
            intervals: vec![
                // Two admissions on the port, then a switch on each lane.
                iv((0, 0), true, 0, 100),
                iv((0, 8), true, 100, 50),
                iv((0, 0), false, 100, 200),
                iv((0, 8), false, 150, 30),
            ],
        }
    }

    #[test]
    fn clean_snapshot_passes() {
        assert!(check_timeline(&clean()).is_empty());
    }

    #[test]
    fn overlapping_port_intervals_are_rejected() {
        let mut snap = clean();
        snap.intervals[1].start_ns = 60; // inside the first admission
        snap.intervals[1].dur_ns = 90; // end unchanged: lane clean
        let violations = check_timeline(&snap);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::PortOverlap { at_ns: 60, .. })),
            "{violations:?}"
        );
    }

    #[test]
    fn overlapping_lane_intervals_are_rejected() {
        let mut snap = clean();
        // The switch starts while its own lane's admission still runs.
        snap.intervals[2].start_ns = 50;
        snap.intervals[2].dur_ns = 250;
        let violations = check_timeline(&snap);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::LaneOverlap {
                    lane: (0, 0),
                    at_ns: 50
                }
            )),
            "{violations:?}"
        );
    }

    #[test]
    fn empty_timeline_is_clean() {
        assert!(check_timeline(&TimelineSnapshot::default()).is_empty());
    }
}
