//! The runtime's modeled **time axis**: reconfiguration phases scheduled
//! as intervals on per-band lanes sharing one configuration port.
//!
//! The [`Ledger`](crate::Ledger) *sums* modeled port time — an upper
//! bound that pretends every reconfiguration serializes behind every
//! other one. The paper's virtual overlay enables better: each leased
//! band is an independent region, so while the configuration port
//! streams one band's bitstream, another band can rewrite itself from an
//! image the grid already holds (Kim et al.'s resource-sharing argument:
//! overlapping reconfiguration with other work is the domain-specific
//! win). The [`Timeline`] models exactly that:
//!
//! - every band (a `(grid, row0)` lease) is a **lane**; phases on one
//!   lane serialize (a band's configuration is rewritten by one phase at
//!   a time), phases on different lanes overlap freely;
//! - **host→fabric port phases** ([`Phase::Admission`], [`Phase::Swap`])
//!   additionally serialize on the single configuration port — the
//!   HWICAP/MST-AXI interface streams one bitstream at a time;
//! - **grid-local replays** ([`Phase::Switch`], [`Phase::Replay`]) re-emit
//!   an image the grid already holds (a context switch re-activates a
//!   resident tenant's configuration; a compaction replay re-writes a
//!   cached image at a new row offset), so they occupy only their own
//!   lane and overlap both the port and other lanes.
//!
//! Every interval is modeled port time: execution has no phase (its
//! host latency is the trace's `execute` span), so the axis depends on
//! the sequence of operations alone, never on the host that ran them.
//!
//! Scheduling is greedy and deterministic: each phase starts at its
//! lane's free time (port phases: also no earlier than the port's free
//! time) — event order *is* program order, so replaying the same
//! operations yields the same axis bit-for-bit.
//!
//! The timeline only schedules: it holds the lane cursors, the port
//! cursor and a window of the most recent intervals — at least the last
//! [`WINDOW`], never `2 × WINDOW` — so a process that runs for ever keeps
//! a bounded log. The modeled totals (each phase's port time, the
//! makespan, the time the overlap saves) are the
//! [`Ledger`](crate::Ledger)'s alone; its one writer, `Runtime::charge`,
//! books a charge there and schedules it here.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::pool::TenantId;

/// How many of the most recent intervals the log is sure to keep. It
/// drops its oldest `WINDOW` once it holds `2 × WINDOW`.
pub const WINDOW: usize = 1024;

/// A band lane: the `(grid, row0)` pair identifying a leased row band.
pub type Lane = (usize, usize);

/// What a scheduled interval models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Initial full configuration of an admitted tenant (host→fabric).
    Admission,
    /// Micro-reconfiguration parameter swap: dirty frames only
    /// (host→fabric).
    Swap,
    /// Time-share context switch: re-activating a resident tenant's
    /// configuration from the grid-local image (lane-local).
    Switch,
    /// Compaction replay: re-writing a relocated band's cached
    /// configuration at its new row offset (lane-local).
    Replay,
}

impl Phase {
    /// True for phases that stream through the single host→fabric
    /// configuration port and therefore serialize against each other.
    pub fn uses_port(self) -> bool {
        matches!(self, Phase::Admission | Phase::Swap)
    }

    /// Stable lower-case name (snapshots, traces, reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::Swap => "swap",
            Phase::Switch => "switch",
            Phase::Replay => "replay",
        }
    }
}

/// One scheduled interval on the time axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// The band lane the interval occupies.
    pub lane: Lane,
    /// What the interval models.
    pub phase: Phase,
    /// The tenant the phase serves, when attributable.
    pub tenant: Option<TenantId>,
    /// Modeled start time (zero = runtime construction).
    pub start: Duration,
    /// Modeled duration (always non-zero: zero-length phases are not
    /// recorded).
    pub dur: Duration,
}

impl Interval {
    /// Modeled end time.
    pub fn end(&self) -> Duration {
        self.start + self.dur
    }
}

/// The modeled time axis: per-lane cursors, one port cursor, and the
/// window of recent intervals. See the module docs for the scheduling
/// rules.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    intervals: Vec<Interval>,
    /// Next free time per lane. A lane absent from the map is free at
    /// zero. Cursors only ever advance (see `Timeline::move_lane`), so
    /// intervals on one lane are always serialized.
    lane_free: BTreeMap<Lane, Duration>,
    /// Next free time of the configuration port.
    port_free: Duration,
}

impl Timeline {
    /// An empty axis: every lane and the port free at time zero.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Schedules `dur` of `phase` on `lane`, returning the modeled start
    /// time. Zero durations return the would-be start without recording
    /// an interval (nothing happened; an empty interval would only trip
    /// the disjointness checker's bookkeeping).
    pub fn schedule(
        &mut self,
        lane: Lane,
        phase: Phase,
        tenant: Option<TenantId>,
        dur: Duration,
    ) -> Duration {
        let lane_cursor = self.lane_free.get(&lane).copied().unwrap_or(Duration::ZERO);
        let start = if phase.uses_port() {
            lane_cursor.max(self.port_free)
        } else {
            lane_cursor
        };
        if dur.is_zero() {
            return start;
        }
        let end = start + dur;
        self.lane_free.insert(lane, end);
        if phase.uses_port() {
            self.port_free = end;
        }
        self.intervals.push(Interval {
            lane,
            phase,
            tenant,
            start,
            dur,
        });
        if self.intervals.len() == 2 * WINDOW {
            self.intervals.drain(..WINDOW);
        }
        start
    }

    /// Moves a lane (compaction relocation), ahead of the `replay`-long
    /// [`Phase::Replay`] the caller schedules on `to` next: the `from`
    /// cursor merges into `to` (the band cannot be busier than the later
    /// of the two), which is where that replay will start.
    ///
    /// The replay does *not* block the configuration port: post-slide
    /// target rows are disjoint from whatever the port streams next, and
    /// the image is grid-resident — that overlap is precisely what the
    /// flat `compaction_port_time` sum fails to model.
    ///
    /// The vacated rows stay occupied until the move completes: the
    /// `from` cursor advances to the replay's end rather than resetting,
    /// so a band admitted there later cannot overlap the outgoing band's
    /// history. That keeps every lane's intervals serialized, which is
    /// what makes `max(per-lane busy) <= makespan` a theorem.
    pub fn move_lane(&mut self, from: Lane, to: Lane, replay: Duration) {
        let from_cursor = self.lane_free.get(&from).copied().unwrap_or(Duration::ZERO);
        let to_cursor = self.lane_free.get(&to).copied().unwrap_or(Duration::ZERO);
        let start = from_cursor.max(to_cursor);
        self.lane_free.insert(to, start);
        if from != to {
            self.lane_free.insert(from, start + replay);
        }
    }

    /// The window of recent intervals, in scheduling order: at least the
    /// last [`WINDOW`] scheduled (all of them, while fewer were), never
    /// `2 × WINDOW` or more.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// The log, whole: these tests read totals off it.
    fn log(tl: &Timeline) -> &[Interval] {
        let ivs = tl.intervals();
        assert!(ivs.len() < WINDOW, "the test outgrew the window");
        ivs
    }

    /// When the last logged interval ends.
    fn log_end(tl: &Timeline) -> Duration {
        log(tl).iter().map(Interval::end).max().unwrap_or_default()
    }

    /// Summed durations of the logged intervals `pick` selects.
    fn busy(tl: &Timeline, pick: impl Fn(&Interval) -> bool) -> Duration {
        log(tl).iter().filter(|iv| pick(iv)).map(|iv| iv.dur).sum()
    }

    /// Every phase laid end to end, less the log's end.
    fn saved(tl: &Timeline) -> Duration {
        busy(tl, |_| true) - log_end(tl)
    }

    #[test]
    fn port_phases_serialize_lane_phases_overlap() {
        let mut tl = Timeline::new();
        // Two admissions on different lanes share the one port: the
        // second starts when the first's stream ends.
        let a = tl.schedule((0, 0), Phase::Admission, Some(1), 10 * MS);
        let b = tl.schedule((0, 8), Phase::Admission, Some(2), 5 * MS);
        assert_eq!(a, Duration::ZERO);
        assert_eq!(b, 10 * MS);
        assert_eq!(log_end(&tl), 15 * MS);
        // Band (0,0) switches tenants while band (0,8) is still being
        // configured — full overlap, the axis's end unchanged until the
        // switch outruns the port stream.
        let s = tl.schedule((0, 0), Phase::Switch, Some(3), 4 * MS);
        assert_eq!(s, 10 * MS);
        assert_eq!(log_end(&tl), 15 * MS);
        assert_eq!(busy(&tl, |iv| iv.phase.uses_port()), 15 * MS);
        // Serialized story: 15 ms port + 4 ms switch = 19 ms; the axis
        // hides the switch entirely.
        assert_eq!(saved(&tl), 4 * MS);
    }

    #[test]
    fn lane_local_replay_overlaps_the_port() {
        let mut tl = Timeline::new();
        tl.schedule((0, 0), Phase::Admission, Some(1), 10 * MS);
        // A context switch on another band is grid-local: it does not
        // wait for the port.
        let s = tl.schedule((0, 8), Phase::Switch, Some(2), 3 * MS);
        assert_eq!(s, Duration::ZERO);
        assert_eq!(log_end(&tl), 10 * MS);
        assert_eq!(busy(&tl, |_| true), 13 * MS);
        assert_eq!(saved(&tl), 3 * MS);
        // But the port *is* still serialized against the same lane: an
        // admission onto (0,8) waits for the switch.
        let a = tl.schedule((0, 8), Phase::Admission, Some(3), 2 * MS);
        assert_eq!(a, 10 * MS, "port free at 10ms >= lane free at 3ms");
    }

    #[test]
    fn relocate_merges_cursors_and_replays_on_the_new_lane() {
        let mut tl = Timeline::new();
        tl.schedule((0, 6), Phase::Switch, Some(1), 8 * MS);
        tl.schedule((0, 0), Phase::Switch, Some(2), 2 * MS);
        // Band at row 6 slides to row 0: the replay cannot start before
        // either the band's own history (8 ms) or the target lane's
        // (2 ms).
        tl.move_lane((0, 6), (0, 0), 3 * MS);
        let start = tl.schedule((0, 0), Phase::Replay, Some(1), 3 * MS);
        assert_eq!(start, 8 * MS);
        assert_eq!(log_end(&tl), 11 * MS);
        // The vacated rows stay occupied until the move completes: a new
        // band at row 6 cannot overlap the outgoing band's history.
        let a = tl.schedule((0, 6), Phase::Switch, Some(3), MS);
        assert_eq!(a, 11 * MS, "row 6 frees when the replay ends");
    }

    #[test]
    fn zero_durations_are_not_recorded() {
        let mut tl = Timeline::new();
        let start = tl.schedule((0, 0), Phase::Swap, Some(1), Duration::ZERO);
        assert_eq!(start, Duration::ZERO);
        assert!(tl.intervals().is_empty());
    }

    #[test]
    fn overlap_saved_is_monotone() {
        let mut tl = Timeline::new();
        let mut prev = Duration::ZERO;
        let phases = [Phase::Admission, Phase::Switch, Phase::Swap, Phase::Replay];
        for i in 0..40u64 {
            let lane = (0, (i % 3) as usize * 4);
            let phase = phases[(i % 4) as usize];
            tl.schedule(lane, phase, Some(i), Duration::from_millis(1 + i % 7));
            let saved = saved(&tl);
            assert!(saved >= prev, "overlap_saved regressed at step {i}");
            prev = saved;
        }
    }

    #[test]
    fn makespan_bounds() {
        let mut tl = Timeline::new();
        tl.schedule((0, 0), Phase::Admission, Some(1), 10 * MS);
        tl.schedule((1, 0), Phase::Admission, Some(2), 7 * MS);
        tl.schedule((0, 0), Phase::Switch, Some(1), 20 * MS);
        tl.schedule((1, 0), Phase::Switch, Some(2), 2 * MS);
        let end = log_end(&tl);
        for lane in [(0, 0), (1, 0)] {
            assert!(end >= busy(&tl, |iv| iv.lane == lane));
        }
        assert!(end >= busy(&tl, |iv| iv.phase.uses_port()));
        assert!(end <= busy(&tl, |_| true));
    }
}
