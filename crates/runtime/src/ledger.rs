//! The runtime's accounting: the pool-wide [`Ledger`] and `charge`, the
//! one call that books modeled time. A tenant's share is not kept apart:
//! its switches are its `TenantRun::context_switches` and, with its
//! relocations, the time axis's intervals tagged with its id.

use std::time::Duration;

use crate::pool::TenantId;
use crate::runtime::Runtime;
use crate::timeline::{Lane, Phase};

/// Pool-wide accounting: counts and modeled port cost.
///
/// This struct is the state, not a report of it: the runtime owns one
/// `Ledger` and every counter is incremented here, where it is read. The
/// durations — the four `*_port_time` fields, `modeled_makespan` and
/// `overlap_saved` — are all modeled, kept here and nowhere else, and
/// have a single writer, `Runtime::charge`, which also schedules the
/// same `Duration` on the time axis (a scheduler that keeps no total;
/// `tests/wall_clock_scan.rs` keeps every other runtime source off these
/// fields). No host time is kept here: the same operations give the
/// same ledger on any host and at any worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// Submissions refused at the door because the graph is malformed
    /// (`AppGraph::validate`).
    pub refused: usize,
    /// Admissions that compiled.
    pub cold_compiles: usize,
    /// Admissions served from the configuration cache.
    pub warm_admissions: usize,
    /// Modeled port time of initial configurations.
    pub admission_port_time: Duration,
    /// Submissions that entered the admission queue.
    pub queued: usize,
    /// Queued submissions later placed by a drain.
    pub queue_admitted: usize,
    /// Queued submissions dropped because placement failed terminally
    /// (too big for any grid, or the compile failed).
    pub queue_dropped: usize,
    /// Queued submissions cancelled by `release` before being placed
    /// (`queued == queue_admitted + queue_dropped + queue_cancelled +`
    /// the current queue depth, always).
    pub queue_cancelled: usize,
    /// Compaction events (each may relocate several bands).
    pub compactions: usize,
    /// Bands relocated across all compactions.
    pub relocated_bands: usize,
    /// Modeled port time replaying relocated bands' configurations.
    pub compaction_port_time: Duration,
    /// Parameter swaps.
    pub swaps: usize,
    /// Frames rewritten by swaps.
    pub swap_frames: usize,
    /// Modeled port time of swaps.
    pub swap_port_time: Duration,
    /// Context switches across all shared bands.
    pub context_switches: usize,
    /// Modeled port time of context switches.
    pub switch_port_time: Duration,
    /// Input vectors executed.
    pub items: usize,
    /// Modeled makespan of the time axis: when the last scheduled
    /// phase ends, with one band's reconfiguration overlapped against
    /// other bands' (see [`crate::timeline`]). At most the fully
    /// serialized story, [`Ledger::total_port_time`], and strictly less
    /// whenever some phase overlaps another.
    pub modeled_makespan: Duration,
    /// Time the overlap model saves over the fully serialized story:
    /// `total_port_time() − modeled_makespan`. Monotone nondecreasing.
    pub overlap_saved: Duration,
}

impl Ledger {
    /// Total modeled configuration-port time (admissions + swaps +
    /// context switches + compaction replays) — the "reconfiguration
    /// cost" side of Section V. This is the *flat sum*: every charge
    /// laid end to end. [`Ledger::modeled_makespan`] is what the same
    /// charges cost on the scheduled time axis.
    pub fn total_port_time(&self) -> Duration {
        self.admission_port_time
            + self.swap_port_time
            + self.switch_port_time
            + self.compaction_port_time
    }
}

impl Runtime {
    /// Books `dur` of `phase` on `lane`: adds it to the ledger field the
    /// phase names, schedules the same duration on the time axis, and
    /// extends the makespan to the interval's end. Returns the interval's
    /// modeled start.
    ///
    /// Where each phase lands: an admission or a swap streams host→fabric
    /// and takes an exclusive slot on the configuration port, serialized
    /// behind whatever the port is already streaming; a context switch and
    /// a compaction replay occupy only their band's lane, so other bands'
    /// reconfigurations overlap them freely — the gap between the makespan
    /// and the summed port time the axis exists to model.
    pub(crate) fn charge(
        &mut self,
        lane: Lane,
        phase: Phase,
        tenant: Option<TenantId>,
        dur: Duration,
    ) -> Duration {
        let ledger = &mut self.ledger;
        *match phase {
            Phase::Admission => &mut ledger.admission_port_time,
            Phase::Swap => &mut ledger.swap_port_time,
            Phase::Switch => &mut ledger.switch_port_time,
            Phase::Replay => &mut ledger.compaction_port_time,
        } += dur;
        let start = self.timeline.schedule(lane, phase, tenant, dur);
        // Every lane and port cursor is at or below the makespan, so a
        // zero-length charge leaves it where it was.
        ledger.modeled_makespan = ledger.modeled_makespan.max(start + dur);
        let saved = ledger
            .total_port_time()
            .saturating_sub(ledger.modeled_makespan);
        debug_assert!(saved >= ledger.overlap_saved, "overlap_saved regressed");
        ledger.overlap_saved = saved;
        start
    }
}
