//! Pass 2 — the wave-schedule race detector.
//!
//! **No producer.** This pass was written for a par-engine that routed
//! the members of a *wave* — dirty nets packed by **bounding-box
//! disjointness** — in parallel against one immutable congestion
//! snapshot, and recorded each member's footprint when asked to. The
//! router now reroutes a wave's members one after another on one thread
//! (`par::incr`) and records nothing, so only this module's own tests
//! and one mutation test call it; it is kept whole until it can be
//! deleted whole (ROADMAP, *Still open*). What it checks, on the
//! *actual* footprints of a wave:
//!
//! * `writes(N)` — every wire node whose occupancy N's rip-up or commit
//!   changes (the union of its old and new trees' wires);
//! * `reads(N)` — every node whose congestion state N's search evaluated
//!   (each `step_cost` operand).
//!
//! **Theorem.** A wave is equivalent to routing its members one at a time
//! (rip, route, commit, next) iff for every ordered member pair `A ≠ B`:
//! `reads(A) ∩ writes(B) = ∅`. Under sequential processing, B's rip and
//! commit precede A only in one of the two orders; if A never evaluates a
//! node B writes, A's search sees identical costs either way, and
//! identical costs with a deterministic search mean an identical tree.
//! Write/write disjointness is also checked (a pair of commits claiming
//! one wire would silently create overuse the snapshot never saw).
//!
//! The check runs **incrementally** via [`WaveAuditor`] — one wave's
//! footprints at a time — so the full (6,26) PE audit holds one wave in
//! memory, not the whole route.

use crate::{Violation, VerifyReport};
use logic::fxhash::FxHashMap;

/// One wave member's touched-node footprint.
#[derive(Debug, Clone, Default)]
pub struct WaveFootprint {
    /// The net (index into the netlist).
    pub net: u32,
    /// Nodes whose congestion state the member's search evaluated.
    pub reads: Vec<u32>,
    /// Wire nodes the member's rip-up or commit writes.
    pub writes: Vec<u32>,
}

/// Checks one wave's members for pairwise read/write and write/write
/// disjointness. `iteration`/`wave` only label the violations.
pub fn check_wave(iteration: usize, wave: usize, members: &[WaveFootprint]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut writer: FxHashMap<u32, u32> = FxHashMap::default();
    for m in members {
        for &node in &m.writes {
            if let Some(&other) = writer.get(&node) {
                if other != m.net {
                    out.push(Violation::WaveRace {
                        iteration,
                        wave,
                        nets: (other, m.net),
                        node,
                        write_write: true,
                    });
                }
            } else {
                writer.insert(node, m.net);
            }
        }
    }
    for m in members {
        for &node in &m.reads {
            if let Some(&other) = writer.get(&node) {
                if other != m.net {
                    out.push(Violation::WaveRace {
                        iteration,
                        wave,
                        nets: (m.net, other),
                        node,
                        write_write: false,
                    });
                }
            }
        }
    }
    out
}

/// Incremental accumulator over a whole route: feed it every wave, read
/// the [`VerifyReport`] at the end.
#[derive(Debug)]
pub struct WaveAuditor {
    /// PathFinder iterations observed (highest iteration index + 1).
    pub iterations: usize,
    /// Waves observed.
    pub waves: usize,
    /// Wave members observed (= net route operations audited).
    pub members: usize,
    /// Footprint nodes examined.
    pub nodes_checked: usize,
    violations: Vec<Violation>,
    started: std::time::Instant,
}

impl Default for WaveAuditor {
    fn default() -> Self {
        Self::new()
    }
}

impl WaveAuditor {
    /// Creates an empty auditor (starts the pass clock).
    pub fn new() -> Self {
        WaveAuditor {
            iterations: 0,
            waves: 0,
            members: 0,
            nodes_checked: 0,
            violations: Vec::new(),
            started: std::time::Instant::now(),
        }
    }

    /// Checks one wave and folds its result into the running report.
    pub fn observe_wave(&mut self, iteration: usize, members: &[WaveFootprint]) {
        self.iterations = self.iterations.max(iteration + 1);
        let wave = self.waves;
        self.waves += 1;
        self.members += members.len();
        self.nodes_checked +=
            members.iter().map(|m| m.reads.len() + m.writes.len()).sum::<usize>();
        self.violations.extend(check_wave(iteration, wave, members));
    }

    /// Violations found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Finishes the pass. `checked` counts waves.
    pub fn finish(self) -> VerifyReport {
        VerifyReport {
            pass: "wave-schedule",
            checked: self.waves,
            violations: self.violations,
            seconds: self.started.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(net: u32, reads: &[u32], writes: &[u32]) -> WaveFootprint {
        WaveFootprint { net, reads: reads.to_vec(), writes: writes.to_vec() }
    }

    #[test]
    fn disjoint_wave_is_clean() {
        let v = check_wave(0, 0, &[fp(0, &[1, 2, 3], &[2, 3]), fp(1, &[10, 11], &[11])]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn write_write_overlap_is_a_race() {
        let v = check_wave(2, 1, &[fp(0, &[], &[5]), fp(1, &[], &[5])]);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::WaveRace { iteration: 2, wave: 1, node: 5, write_write: true, .. }
        ));
    }

    #[test]
    fn read_of_anothers_write_is_a_race() {
        let v = check_wave(0, 0, &[fp(0, &[7], &[1]), fp(1, &[2], &[7])]);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::WaveRace { node: 7, write_write: false, .. })));
    }

    #[test]
    fn own_reads_of_own_writes_are_fine() {
        let v = check_wave(0, 0, &[fp(3, &[1, 2], &[1, 2])]);
        assert!(v.is_empty());
    }

    #[test]
    fn auditor_accumulates() {
        let mut a = WaveAuditor::new();
        a.observe_wave(0, &[fp(0, &[1], &[1])]);
        a.observe_wave(0, &[fp(1, &[9], &[9]), fp(2, &[9], &[8])]);
        a.observe_wave(1, &[fp(0, &[4], &[4])]);
        assert_eq!(a.waves, 3);
        assert_eq!(a.members, 4);
        let rep = a.finish();
        assert_eq!(rep.checked, 3);
        assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
    }
}
