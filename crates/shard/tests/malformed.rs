//! A graph the runtime refuses at its door is refused the same way through
//! the shard tier: a typed error on the admission ticket, nothing leased,
//! and workers that go on answering. A runtime template the runtime
//! refuses is refused by `ShardServer::start` itself, before any worker
//! runs.

use runtime::{RuntimeConfig, RuntimeError};
use shard::{ShardConfig, ShardServer};
use softfloat::FpFormat;
use vcgra::app::{AppGraph, AppSource, GraphError};
use vcgra::flow::FlowError;
use vcgra::{PeMode, VcgraArch};

/// Formats `FpFormat::new` refuses, as literals the public fields allow:
/// no widths at all, both far too wide, a one-bit exponent, and double's
/// widths, which with the three flag bits need 66.
const BAD_FORMATS: [FpFormat; 4] = [
    FpFormat { we: 0, wf: 0 },
    FpFormat { we: 40, wf: 40 },
    FpFormat { we: 1, wf: 63 },
    FpFormat { we: 11, wf: 52 },
];

/// A two-input adder in `format`: it holds no value, so `AppGraph::add`
/// builds it in any format at all.
fn adder_in(format: FpFormat) -> AppGraph {
    let mut g = AppGraph::new(format, 2);
    let sum = g.add(
        PeMode::Add,
        None,
        AppSource::External(0),
        AppSource::External(1),
    );
    g.mark_output(sum);
    g
}

#[test]
fn a_format_new_refuses_is_refused_by_its_shard_which_still_drains() {
    let mut server = ShardServer::start(ShardConfig::new(2));
    for format in BAD_FORMATS {
        let (at, _, ticket) = server
            .submit("bad-format", adder_in(format))
            .expect("dispatch");
        assert_eq!(
            ticket.wait().unwrap_err(),
            RuntimeError::Flow(FlowError::Graph(GraphError::FormatOutOfRange { format })),
            "{format:?} on shard {}",
            at.shard
        );
    }
    let stats = server.drain(true).expect("every shard verifies clean");
    assert_eq!(
        stats.iter().map(|s| s.ledger.refused).sum::<usize>(),
        BAD_FORMATS.len()
    );
    for s in &stats {
        assert_eq!(
            (
                s.ledger.cold_compiles,
                s.ledger.warm_admissions,
                s.ledger.queued
            ),
            (0, 0, 0),
            "shard {} admitted or queued a refused graph",
            s.shard
        );
    }
    for last in server.shutdown() {
        assert!(last.verify.ok(), "{}", last.verify.summary());
    }
}

/// A template with no grids panics in the caller of `start`, not later
/// as a dead worker.
#[test]
#[should_panic(expected = "pool needs at least one grid")]
fn a_template_with_no_grids_is_refused_at_start() {
    ShardServer::start(ShardConfig {
        runtime: RuntimeConfig {
            grids: Vec::new(),
            ..RuntimeConfig::default()
        },
        ..ShardConfig::new(2)
    });
}

/// So does a template whose grids are of two overlay generations.
#[test]
#[should_panic(expected = "one channel capacity per pool")]
fn a_template_with_mixed_channel_capacities_is_refused_at_start() {
    ShardServer::start(ShardConfig {
        runtime: RuntimeConfig {
            grids: vec![VcgraArch::new(4, 4, 2), VcgraArch::new(4, 4, 3)],
            ..RuntimeConfig::default()
        },
        ..ShardConfig::new(2)
    });
}
