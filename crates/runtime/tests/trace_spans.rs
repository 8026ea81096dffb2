//! Span-decomposition contract of the runtime's instrumentation: every
//! admission is a `request` span whose subtree contains the
//! `admission`, `cache`, and `pricing` phases, a swap's `pricing` span
//! carries its `pes` and `sweeps`, every worker's share of a
//! streaming job is a `request` span containing an `execute` that
//! carries its `items`, its `grabs`, the call's `threads` and the column
//! `tier`, a swap-in is a
//! `request{op: "switch"}` around a `reconfig_overlap` with the same
//! arguments as a compaction replay's, and the ledger's makespan is the
//! time axis's.
//!
//! Single `#[test]` on purpose: the span recorder is process-global, so
//! one test owns arm/drain and no sibling can interleave events.

use runtime::{kernels, Runtime, RuntimeConfig, StreamRequest};
use softfloat::FpFormat;
use std::collections::{BTreeMap, BTreeSet};
use vcgra::VcgraArch;

const F: FpFormat = FpFormat::PAPER;

/// Replays the per-thread Begin/End streams into parent -> children
/// edges, panicking on unbalanced or non-LIFO nesting.
fn child_map(events: &[trace::TraceEvent]) -> BTreeMap<&'static str, BTreeSet<&'static str>> {
    let mut stacks: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
    let mut children: BTreeMap<&'static str, BTreeSet<&'static str>> = BTreeMap::new();
    for e in events {
        match e.phase {
            trace::Phase::Begin => {
                let stack = stacks.entry(e.tid).or_default();
                if let Some(&parent) = stack.last() {
                    children.entry(parent).or_default().insert(e.name);
                }
                stack.push(e.name);
            }
            trace::Phase::End => {
                let top = stacks
                    .get_mut(&e.tid)
                    .and_then(Vec::pop)
                    .expect("E event without a matching B on this thread");
                assert_eq!(top, e.name, "spans must close LIFO per thread");
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "thread {tid} left spans open: {stack:?}");
    }
    children
}

/// The end events of the spans directly inside each span whose end event
/// `pick` holds for (a span's arguments ride on its end event).
fn children_of(
    events: &[trace::TraceEvent],
    pick: impl Fn(&trace::TraceEvent) -> bool,
) -> Vec<Vec<&trace::TraceEvent>> {
    let mut stacks: BTreeMap<u64, Vec<Vec<&trace::TraceEvent>>> = BTreeMap::new();
    let mut picked = Vec::new();
    for e in events {
        let stack = stacks.entry(e.tid).or_default();
        match e.phase {
            trace::Phase::Begin => stack.push(Vec::new()),
            trace::Phase::End => {
                let children = stack.pop().expect("E event without a matching B");
                if pick(e) {
                    picked.push(children);
                }
                if let Some(parent) = stack.last_mut() {
                    parent.push(e);
                }
            }
            _ => {}
        }
    }
    picked
}

/// A string argument of a span's end event.
fn str_arg<'e>(e: &'e trace::TraceEvent, key: &str) -> Option<&'e str> {
    e.args
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| match v {
            trace::AttrValue::Str(s) => s.as_str(),
            other => panic!("`{key}` is a string, got {other:?}"),
        })
}

/// A count argument of a span's end event.
fn u64_arg(e: &trace::TraceEvent, key: &str) -> u64 {
    match e.args.iter().find(|(k, _)| *k == key) {
        Some((_, trace::AttrValue::U64(n))) => *n,
        other => panic!("`{key}` is a count, got {other:?}"),
    }
}

#[test]
fn request_spans_decompose_and_ledger_follows_the_time_axis() {
    trace::configure(trace::TraceConfig::On);

    let mut rt = Runtime::new(RuntimeConfig {
        grids: vec![VcgraArch::new(8, 4, 2)],
        ..RuntimeConfig::default()
    });
    let lib = kernels::library(F);
    let w = &lib[0];
    let cold = rt
        .submit(&w.name, w.graph.clone())
        .expect("submit")
        .expect_admitted("empty pool");
    assert!(!cold.cache_hit);
    let warm = rt
        .submit(format!("{}-warm", w.name), w.graph.clone())
        .expect("submit")
        .expect_admitted("fits");
    assert!(warm.cache_hit, "same structure must hit the cache");
    // 160 items in units of 64: the job spans three units.
    let inputs: Vec<Vec<softfloat::FpValue>> = (0..160)
        .map(|i| {
            (0..w.graph.num_inputs)
                .map(|j| softfloat::FpValue::from_f64((i + j) as f64 * 0.25, F))
                .collect()
        })
        .collect();
    let runs = rt
        .run(vec![StreamRequest {
            tenant: cold.tenant,
            inputs,
        }])
        .expect("stream");
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].outputs.len(), 160);

    // A parameter swap: every coefficient of the warm tenant changes.
    let slots = w.graph.coeff_nodes().len();
    let coeffs: Vec<softfloat::FpValue> = (0..slots)
        .map(|i| softfloat::FpValue::from_f64(-3.0 - i as f64, F))
        .collect();
    let swap = rt.swap_params(warm.tenant, &coeffs).expect("swap");
    assert_eq!(
        (swap.dirty_pes, swap.sweeps),
        (slots, 1),
        "one sweep prices every changed PE"
    );

    // Free the lower band: three rows below the survivor and two above
    // it. A 4-row tenant's admission compacts the grid — the survivor
    // slides down — and the relocation replay must be traced as a
    // `reconfig_overlap` span inside that admission.
    rt.release(cold.tenant).expect("release");
    let tall = rt
        .submit("tall", kernels::fir_seeded(F, 8, 3).graph) // 15 nodes → 4 rows
        .expect("submit")
        .expect_admitted("compaction coalesces five free rows");
    assert_eq!(tall.relocations, 1, "the survivor's band slid down");

    // A time-shared band: two tenants on a 4x4 grid, the second admitted
    // last, so the first one's slot swaps its configuration in. The
    // request has no items, so it adds no `execute` span to the ones
    // counted below.
    let mut shared = Runtime::new(RuntimeConfig {
        grids: vec![VcgraArch::paper_4x4()],
        ..RuntimeConfig::default()
    });
    let sharer = kernels::fir_seeded(F, 8, 7).graph; // 15 nodes → all 4 rows
    let first = shared.submit("first", sharer.clone()).expect("submit");
    shared.submit("second", sharer).expect("submit");
    let runs = shared
        .run(vec![StreamRequest {
            tenant: first.tenant(),
            inputs: Vec::new(),
        }])
        .expect("stream");
    assert_eq!(runs[0].context_switches, 1);

    trace::configure(trace::TraceConfig::Off);
    let events = trace::take_events();
    let children = child_map(&events);

    // The acceptance shape: request spans decompose into admission /
    // cache / pricing / execute phases (cache and pricing live inside
    // the admission subtree; execute under the streaming request).
    let request = children.get("request").expect("request spans recorded");
    assert!(
        request.contains("admission"),
        "admit requests open an admission child"
    );
    assert!(
        request.contains("execute"),
        "stream requests open an execute child"
    );
    // Every execute span carries its items, the grabs they came in and
    // the call's thread count.
    let executed: Vec<[u64; 3]> = events
        .iter()
        .filter(|e| e.name == "execute" && e.phase == trace::Phase::End)
        .map(|e| ["items", "grabs", "threads"].map(|key| u64_arg(e, key)))
        .collect();
    // A worker's consecutive units of one job share a span, so the three
    // units show as one to three spans, depending on who took which.
    assert!((1..=3).contains(&executed.len()), "{executed:?}");
    assert_eq!(
        executed.iter().map(|s| s[0]).sum::<u64>(),
        160,
        "the spans' items sum to the run's"
    );
    // Three units are fewer than two grabs per thread: each unit is a
    // grab of its own. The call ran on 1 to 3 threads (the units, the
    // default 4 workers and the host's cores cap it), and every span
    // says the same.
    assert_eq!(
        executed.iter().map(|s| s[1]).sum::<u64>(),
        3,
        "{executed:?}"
    );
    let threads = executed[0][2];
    assert!((1..=3).contains(&threads), "{executed:?}");
    assert!(executed.iter().all(|s| s[2] == threads), "{executed:?}");
    // And the column tier its units ran on.
    let tier = trace::AttrValue::Str(softfloat::kernel::column_tier().to_string());
    for e in events
        .iter()
        .filter(|e| e.name == "execute" && e.phase == trace::Phase::End)
    {
        assert_eq!(
            e.args.iter().find(|(k, _)| *k == "tier").map(|(_, v)| v),
            Some(&tier)
        );
    }
    // A swap's `pricing` span says how much it priced and in how many
    // SCG sweeps (an admission's carries `port_ns` instead).
    assert!(
        request.contains("pricing"),
        "swap requests open a pricing child"
    );
    let u64_arg = |e: &trace::TraceEvent, key: &str| {
        e.args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| match v {
                trace::AttrValue::U64(n) => *n,
                other => panic!("`{key}` is a count, got {other:?}"),
            })
    };
    let priced: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.name == "pricing" && e.phase == trace::Phase::End)
        .filter_map(|e| Some((u64_arg(e, "pes")?, u64_arg(e, "sweeps")?)))
        .collect();
    assert_eq!(priced, [(slots as u64, 1)]);
    let admission = children.get("admission").expect("admission spans recorded");
    for phase in ["cache", "pricing", "placement"] {
        assert!(
            admission.contains(phase),
            "admission subtree must contain {phase}"
        );
    }
    assert!(
        children.get("admission").unwrap().contains("compile"),
        "the cold admission compiled, so its span must appear"
    );
    assert!(
        admission.contains("compaction"),
        "a compaction happens inside the admission that needs it"
    );
    let compaction = children
        .get("compaction")
        .expect("compaction spans recorded");
    assert!(
        compaction.contains("reconfig_overlap"),
        "the compaction replay must nest a reconfig_overlap span"
    );
    // The swap-in is a `request{op: "switch"}` around one
    // `reconfig_overlap`.
    let switches = children_of(&events, |e| {
        e.name == "request" && str_arg(e, "op") == Some("switch")
    });
    assert_eq!(switches.len(), 1, "one slot swapped in");
    assert_eq!(
        switches[0].iter().map(|e| e.name).collect::<Vec<_>>(),
        ["reconfig_overlap"]
    );
    // The switch's span and the replay's carry the same arguments: one
    // booking path for a lane-local reconfiguration.
    let overlaps: Vec<(&str, BTreeSet<&str>)> = events
        .iter()
        .filter(|e| e.name == "reconfig_overlap" && e.phase == trace::Phase::End)
        .map(|e| {
            let phase = str_arg(e, "phase").expect("every reconfig_overlap names its phase");
            (phase, e.args.iter().map(|(k, _)| *k).collect())
        })
        .collect();
    let phases: BTreeSet<&str> = overlaps.iter().map(|(phase, _)| *phase).collect();
    assert_eq!(phases, BTreeSet::from(["replay", "switch"]));
    let shapes: BTreeSet<&BTreeSet<&str>> = overlaps.iter().map(|(_, keys)| keys).collect();
    assert_eq!(shapes.len(), 1, "{overlaps:?}");
    assert!(overlaps[0].1.contains("modeled_start_ns"));

    // The ledger's makespan is where the time axis's log ends: `charge`
    // extends it with every interval it schedules, and the run is short
    // enough that the log still holds every one.
    let led = rt.ledger();
    let log = rt.timeline().intervals();
    assert!(
        log.len() < runtime::timeline::WINDOW,
        "the run fits the window"
    );
    let log_end = log.iter().map(|iv| iv.end()).max();
    assert_eq!(Some(led.modeled_makespan), log_end);
    assert_eq!(
        led.overlap_saved,
        led.total_port_time() - led.modeled_makespan,
        "the overlap saved is the serialized port time less the makespan"
    );
}
