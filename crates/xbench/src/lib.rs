//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Binaries (run with `cargo run -p xbench --release --bin <name>`):
//!
//! | binary        | artefact reproduced                                    |
//! |---------------|--------------------------------------------------------|
//! | `table1`      | Table I — PE resource utilization and PaR results      |
//! | `table2`      | Table II — 4×4 VCGRA grid resources                    |
//! | `reconfig`    | §V reconfiguration-overhead estimate (251 ms per PE)   |
//! | `compile_time`| §II compile-time claim (VCGRA flow vs gate-level flow) |
//! | `figures`     | Figs. 1/4 (DOT renders), Fig. 5 (pipeline stage PGMs)  |
//! | `ablations`   | design-choice sweeps (hops, cut budget, precision)     |
//! | `pricer_table`| the runtime's pricing PPC, mapped offline ([`pricer_table`]) |
//!
//! Each driver parses its command line with one [`Cli`] parser: it refuses
//! any argument it does not take, printing its usage and exiting with
//! status 2, so a misspelt flag never runs a different experiment.
//! `figures`, `reconfig`, `compile_time` and `ablations` accept `--smoke`
//! (reduced formats/grids/volumes) so CI can run all of them end-to-end
//! in seconds. `table1` also takes `--verify`, which re-proves its
//! artifacts through `vcgra-verify` and reports the audit overhead
//! alongside the benchmark figures; it is where the route trees
//! `ParEngine::run` returns are linted, since the engine checks nothing
//! itself. The other `vcgra-verify` passes run elsewhere:
//! `runtime/tests/verify_state.rs` lints the kernel library's
//! configurations and soaks the scheduler, verifying after every
//! operation.
//!
//! The drivers print what they measure and write no record of their
//! own: the machine-readable result is the repo benchmark's
//! (`bench/out/RESULT.json`), and `--trace <path>` ([`init_trace`])
//! writes a driver's spans as a Chrome trace. Only the drivers whose runs
//! open spans take it, and a run that recorded none exits with status 2
//! instead of writing an empty trace.
//!
//! The crate times nothing for a gate: host time per layer is the repo
//! benchmark's (`bench/run.sh trace <workload>`), which also measures the
//! serving tiers; `examples/quickstart.rs` and
//! `examples/sharded_serving.rs` demonstrate them.

#![forbid(unsafe_code)]
#![deny(unreachable_pub, clippy::dbg_macro, clippy::todo)]

use fabric::{FabricArch, RouteGraph};
use logic::aig::Aig;
use mapping::{MapOptions, MappedDesign};
use par::{ParEngine, ParNetlist, Placement, RouteResult};
use softfloat::FpFormat;
use trace::{AttrValue, Phase, TraceEvent};
use vcgra::{VirtualPe, VirtualPeConfig};

/// The command line one driver takes. A driver parses it with
/// [`Cli::parse`], which refuses any argument the driver does not list.
pub struct Cli {
    /// The driver's binary name, for its usage line.
    pub name: &'static str,
    /// Flags without a value, such as `--smoke`.
    pub switches: &'static [&'static str],
    /// Flags with a value, each with its placeholder, such as [`TRACE`].
    pub valued: &'static [(&'static str, &'static str)],
    /// The placeholder of the driver's one optional positional argument.
    pub positional: Option<&'static str>,
}

/// `--trace <path>`: writes the driver's spans as a Chrome trace
/// ([`init_trace`]). Every driver whose run opens a span takes it: all
/// but `table2`, `figures` and `pricer_table`.
pub const TRACE: (&str, &str) = ("--trace", "<path>");

/// The `table1` driver's command line.
pub const TABLE1: Cli = Cli {
    name: "table1",
    switches: &["--skip-par", "--smoke", "--verify"],
    valued: &[TRACE],
    positional: None,
};

/// The `table2` driver's command line.
pub const TABLE2: Cli = Cli {
    name: "table2",
    switches: &[],
    valued: &[],
    positional: None,
};

/// The `reconfig` driver's command line.
pub const RECONFIG: Cli = Cli {
    name: "reconfig",
    switches: &["--smoke"],
    valued: &[TRACE],
    positional: None,
};

/// The `compile_time` driver's command line.
pub const COMPILE_TIME: Cli = Cli {
    name: "compile_time",
    switches: &["--smoke", "--check"],
    valued: &[("--threads-sweep", "<n,n,...>"), TRACE],
    positional: None,
};

/// The `figures` driver's command line.
pub const FIGURES: Cli = Cli {
    name: "figures",
    switches: &["--smoke"],
    valued: &[],
    positional: Some("out_dir"),
};

/// The `ablations` driver's command line.
pub const ABLATIONS: Cli = Cli {
    name: "ablations",
    switches: &["--smoke"],
    valued: &[TRACE],
    positional: None,
};

/// The `pricer_table` driver's command line.
pub const PRICER_TABLE: Cli = Cli {
    name: "pricer_table",
    switches: &[],
    valued: &[],
    positional: None,
};

/// A driver's parsed command line.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    switches: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    positional: Option<String>,
}

impl Args {
    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The value of the valued flag `flag`, the last one if it was given
    /// more than once.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The positional argument, if one was given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }
}

impl Cli {
    /// `usage: <name> [flags...] [positional]`.
    pub fn usage(&self) -> String {
        let mut u = format!("usage: {}", self.name);
        for s in self.switches {
            u += &format!(" [{s}]");
        }
        for (flag, placeholder) in self.valued {
            u += &format!(" [{flag} {placeholder}]");
        }
        if let Some(p) = self.positional {
            u += &format!(" [{p}]");
        }
        u
    }

    /// Parses `args` (the program name excluded) against this driver's
    /// flags, in any order; refuses an argument it does not take and a
    /// valued flag without its value.
    pub fn parse_from(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&s) = self.switches.iter().find(|&&s| s == arg) {
                parsed.switches.push(s);
            } else if let Some(&(flag, _)) = self.valued.iter().find(|(f, _)| *f == arg) {
                let value = args.next().ok_or(format!("`{flag}` needs a value"))?;
                parsed.values.push((flag, value));
            } else if self.positional.is_some()
                && parsed.positional.is_none()
                && !arg.starts_with('-')
            {
                parsed.positional = Some(arg);
            } else {
                return Err(format!("unknown argument `{arg}`"));
            }
        }
        Ok(parsed)
    }

    /// Parses the process's arguments. On anything this driver does not
    /// take, `--help` included, prints the error and the usage and exits
    /// with status 2.
    pub fn parse(&self) -> Args {
        self.parse_from(std::env::args().skip(1))
            .unwrap_or_else(|e| self.refuse(&e))
    }

    /// Prints `error` and the usage and exits with status 2: for a
    /// command line the driver cannot run.
    pub fn refuse(&self, error: &str) -> ! {
        eprintln!("{}: {error}\n{}", self.name, self.usage());
        std::process::exit(2)
    }
}

/// Arms the global span recorder when `args` holds `--trace <path>`, and
/// returns the path. Every driver that takes [`TRACE`] calls this first
/// thing in `main`, so instrumentation across the whole compile + serve
/// stack records into one timeline. Pair with [`finish_trace`] before exit.
pub fn init_trace(args: &Args) -> Option<String> {
    let path = args.value(TRACE.0)?;
    trace::configure(trace::TraceConfig::On);
    Some(path.to_string())
}

/// Drains the recorder into a Chrome trace-event JSON file (load it at
/// `ui.perfetto.dev` or `chrome://tracing`), after printing where each
/// width search's wall-clock went ([`probe_span_lines`]). No-op when
/// [`init_trace`] found no `--trace` flag. A run that recorded no event
/// has no trace to give: no file is written, and the driver exits with
/// status 2.
pub fn finish_trace(path: Option<&str>) {
    let Some(path) = path else { return };
    let events = trace::take_events();
    if events.is_empty() {
        eprintln!("--trace {path}: the run recorded no trace events, so no trace is written");
        std::process::exit(2);
    }
    let probes = probe_span_lines(&events);
    if !probes.is_empty() {
        println!("\nrouter probes by wall time (the trace's `par.probe` spans):");
        probes.iter().for_each(|line| println!("{line}"));
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create trace directory");
    }
    std::fs::write(path, trace::to_chrome_json(&events)).expect("write trace file");
    println!("wrote {path} ({} trace events)", events.len());
}

/// The PE the runtime prices parameter swaps on: (4,6) at two hops, whose
/// PPC store a swap sweeps in ≈ 2 µs (the (6,26) PE's holds 62 483 nodes).
pub const PRICER_PE: VirtualPeConfig = VirtualPeConfig {
    format: FpFormat { we: 4, wf: 6 },
    hops: 2,
};

/// The runtime's pricing table (`crates/runtime/src/pricer/table.rs`) for
/// `pe`, as Rust source: the PE swept, mapped parameterized and its PPC
/// extracted — the paper's offline generic stage — and the store
/// compacted to what the PPC's roots reach, in PPC order. It holds what
/// [`dcs::Scg::from_parts`] reads and nothing else, as `static` arrays and
/// `const` counts: the store's nodes ([`logic::BddManager::nodes`]), one
/// root per PPC bit, each root's frame index, the frames, the parameter
/// count, and the PE's format and hops.
pub fn pricer_table(pe: VirtualPeConfig) -> String {
    use std::fmt::Write;
    let design = map_pe(&build_pe_aig_with(pe.format, true), true);
    let config = dcs::ParamConfig::extract(&design);
    let mut bdd = logic::BddManager::from_nodes(&design.bdd.nodes());
    let mut roots: Vec<logic::Bdd> = config.ppc.iter().map(|&(_, f, _)| f).collect();
    bdd.compact(roots.iter_mut());
    let nodes = bdd.nodes();

    /// Writes `items` as a `static` array of elements of type `ty`, as
    /// many to a line as fit in 100 columns.
    fn array(out: &mut String, doc: &str, name: &str, ty: &str, items: &[String]) {
        let len = items.len();
        writeln!(
            out,
            "\n/// {doc}\npub(super) static {name}: [{ty}; {len}] = ["
        )
        .unwrap();
        let mut line = String::new();
        for item in items {
            if !line.is_empty() && line.len() + item.len() + 2 > 100 {
                writeln!(out, "{}", line.trim_end()).unwrap();
                line.clear();
            }
            write!(line, "{item}, ").unwrap();
        }
        writeln!(out, "{}\n];", line.trim_end()).unwrap();
    }
    let numbers = |xs: &[u32]| xs.iter().map(u32::to_string).collect::<Vec<_>>();

    let (we, wf, hops) = (pe.format.we, pe.format.wf, pe.hops);
    let mut out = format!(
        "//! The runtime's pricing PE, mapped offline: the ({we},{wf}) virtual PE at\n\
         //! {hops} hops, swept, mapped parameterized and its PPC extracted, with the\n\
         //! store compacted to what the PPC's roots reach ({} nodes, {} PPC bits).\n\
         //!\n\
         //! Written by `cargo run -p xbench --release --bin pricer_table >\n\
         //! crates/runtime/src/pricer/table.rs`; `xbench`'s `pricer_table` test\n\
         //! maps the PE again and fails if this file differs. Do not edit.\n\
         \n\
         /// Exponent width of the pricing PE's format.\n\
         pub(super) const WE: u32 = {we};\n\
         /// Fraction width of the pricing PE's format.\n\
         pub(super) const WF: u32 = {wf};\n\
         /// Virtual switch hops per word-level connection.\n\
         pub(super) const HOPS: usize = {hops};\n\
         /// Parameters (BDD variables) one assignment sets.\n\
         pub(super) const PARAMS: usize = {};\n",
        nodes.len() + 1,
        roots.len(),
        config.param_names.len(),
    );
    array(
        &mut out,
        "The distinct frames holding a tunable bit, ascending.",
        "FRAMES",
        "u32",
        &numbers(config.frames()),
    );
    array(
        &mut out,
        "The store's internal nodes, children first: variable, `lo`, `hi` (raw handles).",
        "NODES",
        "[u32; 3]",
        &nodes
            .iter()
            .map(|[v, lo, hi]| format!("[{v},{lo},{hi}]"))
            .collect::<Vec<_>>(),
    );
    array(
        &mut out,
        "Per PPC bit, the raw handle of its function.",
        "ROOTS",
        "u32",
        &numbers(&roots.iter().map(|r| r.raw()).collect::<Vec<_>>()),
    );
    array(
        &mut out,
        "Per PPC bit, the index of its frame in `FRAMES`.",
        "ROOT_FRAME",
        "u32",
        &numbers(config.ppc_frame()),
    );
    out
}

/// The process's peak resident memory so far, as `"<x> MiB"` — the
/// `VmHWM` line of `/proc/self/status` — or `"n/a"` where the host has no
/// such file. The compile drivers print it after each flow.
pub fn peak_memory() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| vm_hwm_mib(&status))
        .map_or_else(|| "n/a".to_string(), |mib| format!("{mib:.1} MiB"))
}

/// The `VmHWM` of a `/proc/<pid>/status` text, in MiB.
fn vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// A compact row printer for paper-vs-measured tables.
pub fn print_row(label: &str, paper: &str, measured: &str) {
    println!("  {label:<34} {paper:>16} {measured:>18}");
}

/// Header for paper-vs-measured tables.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
    print_row("quantity", "paper", "measured");
    println!("  {}", "-".repeat(70));
}

/// Builds the PE netlist (virtual PE, two hops) for one flow — in the
/// paper's (6,26), or in the reduced format of the smoke modes, whose
/// trends match the paper-scale PE at a fraction of the mapping cost.
pub fn build_pe_aig_with(format: FpFormat, parameterized: bool) -> Aig {
    let pe = VirtualPe::build(VirtualPeConfig { format, hops: 2 }, parameterized);
    logic::opt::sweep(&pe.aig)
}

/// Maps the PE with the flow matching its annotation.
pub fn map_pe(aig: &Aig, parameterized: bool) -> MappedDesign {
    if parameterized {
        mapping::map_parameterized(aig, MapOptions::default())
    } else {
        mapping::map_conventional(aig, MapOptions::default())
    }
}

/// Routes at `start` tracks, doubling the width after every failure up to
/// the engine's `max_width` — for a driver that wants *a* routed result,
/// not the minimum width. The congestion estimate its caller starts from
/// is a heuristic, so an undershoot is escalated away rather than fatal.
/// The width that routed is the returned graph's.
pub fn route_doubling(
    engine: &ParEngine,
    netlist: &ParNetlist,
    placement: &Placement,
    arch: FabricArch,
    start: usize,
) -> (RouteGraph, RouteResult) {
    let max_width = engine.opts.max_width;
    let mut width = start;
    loop {
        let graph = RouteGraph::build(arch, width);
        match engine.route(netlist, placement, &graph) {
            Ok(routed) => return (graph, routed),
            Err(e) => {
                assert!(width < max_width, "unroutable even at width {width}: {e:?}");
                width = (width * 2).min(max_width);
            }
        }
    }
}

/// Prints a width search's probe table — one row per router run, every
/// column the same at any thread count — then how much of the router's
/// effort went into failed probes: a hopeless width grinds to the
/// iteration limit. Their wall time is the `par.probe` spans'
/// ([`probe_span_lines`]).
pub fn print_probe_table(probes: &[par::WidthProbe]) {
    for p in probes {
        println!(
            "  width {:>3}: {:<4} {:>2} iters {:>7} rip-ups {:>5} warm nets{}",
            p.width,
            verdict(p.success),
            p.iterations,
            p.ripups,
            p.warm_nets,
            if p.confirm { "  [cold confirm]" } else { "" },
        );
    }
    let failed: Vec<_> = probes.iter().filter(|p| !p.success).collect();
    println!(
        "  failed probes: {} of {}, {} of {} rip-ups",
        failed.len(),
        probes.len(),
        failed.iter().map(|p| p.ripups).sum::<usize>(),
        probes.iter().map(|p| p.ripups).sum::<usize>(),
    );
}

fn verdict(success: bool) -> &'static str {
    if success {
        "ok"
    } else {
        "FAIL"
    }
}

/// Where each width search's wall-clock went, read from a run's trace
/// events: one line per `par.probe` span — width, verdict, `[cold
/// confirm]`, `[beside search]` for a probe that ran on a thread of its
/// own, `[cancelled]` for one the search stopped before its verdict, and
/// its wall ms — and, at the end of each `par.width_search` span, `failed
/// probes: x of y s (z s of them beside the search)`. `x` sums every
/// failed verdict the search's threads reached, a speculative one it let
/// go after it finished included; `y` is the search's own wall time.
/// Empty when the run routed no probe.
pub fn probe_span_lines(events: &[TraceEvent]) -> Vec<String> {
    fn arg<'e>(e: &'e TraceEvent, key: &str) -> Option<&'e AttrValue> {
        e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
    let flag = |e: &TraceEvent, key: &str| arg(e, key) == Some(&AttrValue::Bool(true));
    let tag = |on: bool, text: &'static str| if on { text } else { "" };
    // Spans nest per thread, so each end event closes the newest begin
    // on its own thread.
    let mut open: Vec<(u64, u64)> = Vec::new();
    let (mut failed_s, mut beside_s) = (0.0, 0.0);
    let mut lines = Vec::new();
    for e in events {
        match e.phase {
            Phase::Begin => open.push((e.tid, e.ts_ns)),
            Phase::End => {
                let Some(i) = open.iter().rposition(|&(tid, _)| tid == e.tid) else {
                    continue;
                };
                let secs = e.ts_ns.saturating_sub(open.remove(i).1) as f64 * 1e-9;
                if e.name == "par.probe" {
                    let Some(&AttrValue::U64(width)) = arg(e, "width") else {
                        continue;
                    };
                    let success = flag(e, "success");
                    let (beside, cancelled) = (flag(e, "overlapped"), flag(e, "cancelled"));
                    lines.push(format!(
                        "  probe width {width:>3}: {:<4} {:>9.1} ms{}{}{}",
                        verdict(success),
                        secs * 1e3,
                        tag(flag(e, "confirm"), "  [cold confirm]"),
                        tag(beside, " [beside search]"),
                        tag(cancelled, " [cancelled]"),
                    ));
                    if !success && !cancelled {
                        failed_s += secs;
                        if beside {
                            beside_s += secs;
                        }
                    }
                } else if e.name == "par.width_search" {
                    lines.push(format!(
                        "  failed probes: {failed_s:.2} of {secs:.2} s \
                         ({beside_s:.2} s of them beside the search)"
                    ));
                    (failed_s, beside_s) = (0.0, 0.0);
                }
            }
            Phase::Instant => {}
        }
    }
    lines
}

/// Percentage reduction helper.
pub fn reduction(before: usize, after: usize) -> f64 {
    if before == 0 {
        0.0
    } else {
        100.0 * (1.0 - after as f64 / before as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cli: &Cli, line: &[&str]) -> Result<Args, String> {
        cli.parse_from(line.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parser_takes_the_drivers_flags_in_any_order() {
        let a = parse(&TABLE1, &["--verify", "--trace", "t.json", "--smoke"]).unwrap();
        assert!(a.has("--smoke") && a.has("--verify") && !a.has("--skip-par"));
        assert_eq!(a.value("--trace"), Some("t.json"));
        assert_eq!(parse(&TABLE1, &[]).unwrap(), Args::default());

        let a = parse(
            &COMPILE_TIME,
            &["--trace", "t.json", "--smoke", "--threads-sweep", "1,2"],
        )
        .unwrap();
        assert_eq!(
            (a.value("--threads-sweep"), a.value("--trace")),
            (Some("1,2"), Some("t.json"))
        );
        assert!(a.has("--smoke") && !a.has("--check"));

        let a = parse(&FIGURES, &["--smoke", "out"]).unwrap();
        assert_eq!(a.positional(), Some("out"));
        assert!(a.has("--smoke"));
        assert_eq!(
            parse(&FIGURES, &["out", "more"]),
            Err("unknown argument `more`".into())
        );
        assert_eq!(FIGURES.usage(), "usage: figures [--smoke] [out_dir]");
    }

    #[test]
    fn parser_refuses_what_the_driver_does_not_take() {
        // A misspelt switch, a flag of another driver, a stray positional.
        for bad in ["--smok", "--check", "out", "--help"] {
            assert_eq!(
                parse(&TABLE1, &["--smoke", bad, "--verify"]),
                Err(format!("unknown argument `{bad}`")),
                "{bad}"
            );
        }
        assert_eq!(
            parse(&TABLE1, &["--smoke", "--trace"]),
            Err("`--trace` needs a value".into())
        );
        // A driver whose run opens no span takes no `--trace`; every
        // other driver does.
        for cli in [&PRICER_TABLE, &FIGURES, &TABLE2] {
            assert_eq!(
                parse(cli, &["--trace", "t.json"]),
                Err("unknown argument `--trace`".into()),
                "{}",
                cli.name
            );
        }
        for cli in [&TABLE1, &RECONFIG, &COMPILE_TIME, &ABLATIONS] {
            let a = parse(cli, &["--trace", "t.json"]).unwrap();
            assert_eq!(a.value("--trace"), Some("t.json"), "{}", cli.name);
        }
    }

    #[test]
    fn peak_memory_reads_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   53248 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_mib(status), Some(52.0));
        assert_eq!(vm_hwm_mib("Name:\tx\n"), None);
        let m = peak_memory();
        assert!(m == "n/a" || m.ends_with(" MiB"), "{m}");
    }

    #[test]
    fn probe_lines_come_from_the_span_tree() {
        let ev = |name, phase, ts_ms: u64, tid, args: Vec<(&'static str, AttrValue)>| TraceEvent {
            name,
            phase,
            ts_ns: ts_ms * 1_000_000,
            tid,
            args,
        };
        let probe = |width: u64, success: bool, overlapped: bool| {
            vec![
                ("width", AttrValue::U64(width)),
                ("confirm", AttrValue::Bool(overlapped)),
                ("overlapped", AttrValue::Bool(overlapped)),
                ("success", AttrValue::Bool(success)),
            ]
        };
        // A search (thread 1) whose cold W−1 ran beside it on thread 2.
        let events = [
            ev("par.width_search", Phase::Begin, 0, 1, vec![]),
            ev("par.probe", Phase::Begin, 0, 1, vec![]),
            ev("par.probe", Phase::End, 100, 1, probe(9, true, false)),
            ev("par.probe", Phase::Begin, 100, 2, vec![]),
            ev("par.probe", Phase::Begin, 100, 1, vec![]),
            ev("par.route_iter", Phase::Begin, 150, 1, vec![]),
            ev("par.route_iter", Phase::End, 200, 1, vec![]),
            ev("par.probe", Phase::End, 600, 1, probe(8, false, false)),
            ev("par.probe", Phase::End, 900, 2, probe(8, false, true)),
            ev("par.width_search", Phase::End, 1000, 1, vec![]),
        ];
        assert_eq!(
            probe_span_lines(&events),
            [
                "  probe width   9: ok       100.0 ms",
                "  probe width   8: FAIL     500.0 ms",
                "  probe width   8: FAIL     800.0 ms  [cold confirm] [beside search]",
                "  failed probes: 1.30 of 1.00 s (0.80 s of them beside the search)",
            ]
        );
        assert!(probe_span_lines(&events[5..7]).is_empty());
    }

    #[test]
    fn reduction_math() {
        assert!((reduction(100, 70) - 30.0).abs() < 1e-9);
        assert_eq!(reduction(0, 10), 0.0);
    }

    #[test]
    fn pe_builders_differ_only_in_annotation() {
        let conv = build_pe_aig_with(FpFormat::PAPER, false);
        let par = build_pe_aig_with(FpFormat::PAPER, true);
        assert_eq!(conv.num_inputs(), par.num_inputs());
        assert!(par.num_inputs_of(logic::aig::InputKind::Param) > 0);
        assert_eq!(conv.num_inputs_of(logic::aig::InputKind::Param), 0);
    }
}
