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
/// `ui.perfetto.dev` or `chrome://tracing`). No-op when [`init_trace`]
/// found no `--trace` flag. A run that recorded no event has no trace to
/// give: no file is written, and the driver exits with status 2.
pub fn finish_trace(path: Option<&str>) {
    let Some(path) = path else { return };
    let events = trace::take_events();
    if events.is_empty() {
        eprintln!("--trace {path}: the run recorded no trace events, so no trace is written");
        std::process::exit(2);
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

/// Prints a width search's probe table — one row per router run, then
/// where the search's wall-clock went: hopeless widths ground to the
/// iteration limit, less what ran on a thread of its own meanwhile.
pub fn print_probe_table(probes: &[par::WidthProbe], search_seconds: f64) {
    for p in probes {
        println!(
            "  width {:>3}: {:<4} {:>8.2}s  {:>2} iters {:>7} rip-ups {:>5} warm nets{}{}",
            p.width,
            if p.success { "ok" } else { "FAIL" },
            p.seconds,
            p.iterations,
            p.ripups,
            p.warm_nets,
            if p.confirm { "  [cold confirm]" } else { "" },
            if p.overlapped { " [beside search]" } else { "" },
        );
    }
    // (`fold`, not `sum`: an empty `f64` sum is −0.0 and prints as such.)
    let failed = probes.iter().filter(|p| !p.success);
    let failed_s = failed.clone().fold(0.0, |s, p| s + p.seconds);
    let beside_s = failed
        .filter(|p| p.overlapped)
        .fold(0.0, |s, p| s + p.seconds);
    println!(
        "  failed probes: {failed_s:.2} of {search_seconds:.2} s \
         ({beside_s:.2} s of them beside the search)"
    );
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

    const TABLE1: Cli = Cli {
        name: "table1",
        switches: &["--skip-par", "--smoke", "--verify"],
        valued: &[TRACE],
        positional: None,
    };

    const COMPILE_TIME: Cli = Cli {
        name: "compile_time",
        switches: &["--smoke", "--check"],
        valued: &[("--threads-sweep", "<n,n,...>"), TRACE],
        positional: None,
    };

    const FIGURES: Cli = Cli {
        name: "figures",
        switches: &["--smoke"],
        valued: &[],
        positional: Some("out_dir"),
    };

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
        let none = Cli {
            name: "pricer_table",
            switches: &[],
            valued: &[],
            positional: None,
        };
        // A driver whose run opens no span takes no `--trace`.
        for cli in [&none, &FIGURES] {
            assert_eq!(
                parse(cli, &["--trace", "t.json"]),
                Err("unknown argument `--trace`".into()),
                "{}",
                cli.name
            );
        }
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
