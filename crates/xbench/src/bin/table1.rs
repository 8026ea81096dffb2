//! Regenerates **Table I**: resource utilization and PaR results of a PE.
//!
//! Paper row (conventional):       2522 LUTs,   0 TCONs, depth 36, WL 27242, CW 10
//! Paper row (fully parameterized): 1802 LUTs (526 TLUTs), 568 TCONs, depth 33,
//!                                  WL 16824, CW 10
//!
//! Absolute numbers depend on the substrate (our simulator vs. the
//! authors' Quartus/TCONMAP/TPaR stack); the claims under test are the
//! *shape*: ≥30 % LUT reduction, hundreds of TCONs moved to routing, a few
//! logic levels saved, ~31 % wirelength saved, no channel-width overhead.
//!
//! PaR runs on the `par-engine` (incremental reroute, warm-started width
//! search with the cold certificate routed beside it); the per-probe
//! effort log is printed after the table, the mapper's effort block
//! (where its TCON checks ended, the most cuts held at once, BDD nodes
//! created and kept) under the `mapped:` line, and the process's peak
//! memory ([`xbench::peak_memory`]) after the maps and after each PaR.
//!
//! Usage: `cargo run -p xbench --release --bin table1 [--skip-par]
//!         [--smoke] [--verify]`
//! (`--smoke` maps, places and routes a reduced (5,10) PE — the
//! paper-scale run is the scheduled CI job's business; `--verify`
//! re-proves every produced artifact through `vcgra-verify` — mapped
//! designs against the source AIG and route trees against the fabric
//! linter — and prints the audit overhead)

use fabric::rrg::RouteGraph;
use mapping::{MapEffort, MapOptions};
use par::{ParEngine, ParReport};
use softfloat::FpFormat;
use verify::Verifier;
use xbench::{build_pe_aig_with, map_pe, print_header, print_probe_table, print_row, reduction};

fn print_probes(label: &str, rep: &ParReport) {
    println!(
        "\n{label}: place {:.2}s ({} temperatures), width search {:.2}s \
         ({} iterations, {} rip-ups at the final width; minimum {} certified: {}, \
         sound lower bound {})",
        rep.place_seconds,
        rep.placement.temperatures,
        rep.route_seconds,
        rep.search.result.iterations,
        rep.search.result.ripups,
        rep.search.min_width,
        rep.search.certificate.name(),
        rep.search.lower_bound,
    );
    print_probe_table(&rep.search.probes, rep.route_seconds);
}

/// Runs the `--verify` audits for one flow: AIG-vs-mapped equivalence
/// always; route lint when PaR ran. Returns the reports; the caller fails
/// the run on any violation.
fn audit_flow(
    label: &str,
    aig: &logic::aig::Aig,
    design: &mapping::MappedDesign,
    routed: Option<&(par::ParNetlist, ParReport)>,
    draws: usize,
) -> Vec<verify::VerifyReport> {
    let v = Verifier::new();
    let mut reports = vec![v.verify_equivalence(aig, design, draws, 0x7AB1)];
    if let Some((nl, rep)) = routed {
        let graph = RouteGraph::build(rep.arch, rep.search.min_width);
        let nets = par::troute::terminals(nl, &rep.placement, &graph);
        reports.push(v.verify_routes(&graph, &nets, &rep.search.result.trees));
    }
    for r in &reports {
        println!("  {label:<15} {}", r.summary());
        for v in &r.violations {
            println!("    [{}] {v}", v.code());
        }
    }
    reports
}

/// Where the parameterized map's TCON checks ended and how much of its
/// BDD work the design kept — the mapper's analogue of the probe table.
fn print_map_effort(e: &MapEffort) {
    let misses = e.tcon_checks - e.tcon_cache_hits;
    println!("  mapping effort:");
    println!(
        "    TCON checks: {} requested -> {} cache hits -> {} refuted by counterexample \
         -> {} exact -> {} accepted",
        e.tcon_checks,
        e.tcon_cache_hits,
        e.tcon_refuted,
        misses - e.tcon_refuted,
        e.tcon_accepted,
    );
    println!(
        "    PTT conjunctions: {} requested -> {} cache hits; {} cuts with an all-constant PTT",
        e.ptt_merges, e.ptt_cache_hits, e.const_ptt_cuts,
    );
    println!(
        "    cuts: at most {} held at once in the forward pass",
        e.cuts_held_peak
    );
    println!(
        "    BDD nodes: {} created -> {} kept ({:.1}%); computed table {} of {} lookups hit ({:.0}%)",
        e.bdd_nodes_created,
        e.bdd_nodes_kept,
        100.0 * e.bdd_nodes_kept as f64 / e.bdd_nodes_created as f64,
        e.bdd_hits,
        e.bdd_lookups,
        100.0 * e.bdd_hits as f64 / e.bdd_lookups.max(1) as f64,
    );
}

fn main() {
    let args = xbench::TABLE1.parse();
    let smoke = args.has("--smoke");
    let trace_path = xbench::init_trace(&args);
    let skip_par = args.has("--skip-par");
    let verify_mode = args.has("--verify");
    let fmt = if smoke {
        FpFormat::new(5, 10)
    } else {
        FpFormat::PAPER
    };

    println!(
        "Building the FP-MAC virtual PE (FloPoCo we={}, wf={}) ...",
        fmt.we, fmt.wf
    );
    let conv_aig = build_pe_aig_with(fmt, false);
    let par_aig = build_pe_aig_with(fmt, true);

    let t0 = std::time::Instant::now();
    let conv = map_pe(&conv_aig, false);
    let t_conv = t0.elapsed();
    let t1 = std::time::Instant::now();
    let (par, effort) = mapping::map_parameterized_with_effort(&par_aig, MapOptions::default());
    let t_par = t1.elapsed();
    let (sc, sp) = (conv.stats(), par.stats());
    println!("mapped: conventional in {t_conv:?}, parameterized in {t_par:?}");
    print_map_effort(&effort);
    println!("  peak memory after both maps: {}", xbench::peak_memory());

    print_header("Table I — resource utilization of a PE (mapping)");
    print_row("4-LUTs, conventional", "2522", &sc.luts.to_string());
    print_row("4-LUTs, fully parameterized", "1802", &sp.luts.to_string());
    print_row("  of which TLUTs", "526", &sp.tluts.to_string());
    print_row(
        "TCONs (mapped tunable connections)",
        "568",
        &sp.tcons.to_string(),
    );
    print_row("logic depth, conventional", "36", &sc.depth.to_string());
    print_row("logic depth, parameterized", "33", &sp.depth.to_string());
    print_row(
        "LUT reduction",
        ">= 30%",
        &format!("{:.1}%", reduction(sc.luts, sp.luts)),
    );
    print_row(
        "depth reduction",
        "3 levels (~9%)",
        &format!("{} levels", sc.depth.saturating_sub(sp.depth)),
    );

    let engine = ParEngine::new(par::EngineOptions::default());
    let (mut routed_c, mut routed_p) = (None, None);
    if !skip_par {
        println!("\nPlace & route (par-engine, min channel width search) ...");
        let nl_c = par::extract(&conv);
        let nl_p = par::extract(&par);
        let t2 = std::time::Instant::now();
        let rep_c = engine.run(&nl_c).expect("conventional PE routable");
        println!(
            "conventional PaR done in {:?} (peak memory {})",
            t2.elapsed(),
            xbench::peak_memory()
        );
        let t3 = std::time::Instant::now();
        let rep_p = engine.run(&nl_p).expect("parameterized PE routable");
        println!(
            "parameterized PaR done in {:?} (peak memory {})",
            t3.elapsed(),
            xbench::peak_memory()
        );

        print_header("Table I — PaR results of a PE");
        print_row(
            "wirelength, conventional",
            "27242",
            &rep_c.search.result.wirelength.to_string(),
        );
        print_row(
            "wirelength, parameterized",
            "16824",
            &rep_p.search.result.wirelength.to_string(),
        );
        print_row(
            "WL reduction",
            "~31%",
            &format!(
                "{:.1}%",
                reduction(
                    rep_c.search.result.wirelength,
                    rep_p.search.result.wirelength
                )
            ),
        );
        print_row(
            "min channel width, conventional",
            "10",
            &rep_c.search.min_width.to_string(),
        );
        print_row(
            "min channel width, parameterized",
            "10",
            &rep_p.search.min_width.to_string(),
        );
        print_row(
            "CW overhead from TCONs",
            "none",
            if rep_p.search.min_width <= rep_c.search.min_width {
                "none"
            } else {
                "PRESENT (!)"
            },
        );
        print_row(
            "TCON switch configurations",
            "(568 TCONs)",
            &rep_p.search.result.tcon_switches.to_string(),
        );
        print_row(
            "  wirelength on tunable nets",
            "-",
            &rep_p.search.result.tunable_wirelength.to_string(),
        );
        println!(
            "\nfabrics: conventional {0}x{0}, parameterized {1}x{1} logic blocks",
            rep_c.arch.size, rep_p.arch.size
        );
        print_probes("conventional router effort", &rep_c);
        print_probes("parameterized router effort", &rep_p);
        routed_c = Some((nl_c, rep_c));
        routed_p = Some((nl_p, rep_p));
    } else {
        println!("\n(--skip-par: place & route columns skipped)");
    }

    let mut violation_count = 0usize;
    if verify_mode {
        let draws = if smoke { 4 } else { 2 };
        println!("\nVerification (vcgra-verify) ...");
        let mut reports = audit_flow("conventional", &conv_aig, &conv, routed_c.as_ref(), draws);
        reports.extend(audit_flow(
            "parameterized",
            &par_aig,
            &par,
            routed_p.as_ref(),
            draws,
        ));
        let passes = reports.len();
        let overhead: f64 = reports.iter().map(|r| r.seconds).sum();
        violation_count = reports.iter().map(|r| r.violations.len()).sum();
        println!(
            "  verification overhead: {overhead:.3} s across {passes} passes \
             ({} violations)",
            violation_count
        );
    }

    xbench::finish_trace(trace_path.as_deref());
    if violation_count > 0 {
        eprintln!("table1: {violation_count} invariant violations — failing the run");
        std::process::exit(1);
    }
}
