//! Diagnostic: watch the ADVc bottleneck router's global-port congestion
//! and injection progress over time (not a paper figure), plus a
//! per-phase wall-clock breakdown of the engine cycle (deliver / policy /
//! inject / allocate / transmit) to direct hot-path optimization work.
//!
//! ```text
//! dbg_bottleneck [crg|rrg|mm] [--live] [--json PATH]
//! ```
//!
//! * positional mechanism — `crg`, `rrg`, or the default `mm`,
//! * `--live` — enable windowed telemetry and print each window's
//!   delivered/escape/probe rates *as the window closes* (plus a trailing
//!   5-window delivered rate from a `RateWindow`), so starvation onset
//!   and the allocate-phase hotspot are visible while they happen,
//! * `--json PATH` — archive the per-chunk phase breakdowns and the run
//!   total as JSON next to the bench artifacts.

use df_bench::{fail, flag_path, write_json};
use dragonfly_core::df_engine::{vcs_for, PhaseProfile, RouterState, TelemetrySpec};
use dragonfly_core::df_stats::RateWindow;
use dragonfly_core::prelude::*;
use serde::Serialize;
use std::path::PathBuf;

/// Archived phase breakdowns (`--json`): one profile per 1000-cycle
/// chunk plus the run total.
#[derive(Debug, Serialize)]
struct PhaseReport {
    mechanism: String,
    chunk_cycles: u64,
    chunks: Vec<PhaseProfile>,
    total: PhaseProfile,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: dbg_bottleneck [crg|rrg|mm] [--live] [--json PATH]");
    std::process::exit(2);
}

fn main() {
    let mut mech = MechanismSpec::InTransitMm;
    let mut live = false;
    let mut json: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "crg" => mech = MechanismSpec::InTransitCrg,
            "rrg" => mech = MechanismSpec::InTransitRrg,
            "mm" => mech = MechanismSpec::InTransitMm,
            "--live" => live = true,
            "--json" => json = Some(flag_path(&mut it, &arg).unwrap_or_else(|e| die(&e))),
            other => die(&format!("unknown argument {other}")),
        }
    }
    let mut cfg = SimConfig::small(
        mech,
        ArbiterPolicy::TransitPriority,
        PatternSpec::AdvConsecutive { spread: None },
        0.4,
    );
    const WINDOW: u64 = 1_000;
    if live {
        cfg.telemetry = Some(TelemetrySpec { window_cycles: WINDOW, ..TelemetrySpec::default() });
    }
    let mut sim = Simulator::new(&cfg);
    let params = cfg.params;
    let a = params.a;
    let bottleneck = (a - 1) as usize; // router 5 of group 0
    println!("mech={} bottleneck=R{bottleneck}", mech.label());
    if live {
        // Streaming sink: one line per closed window, printed mid-run.
        // The trailing rate smooths the last five windows through an
        // exact ring-of-buckets counter.
        let mut trailing = RateWindow::new(WINDOW, 5);
        sim.set_timeline_sink(Box::new(move |row| {
            trailing.record(row.start_cycle, row.delivered_packets);
            println!(
                "live w{:>3} [{:>6},{:>6}) thr={:.4} util={:.3} esc/cyc={:.4} \
                 probe_ready={:>4} epoch_bumps={:>6} trail5_pkts/cyc={:.3}",
                row.window,
                row.start_cycle,
                row.end_cycle,
                row.throughput,
                row.link_utilization,
                row.escape_grant_rate,
                row.probe_ready_heads,
                row.port_epoch_bumps,
                trailing.rate(),
            );
        }));
        // Arm the recorder from cycle 0: this diagnostic has no warm-up
        // phase, the whole run is the measurement.
        sim.begin_measurement();
    }
    let mut total = PhaseProfile::default();
    let mut chunks = Vec::new();
    for t in 0..30 {
        let mut chunk = PhaseProfile::default();
        for _ in 0..WINDOW {
            sim.step_profiled(&mut chunk);
        }
        let net = sim.network();
        let counters = net.counters();
        let inj_b = counters.injected_per_router[bottleneck];
        let inj_others: u64 = counters.injected_per_router[..a as usize]
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != bottleneck)
            .map(|(_, &c)| c)
            .sum();
        let r: &RouterState = net.router(RouterId(bottleneck as u32));
        // classify waiting heads: input kind x decided-output kind
        let mut transit_to_global = 0;
        let mut transit_to_local = 0;
        let mut inj_to_global = 0;
        let mut inj_waiting = 0;
        use dragonfly_core::df_topology::{PortKind, PortLayout};
        for q in 0..params.radix() {
            let kind_in = params.port_kind(Port(q));
            let vcs = vcs_for(net.config(), kind_in);
            for v in 0..vcs {
                if r.head(Port(q), v).is_some() {
                    if let Some((out_port, _)) = r.decided_target(Port(q), v) {
                        let kout = params.port_kind(out_port);
                        match (kind_in, kout) {
                            (PortKind::Injection, PortKind::Global) => inj_to_global += 1,
                            (PortKind::Injection, _) => inj_waiting += 1,
                            (_, PortKind::Global) => transit_to_global += 1,
                            (_, PortKind::Local) => transit_to_local += 1,
                            _ => {}
                        }
                    } else { if kind_in == PortKind::Injection { inj_waiting += 1; } }
                }
            }
        }
        let occs: Vec<String> = (0..params.h)
            .map(|j| {
                let port = Port(params.p + params.a - 1 + j);
                format!("{:.2}", r.output_congestion(port))
            })
            .collect();
        println!(
            "t={:>6} inj_R{bottleneck}={inj_b:>7} inj_mean_others={:>9.1} thr={:.4} in_flight={:>6} gocc={:?} t2g={transit_to_global} t2l={transit_to_local} i2g={inj_to_global} iw={inj_waiting}",
            (t + 1) * WINDOW,
            inj_others as f64 / (a - 1) as f64,
            counters.throughput(params.nodes()),
            net.in_flight(),
            occs,
        );
        let phases: Vec<String> = chunk
            .phases()
            .iter()
            .map(|(label, ns)| format!("{label}={:.2}µs", *ns as f64 / 1e3 / chunk.cycles as f64))
            .collect();
        println!(
            "          cycle={:.2}µs [{}]",
            chunk.total_ns() as f64 / 1e3 / chunk.cycles as f64,
            phases.join(" "),
        );
        total.absorb(&chunk);
        chunks.push(chunk);
    }
    println!(
        "phase totals over {} cycles (mean {:.2}µs/cycle):",
        total.cycles,
        total.total_ns() as f64 / 1e3 / total.cycles as f64
    );
    for (label, ns) in total.phases() {
        println!(
            "  {label:<9} {:>8.2}µs/cycle  {:>5.1}%",
            ns as f64 / 1e3 / total.cycles as f64,
            ns as f64 / total.total_ns() as f64 * 100.0,
        );
    }
    if let Some(path) = &json {
        let report = PhaseReport {
            mechanism: mech.label().to_string(),
            chunk_cycles: WINDOW,
            chunks,
            total,
        };
        write_json(path, &report).unwrap_or_else(|e| fail(&e));
    }
}
