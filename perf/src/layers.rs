//! The traced pass: every layer, every run.
//!
//! A traced run always walks all three front doors — a simulation
//! through the timing harness, the grid unit by unit, a service mix with
//! a span per job stage — and then the fixed micro-probes, so every
//! per-layer row has a measured value on every workload. The workload
//! decides the *scale* of its own section: `paper_*` trace their own
//! configuration at Table I scale, `sweep_grid` all four seeds,
//! `service_mix` the full mix with a five-fold hit phase; the sections a
//! workload does not own run at probe scale (figure1 machine, one sweep
//! seed, the small mix). The digest, headline and
//! `bench.trace_overhead_frac` reported are those of the own section.

use crate::bench::{calib_ns, metric, runq_wait_ns, secs, Checks, Detail, Headline, Opts, Section};
use crate::probes;
use crate::service::{self, MixSize};
use crate::sim::{self, SimWorkload};
use crate::sweep::{self, FULL_SEEDS};
use crate::trace::Trace;
use df_routing::MechanismSpec;
use df_traffic::PatternSpec;
use std::time::Instant;

/// Run the traced pass of `opts.workload`; writes
/// `<out_dir>/trace-<workload>.jsonl`.
pub fn traced(opts: &Opts) -> Detail {
    let wall = Instant::now();
    let runq0 = runq_wait_ns();
    let calib = calib_ns();
    let mut checks = Checks::default();
    let mut trace = Trace::new();

    // `sweep_grid` and `service_mix` have no `SimConfig` of their own: a
    // figure1-scale run of uniform traffic at the grid's middle load
    // stands in for the engine at the scale those workloads simulate.
    let sim_cfg = match SimWorkload::named(&opts.workload) {
        Some(w) => w.config(opts.seed, opts.smoke),
        None => SimWorkload {
            mechanism: MechanismSpec::InTransitMm,
            pattern: PatternSpec::Uniform,
            load: 0.6,
            shards: 1,
        }
        .config(opts.seed, true),
    };
    let sim = sim::section(&sim_cfg, &mut checks, &mut trace);

    let own_sweep = opts.workload == "sweep_grid";
    let n_seeds = if own_sweep && !opts.smoke {
        FULL_SEEDS
    } else {
        1
    };
    let sweep = sweep::section(&sweep::seeds(opts.seed, n_seeds), &mut checks, &mut trace);

    let own_service = opts.workload == "service_mix";
    let size = if own_service && !opts.smoke {
        MixSize::TRACED_FULL
    } else {
        MixSize::SMALL
    };
    let service = service::section(size, opts, &mut checks, &mut trace).unwrap_or_else(|e| {
        checks.attempt(1);
        checks.fail(format!("service section: {e}"));
        Section {
            metrics: Vec::new(),
            digest: String::new(),
            headline: Headline::default(),
            trace_overhead_frac: 0.0,
        }
    });

    let mut metrics = Vec::new();
    let mut own = None;
    for (section, is_own) in [
        (sim, !own_sweep && !own_service),
        (sweep, own_sweep),
        (service, own_service),
    ] {
        metrics.extend(section.metrics);
        if is_own {
            own = Some((
                section.digest,
                section.headline,
                section.trace_overhead_frac,
            ));
        }
    }
    let (digest, headline, overhead) = own.expect("exactly one section is the workload's own");
    metrics.extend(probes::all(&sim_cfg, opts.seed));
    checks.pinned(opts, &digest, &headline);

    let unattributed = trace.unattributed_frac();
    if unattributed > 0.05 {
        eprintln!(
            "df-perf: {:.1} % of the traced spans' time is not attributed to a layer",
            unattributed * 100.0
        );
    }
    let path = opts.out_dir.join(format!("trace-{}.jsonl", opts.workload));
    if let Err(e) = trace.write(&path) {
        checks.attempt(1);
        checks.fail(format!("writing {}: {e}", path.display()));
    }

    let wall_s = secs(wall);
    metrics.extend([
        metric("bench.calib_ns", "ns", calib),
        metric(
            "bench.runq_wait_frac",
            "ratio",
            (runq_wait_ns() - runq0) as f64 / 1e9 / wall_s,
        ),
        metric("bench.trace_overhead_frac", "ratio", overhead),
        metric("bench.trace_unattributed_frac", "ratio", unattributed),
        metric("bench.reps", "count", 1.0),
        metric(
            "failed_ops_frac",
            "ratio",
            checks.failed as f64 / checks.attempted.max(1) as f64,
        ),
    ]);
    Detail::new(opts, 1, checks, digest, headline, metrics)
}
