//! The `sweep` section: batch throughput on linear RC meshes, in two
//! `BatchRunner` fleets of two workers each.
//!
//! * The grid fleet: ER corners on a 100×100 mesh (10 002 unknowns), whose
//!   LU factors outgrow a 2 MiB L2. Time goes to `sparse.lu` and the
//!   Arnoldi solves; the projected problem is small.
//! * The lane fleet: same-fingerprint BENR corners on a 40×40 mesh under
//!   `LanePolicy::Auto`, where one refactorization pass covers K lanes.

use std::time::Instant;

use exi_netlist::generators::{rc_mesh, RcMeshSpec};
use exi_sim::{
    BatchJob, BatchPlan, BatchResult, BatchRunner, LanePolicy, Method, Simulator, TransientOptions,
    TransientResult,
};

use crate::replay::{replay, LayerTotals, StateRecorder};
use crate::table1::same_counts;
use crate::util::{passes_within, peak_rss_mb, secs, setup_times, timed, Report, Rng};

const WORKERS: usize = 2;
const GRID_SIDE: usize = 100;
const GRID_JOBS: usize = 2;
const GRID_T_STOP: f64 = 4e-12;
const LANE_SIDE: usize = 40;
const LANE_JOBS: usize = 16;
const LANE_T_STOP: f64 = 1e-10;

/// Largest accepted difference, in volts, between a grid corner's probe and
/// corner 0's: the corners simulate one circuit under different error
/// budgets, so they differ only by integration error.
const GRID_TOLERANCE_V: f64 = 2e-3;

/// Largest accepted difference, in volts, between a lane corner's probe and
/// corner 0's scaled by the amplitude ratio. The mesh is linear, so lanes
/// that step in lockstep agree to rounding.
const LANE_TOLERANCE_V: f64 = 1e-9;

struct Fleets {
    grid: BatchPlan,
    lanes: BatchPlan,
    amplitudes: Vec<f64>,
}

fn far_corner(side: usize) -> String {
    format!("m_{}_{}", side - 1, side - 1)
}

/// The two fleets for `seed`: grid corners draw their error budgets, lane
/// corners their drive amplitudes (within 1e-4 of 1 V, so the lanes stay in
/// lockstep).
fn setup(seed: u64) -> Fleets {
    let mut rng = Rng::new(seed, 2);
    let mut grid = BatchPlan::new();
    for k in 0..GRID_JOBS {
        let circuit = rc_mesh(&RcMeshSpec {
            rows: GRID_SIDE,
            cols: GRID_SIDE,
            ..RcMeshSpec::default()
        })
        .expect("mesh builds");
        let options = TransientOptions {
            t_stop: GRID_T_STOP,
            h_init: 1e-12,
            h_max: 2e-11,
            error_budget: 1e-3 * (0.9 + 0.2 * rng.unit()),
            ..TransientOptions::default()
        };
        grid.push(
            BatchJob::new(
                format!("grid{k}"),
                circuit,
                Method::ExponentialRosenbrock,
                options,
            )
            .probe(far_corner(GRID_SIDE)),
        );
    }
    let mut lanes = BatchPlan::new();
    let mut amplitudes = Vec::with_capacity(LANE_JOBS);
    for k in 0..LANE_JOBS {
        let amplitude = 1.0 + 1e-4 * rng.unit();
        amplitudes.push(amplitude);
        let circuit = rc_mesh(&RcMeshSpec {
            rows: LANE_SIDE,
            cols: LANE_SIDE,
            amplitude,
            ..RcMeshSpec::default()
        })
        .expect("mesh builds");
        let options = TransientOptions {
            t_stop: LANE_T_STOP,
            h_init: 1e-12,
            h_max: 2e-11,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        lanes.push(
            BatchJob::new(format!("lane{k}"), circuit, Method::BackwardEuler, options)
                .probe(far_corner(LANE_SIDE)),
        );
    }
    Fleets {
        grid,
        lanes,
        amplitudes,
    }
}

fn run_fleet(plan: &BatchPlan, lanes: LanePolicy) -> (BatchResult, f64) {
    let runner = BatchRunner::new()
        .worker_threads(WORKERS)
        .lane_policy(lanes);
    let start = Instant::now();
    let result = runner.run(plan);
    (result, secs(start))
}

struct Pass {
    grid: BatchResult,
    grid_s: f64,
    lanes: BatchResult,
    lanes_s: f64,
}

fn run_pass(fleets: &Fleets) -> Pass {
    let (grid, grid_s) = run_fleet(&fleets.grid, LanePolicy::Off);
    let (lanes, lanes_s) = run_fleet(&fleets.lanes, LanePolicy::Auto);
    Pass {
        grid,
        grid_s,
        lanes,
        lanes_s,
    }
}

fn recorded(result: &BatchResult, job: usize) -> Option<&TransientResult> {
    result.jobs[job].recorded()
}

fn same_waveform(a: &TransientResult, b: &TransientResult) -> bool {
    a.times == b.times && a.samples == b.samples && a.final_state == b.final_state
}

/// An in-process scalar `Simulator` run of one batch job: the reference a
/// batch or lane result must equal bit for bit.
fn scalar_run(plan: &BatchPlan, job: usize) -> (TransientResult, f64) {
    let job = &plan.jobs()[job];
    let probes: Vec<&str> = job.probes.iter().map(String::as_str).collect();
    let start = Instant::now();
    let result = Simulator::new(&job.circuit)
        .transient(job.method, &job.options, &probes)
        .expect("the scalar reference run completes");
    (result, secs(start))
}

/// Checks every job: completion, agreement with corner 0 within the stated
/// tolerance, bit-identity of one seeded corner per fleet with a scalar
/// in-process run, and bit-identity of later passes with the first.
fn check(fleets: &Fleets, passes: &[Pass], seed: u64, report: &mut Report) {
    let first = &passes[0];
    let mut rng = Rng::new(seed, 3);
    for (fleet, result, tolerance) in [
        ("grid", &first.grid, GRID_TOLERANCE_V),
        ("lane", &first.lanes, LANE_TOLERANCE_V),
    ] {
        let Some(base) = recorded(result, 0) else {
            report.check(false, || {
                format!("{fleet} corner 0 failed: {:?}", result.jobs[0].error())
            });
            continue;
        };
        for (k, job) in result.jobs.iter().enumerate() {
            let error = match job.recorded() {
                Some(r) if fleet == "lane" => {
                    let ratio = fleets.amplitudes[k] / fleets.amplitudes[0];
                    base.times
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| (r.sample_at(0, t) - ratio * base.samples[i][0]).abs())
                        .fold(0.0, f64::max)
                }
                Some(r) => r.max_error_vs(base, 0),
                None => f64::INFINITY,
            };
            report.check(error <= tolerance, || {
                format!(
                    "{fleet} corner {k}: {error:.3e} V from corner 0 ({:?})",
                    job.error()
                )
            });
        }
    }
    for (fleet, plan, result, jobs) in [
        ("grid", &fleets.grid, &first.grid, GRID_JOBS),
        ("lane", &fleets.lanes, &first.lanes, LANE_JOBS),
    ] {
        let k = rng.range(0, jobs - 1);
        let (reference, _) = scalar_run(plan, k);
        let same = recorded(result, k).is_some_and(|r| same_waveform(r, &reference));
        report.check(same, || {
            format!("{fleet} corner {k}: batch result differs from a scalar Simulator run")
        });
    }
    for pass in &passes[1..] {
        for (fleet, result, base) in [
            ("grid", &pass.grid, &first.grid),
            ("lane", &pass.lanes, &first.lanes),
        ] {
            for k in 0..result.jobs.len() {
                let same = match (recorded(result, k), recorded(base, k)) {
                    (Some(a), Some(b)) => same_waveform(a, b),
                    _ => false,
                };
                report.check(same, || {
                    format!("{fleet} corner {k}: a repeated fleet did not reproduce the first")
                });
            }
        }
    }
}

pub fn run(seed: u64, budget_s: f64, trace: bool, setup_repeats: usize) -> Report {
    let mut report = Report::default();
    let (fleets, setup_s) = timed(|| setup(seed));
    if trace {
        traced(&fleets, &mut report);
        return report;
    }
    // Peak memory is read after the first pass: later passes repeat the
    // same work, and allocator growth across them would make the figure
    // depend on how many passes fit.
    let mut rss = None;
    let passes = passes_within(budget_s, 2, || {
        let pass = run_pass(&fleets);
        rss.get_or_insert_with(|| peak_rss_mb(std::process::id()));
        pass
    });
    // The first fleets of a process run cold — first touch of the 20 MiB
    // factors, first worker threads — and read about a third slower. They
    // warm the process up; the later passes are the measurement, and the
    // parent takes the slowest but one.
    for (k, pass) in passes.iter().enumerate() {
        let grid = GRID_JOBS as f64 / pass.grid_s;
        let lanes = LANE_JOBS as f64 / pass.lanes_s;
        eprintln!("sweep pass {k}: grid {grid:.4} jobs/s, lanes {lanes:.4} jobs/s");
        if k > 0 {
            report.sample("grid_jobs_per_s", grid);
            report.sample("lane_jobs_per_s", lanes);
        }
    }
    for t in setup_times(setup_s, setup_repeats, || setup(seed)) {
        report.sample("setup_s", t);
    }
    report.sample("peak_rss_mb", rss.expect("at least one pass"));
    check(&fleets, &passes, seed, &mut report);
    let first = &passes[0];
    eprintln!(
        "sweep: {} passes; grid {}x{} ({} unknowns) {GRID_JOBS} ER jobs in {:.3} s, {} symbolic, \
         m {:.1}; lanes {}x{} {LANE_JOBS} BENR jobs in {:.3} s, {:.2} lanes/refactorization, {} detaches",
        passes.len(),
        GRID_SIDE,
        GRID_SIDE,
        GRID_SIDE * GRID_SIDE + 2,
        first.grid_s,
        first.grid.stats.symbolic_analyses,
        first.grid.stats.avg_krylov_dimension(),
        LANE_SIDE,
        LANE_SIDE,
        first.lanes_s,
        first.lanes.stats.lanes_per_refactorization(),
        first.lanes.stats.lane_detaches,
    );
    report
}

/// The traced run: one untraced pass for the fleet counters, then one grid
/// corner and one lane corner again in process with a [`StateRecorder`];
/// each must reproduce its batch job's waveform and call counts. The layer
/// replay on the grid corner's operands is attributed to every grid job.
fn traced(fleets: &Fleets, report: &mut Report) {
    let pass = run_pass(fleets);
    let mut totals = LayerTotals::default();
    let mut compile_s = Vec::new();
    for (plan, result, exponential) in [
        (&fleets.grid, &pass.grid, true),
        (&fleets.lanes, &pass.lanes, false),
    ] {
        let job = &plan.jobs()[0];
        let (untraced, untraced_s) = scalar_run(plan, 0);
        let mut recorder = StateRecorder::default();
        let start = Instant::now();
        let traced = Simulator::new(&job.circuit).transient_observed(
            job.method,
            &job.options,
            &mut recorder,
        );
        let traced_s = secs(start);
        let batch = recorded(result, 0);
        report.check(
            traced.is_ok()
                && same_counts(&recorder.stats, &untraced.stats)
                && recorder.final_state == untraced.final_state
                && batch.is_some_and(|b| same_waveform(b, &untraced)),
            || {
                format!(
                    "{}: the traced run diverged from the untraced run",
                    job.label
                )
            },
        );
        let start = Instant::now();
        let eval_plan = job.circuit.compile_plan().expect("mesh compiles");
        compile_s.push(secs(start));
        let krylov_dim = untraced.stats.avg_krylov_dimension().round() as usize;
        let costs = replay(
            &eval_plan,
            &recorder.states,
            exponential,
            &job.options,
            krylov_dim,
        );
        // Every job of a fleet shares the corner's matrices, so its costs
        // stand for the fleet; each job contributes its own counts. Lane
        // jobs share each refactorization across their batch, which per-job
        // counts cannot attribute, so only the grid fleet enters coverage.
        for (k, outcome) in result.jobs.iter().enumerate() {
            let runtime = outcome.stats.runtime_seconds();
            let wall = match (exponential, k) {
                (false, _) => None,
                (true, 0) => Some((untraced_s, traced_s)),
                (true, _) => Some((runtime, runtime)),
            };
            totals.add(&costs, &outcome.stats, exponential, wall);
        }
    }
    // The fleets' own symbolic count replaces the per-job sum: the runner
    // pre-publishes each pattern's analysis outside any job.
    for (name, value) in totals.metrics() {
        if name != "sparse.lu.symbolic_analyses" {
            report.metric(name, value);
        }
    }
    let grid = &pass.grid.stats;
    let lanes = &pass.lanes.stats;
    let active = pass.grid.worker_active();
    let mean_active = crate::util::mean(&active);
    report.metric(
        "netlist.plan.compile_ms",
        crate::util::mean(&compile_s) * 1e3,
    );
    report.metric(
        "sparse.lu.symbolic_analyses",
        (grid.symbolic_analyses + lanes.symbolic_analyses) as f64,
    );
    report.metric(
        "sparse.shared.hits",
        (grid.shared_symbolic_hits + lanes.shared_symbolic_hits) as f64,
    );
    report.metric(
        "sparse.shared.wait_events",
        (grid.shared_symbolic_wait_events + lanes.shared_symbolic_wait_events) as f64,
    );
    report.metric(
        "core.batch.cache_wait_s",
        grid.cache_wait_seconds() + lanes.cache_wait_seconds(),
    );
    report.metric(
        "core.batch.worker_imbalance",
        if mean_active > 0.0 {
            active.iter().copied().fold(0.0, f64::max) / mean_active - 1.0
        } else {
            0.0
        },
    );
    report.metric(
        "sparse.lanes.lanes_per_refactorization",
        lanes.lanes_per_refactorization(),
    );
    report.metric(
        "sparse.lanes.passes",
        lanes.lane_refactorization_passes as f64,
    );
    report.metric("core.lanes.detaches", lanes.lane_detaches as f64);
}
