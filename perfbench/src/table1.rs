//! The `table1` section: the paper's Table I comparison. Cases tc1–tc8
//! (`exi_bench::table1_cases`), each run with BENR, ER and ER-C in one
//! thread, in a fresh `Simulator` per run.

use std::time::Instant;

use exi_bench::runner::table1_options;
use exi_bench::{fig2_circuit, table1_cases, CaseSpec};
use exi_netlist::Circuit;
use exi_sim::{Method, RecoveryPolicy, SimError, Simulator, TransientOptions, TransientResult};
use exi_sparse::{CsrMatrix, SparseError, SparseLu};

use crate::replay::{replay, LayerTotals, StateRecorder};
use crate::util::{passes_within, peak_rss_mb, secs, setup_times, timed, Report, Rng};

/// Structural scale of the cases: one pass takes about three seconds on a
/// 2-CPU host, and it is the smallest scale at which the fill of tc5 and
/// tc6 still separates (at 0.2, tc6 fills less than tc5).
pub const SCALE: f64 = 0.25;

/// BENR's fill budget in LU nonzeros per unknown — the analogue of the
/// paper's memory limit. At `SCALE`, fill(C/h+G)/n is 9.8 on tc4, 9.3 on
/// tc5 and 12.2 on tc6, so 11 refuses exactly the cases Table I reports
/// "Out of Memory". The seed varies element values, not structure, so the
/// fill does not move with it.
pub const BENR_FILL_PER_UNKNOWN: usize = 11;

/// Largest accepted probe difference, in volts (the drivers swing 1 V),
/// between ER or ER-C and the case's BENR reference. It is set to catch a
/// broken waveform; ER's accuracy on ideal-source drivers is tracked by the
/// `er_ideal_source_error` known failure against `ACCURACY_TARGET_V`.
pub const WAVEFORM_TOLERANCE_V: f64 = 0.15;

/// The accuracy ER and ER-C should reach against BENR at the Table I
/// settings: BENR itself stays within 0.01 V of a tight (1e-5) reference on
/// every case, and ER does on the MOSFET-driven ones.
pub const ACCURACY_TARGET_V: f64 = 0.05;

const METHODS: [(Method, &str); 3] = [
    (Method::BackwardEuler, "BENR"),
    (Method::ExponentialRosenbrock, "ER"),
    (Method::ExponentialRosenbrockCorrected, "ER-C"),
];

struct Case {
    spec: CaseSpec,
    circuit: Circuit,
    probe: String,
}

enum Outcome {
    Completed(Box<TransientResult>),
    Refused,
    Failed(String),
}

struct Run {
    case: usize,
    method: usize,
    outcome: Outcome,
    wall_s: f64,
}

/// The cases for `seed`: Table I's structures, with each case's segment
/// resistance and ground capacitance drawn within 1e-4 of nominal — enough
/// to change every waveform, small enough that adaptive step counts, and so
/// the work, stay put.
fn setup(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed, 1);
    table1_cases(SCALE)
        .into_iter()
        .map(|mut spec| {
            spec.spec.segment_resistance *= 1.0 + 1e-4 * (2.0 * rng.unit() - 1.0);
            spec.spec.ground_capacitance *= 1.0 + 1e-4 * (2.0 * rng.unit() - 1.0);
            let circuit = spec.build().expect("Table I cases build");
            circuit.compile_plan().expect("Table I cases compile");
            let probe = spec.observed_node();
            Case {
                spec,
                circuit,
                probe,
            }
        })
        .collect()
}

fn options(case: &Case, method: Method) -> TransientOptions {
    let budget = (method == Method::BackwardEuler)
        .then(|| BENR_FILL_PER_UNKNOWN * case.circuit.num_unknowns());
    table1_options(case.spec.t_stop, budget)
}

fn run_one(cases: &[Case], case: usize, method: usize) -> Run {
    let c = &cases[case];
    let mut sim = Simulator::new(&c.circuit);
    let start = Instant::now();
    let result = sim.transient(
        METHODS[method].0,
        &options(c, METHODS[method].0),
        &[&c.probe],
    );
    let wall_s = secs(start);
    let outcome = match result {
        Ok(result) => Outcome::Completed(Box::new(result)),
        Err(SimError::Sparse(SparseError::FillBudgetExceeded { .. })) => Outcome::Refused,
        Err(e) => Outcome::Failed(e.to_string()),
    };
    Run {
        case,
        method,
        outcome,
        wall_s,
    }
}

fn run_pass(cases: &[Case]) -> Vec<Run> {
    (0..cases.len())
        .flat_map(|case| (0..METHODS.len()).map(move |method| (case, method)))
        .map(|(case, method)| run_one(cases, case, method))
        .collect()
}

/// Per-method wall seconds of one pass, summed over completed runs.
fn method_sums(pass: &[Run]) -> [f64; 3] {
    let mut sums = [0.0; 3];
    for run in pass {
        if matches!(run.outcome, Outcome::Completed(_)) {
            sums[run.method] += run.wall_s;
        }
    }
    sums
}

/// Checks every run of the first pass: BENR's outcome against the case's
/// `benr_expected_infeasible` flag, ER/ER-C completion, and each ER/ER-C
/// probe waveform against the case's BENR run (run without the fill budget
/// where the budget refuses it). Later passes must reproduce the first bit
/// for bit. Returns ER's largest error on the ideal-source cases.
fn check(cases: &[Case], passes: &[Vec<Run>], report: &mut Report) -> f64 {
    let first = &passes[0];
    let mut ideal_source_error: f64 = 0.0;
    for (index, case) in cases.iter().enumerate() {
        let runs = &first[index * METHODS.len()..(index + 1) * METHODS.len()];
        let unbudgeted;
        let reference = match &runs[0].outcome {
            Outcome::Completed(benr) => Some(&**benr),
            _ => {
                unbudgeted = Simulator::new(&case.circuit)
                    .transient(
                        Method::BackwardEuler,
                        &table1_options(case.spec.t_stop, None),
                        &[&case.probe],
                    )
                    .ok();
                unbudgeted.as_ref()
            }
        };
        for run in runs {
            let name = format!("{} {}", case.spec.name, METHODS[run.method].1);
            let expect_refusal = run.method == 0 && case.spec.benr_expected_infeasible;
            match (&run.outcome, expect_refusal) {
                (Outcome::Refused, true) => report.check(true, String::new),
                (Outcome::Completed(_), false) if run.method == 0 => {
                    report.check(true, String::new)
                }
                (Outcome::Completed(result), false) => {
                    let error = reference.map_or(f64::INFINITY, |r| result.max_error_vs(r, 0));
                    if !case.spec.spec.mosfet_drivers {
                        ideal_source_error = ideal_source_error.max(error);
                    }
                    report.check(error <= WAVEFORM_TOLERANCE_V, || {
                        format!("{name}: probe differs from BENR by {error:.3e} V")
                    });
                }
                (Outcome::Completed(_), true) => report.check(false, || {
                    format!("{name}: completed, but Table I expects Out of Memory")
                }),
                (Outcome::Refused, false) => {
                    report.check(false, || format!("{name}: refused by the fill budget"))
                }
                (Outcome::Failed(e), _) => report.check(false, || format!("{name}: {e}")),
            }
        }
    }
    for pass in &passes[1..] {
        for (run, base) in pass.iter().zip(first) {
            let same = match (&run.outcome, &base.outcome) {
                (Outcome::Completed(a), Outcome::Completed(b)) => {
                    a.stats.accepted_steps == b.stats.accepted_steps
                        && a.final_state == b.final_state
                }
                (Outcome::Refused, Outcome::Refused) => true,
                _ => false,
            };
            report.check(same, || {
                format!(
                    "{} {}: a repeated run did not reproduce the first",
                    cases[run.case].spec.name, METHODS[run.method].1
                )
            });
        }
    }
    ideal_source_error
}

/// The named known defects, reported rather than counted as failures, so
/// a fix shows up as a status change:
///
/// * `fig2_plain_dc_n14`: `fig2_circuit(n)` fails plain DC for n >= 14,
///   passes at 12, and passes with `RecoveryPolicy::standard()`.
/// * `er_ideal_source_error`: on the ideal-source cases (tc3, tc5) ER and
///   ER-C miss `ACCURACY_TARGET_V` against BENR at the Table I settings.
fn known_failures(ideal_source_error: f64, report: &mut Report) {
    let dc = |stages: usize, policy: RecoveryPolicy| {
        let circuit = fig2_circuit(stages).expect("the Fig. 2 chain builds");
        Simulator::new(&circuit)
            .with_recovery_policy(policy)
            .dc()
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    let plain_14 = dc(14, RecoveryPolicy::off());
    let plain_12 = dc(12, RecoveryPolicy::off());
    let recovered_14 = dc(14, RecoveryPolicy::standard());
    let status = match (&plain_14, &plain_12, &recovered_14) {
        (Err(_), Ok(()), Ok(())) => "still_failing",
        (Ok(()), Ok(()), Ok(())) => "fixed",
        _ => "changed",
    };
    let detail = match &plain_14 {
        Err(e) => e.lines().next().unwrap_or_default().to_string(),
        Ok(()) => "plain DC now converges".to_string(),
    };
    report
        .known_failures
        .push(("fig2_plain_dc_n14".to_string(), status.to_string(), detail));
    let status = if ideal_source_error > ACCURACY_TARGET_V {
        "still_failing"
    } else {
        "fixed"
    };
    report.known_failures.push((
        "er_ideal_source_error".to_string(),
        status.to_string(),
        format!(
            "ER/ER-C max probe error vs BENR on tc3/tc5 is {ideal_source_error:.4} V (target {ACCURACY_TARGET_V} V)"
        ),
    ));
}

/// Bytes of the LU factors of `G` and of BENR's `C/h_init + G` over the
/// cases: the section's working set, set against the host caches in
/// BENCHMARK.md.
fn working_set(cases: &[Case]) -> (usize, usize) {
    let mut g_bytes = 0;
    let mut benr_bytes = 0;
    for case in cases {
        let n = case.circuit.num_unknowns();
        let plan = case.circuit.compile_plan().expect("case compiles");
        let eval = plan.evaluate(&vec![0.0; n]).expect("case evaluates");
        let h = options(case, Method::BackwardEuler).h_init;
        let newton = CsrMatrix::linear_combination(1.0 / h, &eval.c, 1.0, &eval.g)
            .expect("C and G share a dimension");
        let bytes =
            |m: &CsrMatrix| SparseLu::factorize(m).map_or(0, |lu| (lu.nnz_l() + lu.nnz_u()) * 16);
        g_bytes += bytes(&eval.g);
        benr_bytes += bytes(&newton);
    }
    (g_bytes, benr_bytes)
}

pub fn run(seed: u64, budget_s: f64, trace: bool, setup_repeats: usize) -> Report {
    let mut report = Report::default();
    let (cases, setup_s) = timed(|| setup(seed));
    if trace {
        traced(&cases, &mut report);
        return report;
    }
    // Peak memory is read after the first pass: later passes repeat the
    // same work, and allocator growth across them would make the figure
    // depend on how many passes fit.
    let mut rss = None;
    let passes = passes_within(budget_s, 1, || {
        let pass = run_pass(&cases);
        rss.get_or_insert_with(|| peak_rss_mb(std::process::id()));
        pass
    });
    // Every completed run is a sample of its own, keyed by case: the parent
    // takes each case's second slowest run and sums over the cases
    // (BENCHMARK.md, "Host speed", says why).
    for (k, pass) in passes.iter().enumerate() {
        let [benr, er, erc] = method_sums(pass);
        eprintln!("table1 pass {k}: BENR {benr:.4} s, ER {er:.4} s, ER-C {erc:.4} s");
        for run in pass {
            if matches!(run.outcome, Outcome::Completed(_)) {
                let stream = ["benr_s", "er_s", "erc_s"][run.method];
                let case = &cases[run.case].spec.name;
                report.sample(&format!("{stream}/{case}"), run.wall_s);
            }
        }
    }
    for t in setup_times(setup_s, setup_repeats, || setup(seed)) {
        report.sample("setup_s", t);
    }
    report.sample("peak_rss_mb", rss.expect("at least one pass"));
    let ideal_source_error = check(&cases, &passes, &mut report);
    known_failures(ideal_source_error, &mut report);
    let (g_bytes, benr_bytes) = working_set(&cases);
    eprintln!(
        "table1: scale {SCALE}, {} passes, working set: G factors {:.1} KiB, BENR factors {:.1} KiB",
        passes.len(),
        g_bytes as f64 / 1024.0,
        benr_bytes as f64 / 1024.0
    );
    for (case, c) in cases.iter().enumerate() {
        let cells: Vec<String> = METHODS
            .iter()
            .enumerate()
            .map(
                |(m, (_, name))| match &passes[0][case * METHODS.len() + m].outcome {
                    Outcome::Completed(r) => format!(
                        "{name} {:.3}s {} steps m {:.1}",
                        passes[0][case * METHODS.len() + m].wall_s,
                        r.stats.accepted_steps,
                        r.stats.avg_krylov_dimension()
                    ),
                    Outcome::Refused => format!("{name} Out of Memory"),
                    Outcome::Failed(e) => format!("{name} failed: {e}"),
                },
            )
            .collect();
        eprintln!(
            "  {} n={}: {}",
            c.spec.name,
            c.circuit.num_unknowns(),
            cells.join(" | ")
        );
    }
    report
}

/// The traced run: one untraced pass, then every completed run again with
/// a [`StateRecorder`], which must reproduce the untraced run's steps,
/// final state and call counts exactly; then the layer replay on the
/// recorded operands. Each traced run is timed right after an untraced
/// repeat of the same run, so the two see the same state of the host.
fn traced(cases: &[Case], report: &mut Report) {
    let untraced = run_pass(cases);
    let mut totals = LayerTotals::default();
    let mut compile_s = Vec::new();
    for run in &untraced {
        let case = &cases[run.case];
        let (method, name) = METHODS[run.method];
        let Outcome::Completed(result) = &run.outcome else {
            let expected = matches!(run.outcome, Outcome::Refused)
                && run.method == 0
                && case.spec.benr_expected_infeasible;
            report.check(expected, || {
                format!("{} {name}: did not complete", case.spec.name)
            });
            continue;
        };
        let options = options(case, method);
        let untraced_s = run_one(cases, run.case, run.method).wall_s;
        let mut recorder = StateRecorder::default();
        let start = Instant::now();
        let traced =
            Simulator::new(&case.circuit).transient_observed(method, &options, &mut recorder);
        let traced_s = secs(start);
        let same = traced.is_ok()
            && same_counts(&recorder.stats, &result.stats)
            && recorder.final_state == result.final_state;
        report.check(same, || {
            format!(
                "{} {name}: the traced run diverged from the untraced run",
                case.spec.name
            )
        });
        let start = Instant::now();
        let plan = case.circuit.compile_plan().expect("case compiles");
        compile_s.push(secs(start));
        let exponential = method != Method::BackwardEuler;
        let krylov_dim = result.stats.avg_krylov_dimension().round() as usize;
        let costs = replay(&plan, &recorder.states, exponential, &options, krylov_dim);
        totals.add(
            &costs,
            &result.stats,
            exponential,
            Some((untraced_s, traced_s)),
        );
    }
    for (name, value) in totals.metrics() {
        report.metric(name, value);
    }
    report.metric(
        "netlist.plan.compile_ms",
        crate::util::mean(&compile_s) * 1e3,
    );
}

/// The exact counters a replay multiplies by: they must repeat between a
/// traced and an untraced run of the same inputs.
pub fn same_counts(a: &exi_sim::RunStats, b: &exi_sim::RunStats) -> bool {
    (
        a.accepted_steps,
        a.rejected_steps,
        a.newton_iterations,
        a.lu_factorizations,
        a.symbolic_analyses,
        a.lu_refactorizations,
        a.linear_solves,
        a.device_evaluations,
        a.restamped_entries,
        a.krylov_subspaces,
        a.krylov_dimension_total,
    ) == (
        b.accepted_steps,
        b.rejected_steps,
        b.newton_iterations,
        b.lu_factorizations,
        b.symbolic_analyses,
        b.lu_refactorizations,
        b.linear_solves,
        b.device_evaluations,
        b.restamped_entries,
        b.krylov_subspaces,
        b.krylov_dimension_total,
    )
}
