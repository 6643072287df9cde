//! The traced replay: times each layer's public call on operands a real run
//! used, so per-layer costs come from outside the program with nothing
//! inside it instrumented.
//!
//! A traced run records every accepted state through an
//! [`exi_sim::Observer`]. [`replay`] re-evaluates the stamping plan at a
//! spread of those states (`EvalPlan::evaluate_into` yields the run's
//! `G`/`C`), then times the calls each layer makes per step on exactly those
//! matrices. [`LayerCosts::attributed_s`] multiplies each per-call cost by
//! the run's own `RunStats` call counts.

use std::hint::black_box;
use std::time::Instant;

use exi_krylov::{
    mevp_invert_krylov_with, InverseJacobianOperator, KrylovOperator, MevpOptions, MevpWorkspace,
    OperatorWorkspace,
};
use exi_netlist::EvalPlan;
use exi_sim::{Observer, RunStats, TransientOptions};
use exi_sparse::{CsrMatrix, LuOptions, LuWorkspace, SparseLu};

/// Accepted states replayed per run: evenly spread over the run so early
/// (switching) and late (settled) operands both count.
const REPLAY_SAMPLES: usize = 6;

/// Records every accepted `(t, x)` and the final state of one run.
#[derive(Default)]
pub struct StateRecorder {
    pub states: Vec<(f64, Vec<f64>)>,
    pub final_state: Vec<f64>,
    pub stats: RunStats,
}

impl Observer for StateRecorder {
    fn on_dc(&mut self, t0: f64, x0: &[f64]) {
        self.states.push((t0, x0.to_vec()));
    }

    fn on_step_accepted(&mut self, t: f64, x: &[f64]) {
        self.states.push((t, x.to_vec()));
    }

    fn on_finish(&mut self, final_state: &[f64], stats: &RunStats) {
        self.final_state = final_state.to_vec();
        self.stats = stats.clone();
    }
}

/// Mean per-call cost of each layer on one run's operands, in seconds.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    pub evaluate: f64,
    pub factorize: f64,
    pub refactorize: f64,
    pub solve: f64,
    pub mevp: f64,
    pub mevp_dim: f64,
    pub operator: f64,
    pub projected: f64,
    pub factor_nnz: usize,
}

impl LayerCosts {
    /// Time attributed to the run: each layer's per-call cost times the
    /// run's own call counts. An MEVP call covers its operator
    /// applications and its projected problem.
    pub fn attributed_s(&self, stats: &RunStats) -> f64 {
        self.evaluate * stats.device_evaluations as f64
            + self.factorize * stats.symbolic_analyses as f64
            + self.refactorize * stats.lu_refactorizations as f64
            + self.solve * stats.linear_solves as f64
            + self.mevp * stats.krylov_subspaces as f64
    }

    /// Time attributed to MEVP work outside the operator applications: the
    /// m×m projected problem (Eq. 22 residuals, φ evaluations) plus the
    /// Gram–Schmidt sweeps.
    pub fn projected_attributed_s(&self, stats: &RunStats) -> f64 {
        (self.mevp - self.mevp_dim * self.operator).max(0.0) * stats.krylov_subspaces as f64
    }
}

/// Per-call time of `f`: repeated until at least a millisecond has passed
/// (or 200 calls), so sub-microsecond calls are not lost to timer
/// resolution.
fn per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= 1e-3 || calls >= 200 {
            return elapsed / f64::from(calls);
        }
    }
}

/// Times the layers on `states` (a traced run's accepted states). For an
/// exponential method the factored matrix is `G`; for Backward Euler it is
/// the Newton matrix `C/h + G`, with `h` the step that led to each state.
/// Each MEVP is built to `krylov_dim`, the run's own mean dimension, with
/// the Eq. (22) residual evaluated at every dimension as the engine does.
pub fn replay(
    plan: &EvalPlan,
    states: &[(f64, Vec<f64>)],
    exponential: bool,
    options: &TransientOptions,
    krylov_dim: usize,
) -> LayerCosts {
    let mut costs = LayerCosts::default();
    let picks = sample_indices(states.len(), REPLAY_SAMPLES);
    if picks.is_empty() {
        return costs;
    }
    let lu_options = LuOptions {
        ordering: options.ordering,
        ..LuOptions::default()
    };
    let mevp_options = MevpOptions {
        tolerance: 0.0,
        max_dimension: krylov_dim.max(2),
        min_dimension: 2,
        allow_unconverged: true,
    };
    let mut eval_ws = plan.new_workspace();
    let mut eval = plan.new_evaluation();
    let mut lu_ws = LuWorkspace::new();
    let mut mevp_ws = MevpWorkspace::new();
    let mut op_ws = OperatorWorkspace::new();
    let n = plan.num_unknowns();
    let mut out = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut samples = 0.0;
    for &k in &picks {
        let x = &states[k].1;
        let h = step_before(states, k).max(options.h_min);
        costs.evaluate += per_call(|| {
            plan.evaluate_into(black_box(x), &mut eval_ws, &mut eval)
                .expect("the plan evaluates at a state the run accepted");
        });
        let matrix = if exponential {
            eval.g.clone()
        } else {
            CsrMatrix::linear_combination(1.0 / h, &eval.c, 1.0, &eval.g)
                .expect("C and G share a dimension")
        };
        let mut fresh = None;
        costs.factorize += per_call(|| {
            fresh = Some(
                SparseLu::factorize_with(black_box(&matrix), &lu_options)
                    .expect("the run factored this matrix"),
            );
        });
        let mut lu = fresh.expect("at least one factorization");
        costs.factor_nnz = costs.factor_nnz.max(lu.nnz_l() + lu.nnz_u());
        costs.refactorize += per_call(|| {
            lu.refactorize_with(black_box(&matrix), &mut lu_ws)
                .expect("numeric refactorization on the same pattern");
        });
        let rhs: Vec<f64> = if eval.f.iter().any(|&f| f != 0.0) {
            eval.f.clone()
        } else {
            vec![1.0; n]
        };
        costs.solve += per_call(|| {
            lu.solve_into(black_box(&rhs), &mut out, &mut lu_ws)
                .expect("solve with a fresh factor");
        });
        if exponential {
            v.copy_from_slice(&out);
            costs.mevp += per_call(|| {
                let outcome = mevp_invert_krylov_with(
                    &eval.c,
                    &eval.g,
                    &lu,
                    black_box(&v),
                    h,
                    &mevp_options,
                    &mut mevp_ws,
                )
                .expect("MEVP on the run's own operands");
                mevp_ws.recycle(outcome.decomposition);
            });
            let outcome =
                mevp_invert_krylov_with(&eval.c, &eval.g, &lu, &v, h, &mevp_options, &mut mevp_ws)
                    .expect("MEVP on the run's own operands");
            costs.mevp_dim += outcome.dimension as f64;
            let operator = InverseJacobianOperator::new(&eval.c, &lu);
            costs.operator += per_call(|| {
                operator
                    .apply_into(black_box(&v), &mut out, &mut op_ws)
                    .expect("operator application");
            });
            let decomposition = outcome.decomposition;
            costs.projected += per_call(|| {
                black_box(decomposition.residual_scalar(h).unwrap_or(0.0));
                decomposition
                    .eval_phi_into(1, h, &mut out)
                    .expect("phi_1 on the returned decomposition");
            });
            mevp_ws.recycle(decomposition);
        }
        samples += 1.0;
    }
    for value in [
        &mut costs.evaluate,
        &mut costs.factorize,
        &mut costs.refactorize,
        &mut costs.solve,
        &mut costs.mevp,
        &mut costs.mevp_dim,
        &mut costs.operator,
        &mut costs.projected,
    ] {
        *value /= samples;
    }
    costs
}

/// The step size that led to state `k` (the first step for the DC point).
fn step_before(states: &[(f64, Vec<f64>)], k: usize) -> f64 {
    match k {
        0 if states.len() > 1 => states[1].0 - states[0].0,
        0 => 0.0,
        _ => states[k].0 - states[k - 1].0,
    }
}

/// Up to `count` indices spread evenly over `0..len`, first and last
/// included.
fn sample_indices(len: usize, count: usize) -> Vec<usize> {
    match count.min(len) {
        0 => Vec::new(),
        1 => vec![0],
        c => (0..c).map(|i| i * (len - 1) / (c - 1)).collect(),
    }
}

/// Sums of per-layer quantities over many replayed runs, weighted by each
/// run's call counts so a per-call mean reflects where calls were made.
#[derive(Default)]
pub struct LayerTotals {
    pub evaluate_s: f64,
    pub factorize_s: f64,
    pub refactorize_s: f64,
    pub solve_s: f64,
    pub mevp_s: f64,
    pub operator_s: f64,
    pub projected_s: f64,
    pub projected_attributed_s: f64,
    pub exponential_wall_s: f64,
    pub factorize_calls: usize,
    /// The largest factor replayed: the section's LU working set.
    pub factor_nnz: usize,
    pub attributed_s: f64,
    pub untraced_s: f64,
    pub traced_s: f64,
    pub stats: RunStats,
}

impl LayerTotals {
    /// Adds one run: its replayed costs, its counts, and — when the run's
    /// time can be attributed from per-call costs — its untraced and traced
    /// wall times for coverage and overhead.
    pub fn add(
        &mut self,
        costs: &LayerCosts,
        stats: &RunStats,
        exponential: bool,
        wall: Option<(f64, f64)>,
    ) {
        self.evaluate_s += costs.evaluate * stats.device_evaluations as f64;
        // A batch job whose analysis the runner pre-published counts none;
        // its fresh factorization still stands for the fleet's one.
        self.factorize_s += costs.factorize * stats.symbolic_analyses.max(1) as f64;
        self.factorize_calls += stats.symbolic_analyses.max(1);
        self.refactorize_s += costs.refactorize * stats.lu_refactorizations as f64;
        self.solve_s += costs.solve * stats.linear_solves as f64;
        self.mevp_s += costs.mevp * stats.krylov_subspaces as f64;
        self.operator_s += costs.operator * stats.krylov_dimension_total as f64;
        self.projected_s += costs.projected * stats.krylov_subspaces as f64;
        self.factor_nnz = self.factor_nnz.max(costs.factor_nnz);
        if let Some((untraced_s, traced_s)) = wall {
            if exponential {
                self.projected_attributed_s += costs.projected_attributed_s(stats);
                self.exponential_wall_s += untraced_s;
            }
            self.attributed_s += costs.attributed_s(stats);
            self.untraced_s += untraced_s;
            self.traced_s += traced_s;
        }
        self.stats.absorb(stats);
    }

    /// The per-layer metrics, as `(name, value)` pairs.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let s = &self.stats;
        let per = |total: f64, calls: usize, scale: f64| {
            if calls == 0 {
                0.0
            } else {
                total / calls as f64 * scale
            }
        };
        vec![
            (
                "netlist.plan.evaluate_us",
                per(self.evaluate_s, s.device_evaluations, 1e6),
            ),
            ("netlist.plan.evaluate_calls", s.device_evaluations as f64),
            ("netlist.plan.restamped_entries", s.restamped_entries as f64),
            ("sparse.lu.symbolic_analyses", s.symbolic_analyses as f64),
            (
                "sparse.lu.factorize_ms",
                per(self.factorize_s, self.factorize_calls, 1e3),
            ),
            (
                "sparse.lu.refactorize_us",
                per(self.refactorize_s, s.lu_refactorizations, 1e6),
            ),
            (
                "sparse.lu.solve_us",
                per(self.solve_s, s.linear_solves, 1e6),
            ),
            ("sparse.lu.factor_nnz", self.factor_nnz as f64),
            ("krylov.mevp_us", per(self.mevp_s, s.krylov_subspaces, 1e6)),
            ("krylov.mevp_calls", s.krylov_subspaces as f64),
            ("krylov.dim_mean", s.avg_krylov_dimension()),
            (
                "krylov.operator_us",
                per(self.operator_s, s.krylov_dimension_total, 1e6),
            ),
            (
                "krylov.projected_us",
                per(self.projected_s, s.krylov_subspaces, 1e6),
            ),
            (
                "krylov.projected_share",
                if self.exponential_wall_s > 0.0 {
                    self.projected_attributed_s / self.exponential_wall_s
                } else {
                    0.0
                },
            ),
            ("core.session.accepted_steps", s.accepted_steps as f64),
            ("core.session.rejected_steps", s.rejected_steps as f64),
            (
                "trace.coverage",
                if self.untraced_s > 0.0 {
                    self.attributed_s / self.untraced_s
                } else {
                    0.0
                },
            ),
            (
                "trace.overhead",
                if self.untraced_s > 0.0 {
                    self.traced_s / self.untraced_s - 1.0
                } else {
                    0.0
                },
            ),
        ]
    }
}
