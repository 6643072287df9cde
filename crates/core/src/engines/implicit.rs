//! Low-order implicit integration: backward Euler and trapezoidal rule with
//! Newton–Raphson iterations (the paper's BENR baseline, Sec. II-A).
//!
//! Every Newton iteration assembles and LU-factorizes the combined matrix
//! `C(x)/h + θ·G(x)` — the operation whose cost (and factor fill, Fig. 1)
//! the exponential framework avoids. The *sparsity pattern* of that matrix is
//! nevertheless fixed as long as exact cancellations do not occur, so the
//! baseline also benefits from the cached symbolic analysis: after the first
//! Newton iteration the factorizations run through the numeric-only
//! refactorization path (for any step size `h` — the pattern of `C/h + G`
//! does not depend on `h`). The remaining per-iteration cost asymmetry
//! against ER is the *numeric* elimination on the much denser factors, which
//! is exactly the paper's argument.
//!
//! The engine is exposed as the incremental [`ImplicitStepper`] (one accepted
//! step per [`Engine::advance`] call); one-shot runs go through
//! [`crate::Simulator::transient`].

use std::sync::Arc;
use std::time::Instant;

use exi_netlist::{Circuit, EvalPlan, Evaluation};
use exi_sparse::{vector, CsrMatrix, LuOptions};

use crate::engines::{clamp_step, prepare, reached_end, refresh_lu, Engine, StepOutcome};
use crate::error::{SimError, SimResult};
use crate::observer::Observer;
use crate::options::TransientOptions;
use crate::session::SessionCaches;
use crate::stats::RunStats;

/// Implicit one-step discretization parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImplicitScheme {
    /// Backward Euler (θ = 1), paper's BENR baseline.
    BackwardEuler,
    /// Trapezoidal rule (θ = ½).
    Trapezoidal,
}

impl ImplicitScheme {
    fn theta(self) -> f64 {
        match self {
            ImplicitScheme::BackwardEuler => 1.0,
            ImplicitScheme::Trapezoidal => 0.5,
        }
    }
}

/// Incremental implicit (BE or TR) stepper with Newton–Raphson iterations and
/// adaptive step control.
///
/// Created by [`Simulator::stepper`](crate::Simulator::stepper) with
/// [`Method::BackwardEuler`](crate::Method::BackwardEuler) or
/// [`Method::Trapezoidal`](crate::Method::Trapezoidal); driven through the
/// [`Engine`] trait. Each [`Engine::advance`] performs one accepted step
/// (with the full Newton/LTE retry loop inside). All hot-loop state lives in
/// the struct, so a paused stepper resumes bit-identically.
#[derive(Debug)]
pub struct ImplicitStepper<'a> {
    circuit: &'a Circuit,
    caches: &'a mut SessionCaches,
    /// The session's compiled stamping plan (shared handle; every Newton
    /// iteration restamps through it instead of COO assembly).
    plan: Arc<EvalPlan>,
    options: TransientOptions,
    theta: f64,
    lu_options: LuOptions,
    breakpoints: Vec<f64>,
    n: usize,
    // Circuit-sized scratch buffers, allocated once per stepper.
    eval_k: Evaluation,
    eval_i: Evaluation,
    /// Reusable buffer for the implicit Jacobian `C/h + θ·G`, combined
    /// value-wise over the evaluation's patterns without allocation.
    jac: CsrMatrix,
    u_k: Vec<f64>,
    u_next: Vec<f64>,
    bu_k: Vec<f64>,
    bu_next: Vec<f64>,
    xi: Vec<f64>,
    residual: Vec<f64>,
    delta: Vec<f64>,
    /// Previous derivative estimate used by the forward-Euler predictor for
    /// local-truncation-error control.
    prev_derivative: Option<Vec<f64>>,
    x: Vec<f64>,
    t: f64,
    h: f64,
    stats: RunStats,
    finished: bool,
    finalized: bool,
    assembly_alloc_baseline: usize,
}

impl<'a> ImplicitStepper<'a> {
    /// Builds a stepper over the session caches; `dc_stats` is the DC cost
    /// charged to this run (zeroed when the session reused a cached DC
    /// solution).
    pub(crate) fn new(
        circuit: &'a Circuit,
        caches: &'a mut SessionCaches,
        scheme: ImplicitScheme,
        options: TransientOptions,
        dc_stats: RunStats,
    ) -> SimResult<Self> {
        let breakpoints = prepare(circuit, &options)?;
        let n = circuit.num_unknowns();
        let lu_options = LuOptions {
            ordering: options.ordering,
            fill_budget: options.fill_budget,
            ..LuOptions::default()
        };
        let plan = Arc::clone(
            caches
                .plan
                .as_ref()
                .expect("session compiled the evaluation plan"),
        );
        let input_dim = plan.input_matrix().cols();
        let assembly_alloc_baseline = caches.eval_ws.allocations();
        Ok(ImplicitStepper {
            circuit,
            caches,
            options,
            theta: scheme.theta(),
            lu_options,
            breakpoints,
            n,
            eval_k: plan.new_evaluation(),
            eval_i: plan.new_evaluation(),
            jac: CsrMatrix::zeros(0, 0),
            u_k: vec![0.0; input_dim],
            u_next: vec![0.0; input_dim],
            bu_k: vec![0.0; n],
            bu_next: vec![0.0; n],
            xi: vec![0.0; n],
            plan,
            residual: vec![0.0; n],
            delta: vec![0.0; n],
            prev_derivative: None,
            x: vec![0.0; n],
            t: 0.0,
            h: 0.0,
            stats: dc_stats,
            finished: true, // until init() places the stepper
            finalized: false,
            assembly_alloc_baseline,
        })
    }
}

impl Engine for ImplicitStepper<'_> {
    fn init(&mut self, t0: f64, x0: &[f64], observer: &mut dyn Observer) -> SimResult<()> {
        if x0.len() != self.n {
            return Err(SimError::InvalidOptions {
                message: format!(
                    "initial state has {} entries, circuit has {} unknowns",
                    x0.len(),
                    self.n
                ),
            });
        }
        self.x.copy_from_slice(x0);
        self.t = t0;
        self.h = self.options.h_init;
        self.prev_derivative = None;
        self.finished = reached_end(t0, self.options.t_stop);
        self.finalized = false;
        self.stats.observer_callbacks += 1;
        observer.on_dc(t0, &self.x);
        Ok(())
    }

    fn advance(&mut self, observer: &mut dyn Observer) -> SimResult<StepOutcome> {
        // Runtime accumulates only active solver time; pauses between
        // advance() calls are not charged.
        let started = Instant::now();
        let result = self.advance_step(observer);
        self.stats.runtime += started.elapsed();
        result
    }

    fn state(&self) -> &[f64] {
        &self.x
    }

    fn time(&self) -> f64 {
        self.t
    }

    fn stats(&self) -> &RunStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    fn finish(&mut self, observer: &mut dyn Observer) -> RunStats {
        if !self.finalized {
            self.finalized = true;
            self.stats.assembly_workspace_allocations =
                self.caches.eval_ws.allocations() - self.assembly_alloc_baseline;
            self.stats.observer_callbacks += 1;
            observer.on_finish(&self.x, &self.stats);
        }
        self.stats.clone()
    }
}

impl ImplicitStepper<'_> {
    /// One accepted step of the θ-method (with its Newton/LTE retry loop).
    fn advance_step(&mut self, observer: &mut dyn Observer) -> SimResult<StepOutcome> {
        if self.finished {
            return Ok(StepOutcome::Finished);
        }
        let n = self.n;
        let theta = self.theta;
        let caches = &mut *self.caches;
        let plan = Arc::clone(&self.plan);

        self.stats.restamped_entries +=
            plan.evaluate_into(&self.x, &mut caches.eval_ws, &mut self.eval_k)?;
        self.stats.device_evaluations += 1;
        #[cfg(feature = "fault-injection")]
        crate::fault::on_device_eval(&mut self.eval_k);
        let b = plan.input_matrix();
        self.circuit.input_vector_into(self.t, &mut self.u_k);
        b.mul_vec_into(&self.u_k, &mut self.bu_k);

        loop {
            let h_step = clamp_step(
                self.t,
                self.h.min(self.options.h_max),
                self.options.t_stop,
                &self.breakpoints,
            );
            if h_step < self.options.h_min {
                return Err(SimError::StepSizeUnderflow {
                    time: self.t,
                    step: h_step,
                });
            }
            self.circuit
                .input_vector_into(self.t + h_step, &mut self.u_next);
            b.mul_vec_into(&self.u_next, &mut self.bu_next);

            // --- Newton–Raphson iterations for the implicit step. ---
            self.xi.copy_from_slice(&self.x);
            let mut converged = false;
            let mut iterations = 0usize;
            while iterations < self.options.newton_max_iterations {
                iterations += 1;
                self.stats.restamped_entries +=
                    plan.evaluate_into(&self.xi, &mut caches.eval_ws, &mut self.eval_i)?;
                self.stats.device_evaluations += 1;
                let ev = &self.eval_i;
                // Residual T(x) of Eq. (2) generalized to the θ-method.
                for i in 0..n {
                    self.residual[i] = (ev.q[i] - self.eval_k.q[i]) / h_step
                        + theta * (ev.f[i] - self.bu_next[i])
                        + (1.0 - theta) * (self.eval_k.f[i] - self.bu_k[i]);
                }
                // Jacobian C/h + θ·G — this is the matrix whose LU dominates
                // BENR's cost on densely coupled circuits. Combined
                // value-wise into the reusable buffer over the evaluation's
                // patterns (bit-identical to the allocating form).
                CsrMatrix::linear_combination_into(
                    1.0 / h_step,
                    &ev.c,
                    theta,
                    &ev.g,
                    &mut self.jac,
                )?;
                refresh_lu(
                    &mut caches.jac_lu,
                    &mut caches.retained,
                    caches.shared.as_deref(),
                    &self.jac,
                    &self.lu_options,
                    &mut caches.lu_ws,
                    &mut self.stats,
                )?;
                let lu = caches.jac_lu.get().expect("refresh_lu populated the cache");
                lu.solve_into(&self.residual, &mut self.delta, &mut caches.lu_ws)?;
                self.stats.linear_solves += 1;
                vector::scale(-1.0, &mut self.delta);
                let update = vector::norm_inf(&self.delta);
                vector::axpy(1.0, &self.delta, &mut self.xi);
                self.stats.newton_iterations += 1;
                if !update.is_finite() {
                    break;
                }
                if update < self.options.newton_tolerance {
                    converged = true;
                    break;
                }
            }

            if !converged {
                self.stats.rejected_steps += 1;
                self.stats.observer_callbacks += 1;
                observer.on_step_rejected(self.t, h_step);
                self.h *= self.options.shrink_factor;
                if self.h < self.options.h_min {
                    return Err(SimError::NewtonDidNotConverge {
                        time: self.t,
                        step: h_step,
                        iterations: self.options.newton_max_iterations,
                    });
                }
                continue;
            }

            // --- Local truncation error control via a forward-Euler predictor. ---
            let lte = match &self.prev_derivative {
                Some(dxdt) => {
                    let mut err = 0.0_f64;
                    for (i, d) in dxdt.iter().enumerate() {
                        let predicted = self.x[i] + h_step * d;
                        err = err.max((self.xi[i] - predicted).abs());
                    }
                    err * 0.5
                }
                None => 0.0,
            };
            if lte > self.options.error_budget && h_step > 2.0 * self.options.h_min {
                self.stats.rejected_steps += 1;
                self.stats.observer_callbacks += 1;
                observer.on_step_rejected(self.t, h_step);
                self.h = h_step * self.options.shrink_factor;
                continue;
            }

            // Accept the step.
            let mut derivative = self.prev_derivative.take().unwrap_or_else(|| vec![0.0; n]);
            for (i, d) in derivative.iter_mut().enumerate() {
                *d = (self.xi[i] - self.x[i]) / h_step;
            }
            self.prev_derivative = Some(derivative);
            std::mem::swap(&mut self.x, &mut self.xi);
            self.t += h_step;
            // Solution-boundary guard: a converged-but-non-finite Newton
            // state must surface as NonFinite, not propagate silently.
            if self.x.iter().any(|v| !v.is_finite()) {
                return Err(SimError::NonFinite {
                    time: self.t,
                    device: None,
                });
            }
            self.stats.accepted_steps += 1;
            self.stats.observer_callbacks += 1;
            #[cfg(feature = "fault-injection")]
            crate::fault::maybe_panic_on_accept();
            observer.on_step_accepted(self.t, &self.x);

            // Easy step: grow the step size for the next attempt.
            if iterations <= self.options.easy_step_threshold + 1
                && lte < 0.5 * self.options.error_budget
            {
                self.h = (h_step * self.options.growth_factor).min(self.options.h_max);
            } else {
                self.h = h_step;
            }

            if reached_end(self.t, self.options.t_stop) {
                self.finished = true;
            }
            return Ok(StepOutcome::Advanced {
                t: self.t,
                h: h_step,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::TransientResult;
    use crate::session::Simulator;
    use crate::transient::Method;
    use exi_netlist::{generators, Waveform};

    fn run_scheme(
        ckt: &Circuit,
        scheme: ImplicitScheme,
        options: &TransientOptions,
        probes: &[&str],
    ) -> SimResult<TransientResult> {
        let method = match scheme {
            ImplicitScheme::BackwardEuler => Method::BackwardEuler,
            ImplicitScheme::Trapezoidal => Method::Trapezoidal,
        };
        Simulator::new(ckt).transient(method, options, probes)
    }

    #[test]
    fn backward_euler_matches_rc_analytic_solution() {
        let (r, c, v) = (1e3, 1e-12, 1.0);
        let tau = r * c;
        let options = TransientOptions {
            t_stop: 5.0 * tau,
            h_init: tau / 200.0,
            h_max: tau / 100.0,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        // Use a fast PWL ramp so the interesting charging happens after t = 0
        // (a DC source would already be charged at the operating point).
        let mut ckt2 = Circuit::new();
        let vin = ckt2.node("in");
        let out = ckt2.node("out");
        let gnd = ckt2.node("0");
        ckt2.add_voltage_source(
            "V1",
            vin,
            gnd,
            Waveform::Pwl(vec![(0.0, 0.0), (tau * 1e-3, v)]),
        )
        .unwrap();
        ckt2.add_resistor("R1", vin, out, r).unwrap();
        ckt2.add_capacitor("C1", out, gnd, c).unwrap();
        let result = run_scheme(&ckt2, ImplicitScheme::BackwardEuler, &options, &["out"]).unwrap();
        let p = result.probe_index("out").unwrap();
        let t_check = 2.0 * tau;
        let expected = v * (1.0 - (-(t_check - tau * 1e-3) / tau).exp());
        let got = result.sample_at(p, t_check);
        assert!(
            (got - expected).abs() < 0.02,
            "got {got}, expected {expected}"
        );
        assert!(result.stats.accepted_steps > 100);
        assert!(result.stats.lu_factorizations >= result.stats.accepted_steps);
        // The Jacobian pattern is fixed: one symbolic analysis for the DC
        // solve, one for the transient Jacobian, everything else numeric.
        assert!(result.stats.symbolic_analyses <= 2, "{:?}", result.stats);
        assert!(result.stats.lu_refactorizations > result.stats.accepted_steps / 2);
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_backward_euler_at_equal_steps() {
        let (r, c, v) = (1e3, 1e-12, 1.0);
        let tau = r * c;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source(
            "V1",
            vin,
            gnd,
            Waveform::Pwl(vec![(0.0, 0.0), (tau * 1e-3, v)]),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, gnd, c).unwrap();
        let options = TransientOptions {
            t_stop: 3.0 * tau,
            h_init: tau / 20.0,
            h_max: tau / 20.0,
            error_budget: 1.0, // effectively disable LTE rejection for this comparison
            ..TransientOptions::default()
        };
        let be = run_scheme(&ckt, ImplicitScheme::BackwardEuler, &options, &["out"]).unwrap();
        let tr = run_scheme(&ckt, ImplicitScheme::Trapezoidal, &options, &["out"]).unwrap();
        let exact = |t: f64| v * (1.0 - (-(t - tau * 1e-3) / tau).exp());
        let p = be.probe_index("out").unwrap();
        let t_check = tau;
        let be_err = (be.sample_at(p, t_check) - exact(t_check)).abs();
        let tr_err = (tr.sample_at(p, t_check) - exact(t_check)).abs();
        assert!(tr_err < be_err, "tr {tr_err} should beat be {be_err}");
    }

    #[test]
    fn benr_counts_multiple_newton_iterations_on_nonlinear_circuits() {
        let spec = generators::InverterChainSpec {
            stages: 2,
            ..generators::InverterChainSpec::default()
        };
        let ckt = generators::inverter_chain(&spec).unwrap();
        let options = TransientOptions {
            t_stop: 2e-10,
            h_init: 2e-12,
            h_max: 1e-11,
            error_budget: 1e-2,
            ..TransientOptions::default()
        };
        let result =
            run_scheme(&ckt, ImplicitScheme::BackwardEuler, &options, &["s1", "s2"]).unwrap();
        assert!(result.stats.accepted_steps > 10);
        assert!(result.stats.avg_newton_iterations() >= 1.0);
        // Output of the first inverter should stay within the rails.
        let p = result.probe_index("s1").unwrap();
        for (_, value) in result.waveform(p) {
            assert!(value > -0.3 && value < 1.3, "s1 = {value}");
        }
    }

    #[test]
    fn fill_budget_failure_is_reported() {
        let spec = generators::CoupledLinesSpec {
            lines: 4,
            segments: 8,
            random_couplings: 60,
            mosfet_drivers: false,
            ..generators::CoupledLinesSpec::default()
        };
        let ckt = generators::coupled_lines(&spec).unwrap();
        let options = TransientOptions {
            t_stop: 1e-10,
            h_init: 1e-12,
            fill_budget: Some(10),
            ..TransientOptions::default()
        };
        let err = run_scheme(&ckt, ImplicitScheme::BackwardEuler, &options, &[]).unwrap_err();
        assert!(matches!(
            err,
            SimError::Sparse(exi_sparse::SparseError::FillBudgetExceeded { .. })
        ));
    }

    #[test]
    fn reused_session_matches_a_fresh_one() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source(
            "V1",
            vin,
            gnd,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, gnd, 1e-12).unwrap();
        let options = TransientOptions {
            t_stop: 2e-9,
            h_init: 1e-12,
            h_max: 1e-10,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let fresh = run_scheme(&ckt, ImplicitScheme::BackwardEuler, &options, &["out"]).unwrap();
        // The second run rides the first one's LU and DC caches.
        let mut sim = Simulator::new(&ckt);
        for run in 0..2 {
            let warm = sim
                .transient(Method::BackwardEuler, &options, &["out"])
                .unwrap();
            assert_eq!(warm.times, fresh.times, "run {run}");
            assert_eq!(warm.samples, fresh.samples, "run {run}");
            assert_eq!(warm.final_state, fresh.final_state, "run {run}");
        }
    }
}
