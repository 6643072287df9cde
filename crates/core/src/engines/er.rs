//! Exponential Rosenbrock–Euler transient engines (ER and ER-C).
//!
//! This is the paper's contribution (Sec. III–IV, Algorithm 2). Per accepted
//! step the engine:
//!
//! 1. evaluates the devices at `x_k` and LU-factorizes **only** `G_k`
//!    (Algorithm 2 line 5) — never `C_k` nor `C_k/h + G_k`;
//! 2. builds invert-Krylov subspaces for the φ₁/φ₂ terms of Eq. (14) with
//!    the residual test of Eq. (22);
//! 3. checks the local nonlinear error estimator of Eq. (15)/(24) and, if it
//!    exceeds the budget, shrinks the step *without any new factorization*
//!    (scaling-invariance of the Krylov decomposition);
//! 4. optionally applies the φ₂ correction term of Eq. (16)/(25) (ER-C).
//!
//! Because `G`'s sparsity pattern is fixed for the whole run, only the very
//! first factorization performs the symbolic analysis (ordering, pivot
//! search, reachability DFS) — every later step reuses it through the
//! numeric-only [`SparseLu::refactorize_with`] path, and the engine even
//! seeds its cache with the factor the DC solve already computed. All
//! triangular solves, matrix–vector products, Krylov subspace builds **and
//! device evaluations** (restamped through the session's precompiled
//! [`EvalPlan`] — no COO assembly, no sort) run through reusable
//! workspaces, so the hot loop performs no circuit-sized allocation in
//! steady state. The caches live in the [`Simulator`](crate::Simulator)
//! session, so they also survive across runs.
//!
//! The engine is exposed as the incremental [`ErStepper`] (one accepted step
//! per [`Engine::advance`] call); one-shot runs go through
//! [`crate::Simulator::transient`].
//!
//! All `C⁻¹` factors that appear in the paper's formulas cancel analytically
//! against the φ denominators, so a singular capacitance matrix needs no
//! regularization — the implementation only ever solves with `G_k`:
//!
//! ```text
//! x_{k+1} = x_k + (e^{hJ} − I)·w₁ + (φ₁(hJ) − I)·w₂,
//!     w₁ = G_k⁻¹ (f(x_k) − B·u(t_k)),          w₂ = −G_k⁻¹ B·(u(t_{k+1}) − u(t_k)),
//! err     = −(e^{hJ} − I)·w₃,                  w₃ = G_k⁻¹ ΔF_k,
//! D_k     = −γ·(φ₁(hJ) − I)·w₃                  (ER-C correction)
//! ```

use std::sync::Arc;
use std::time::Instant;

use exi_krylov::{mevp_invert_krylov_with, KrylovDecomposition, MevpOptions, MevpWorkspace};
use exi_netlist::{Circuit, EvalPlan, Evaluation};
use exi_sparse::{vector, LuOptions, SparseLu};

use crate::engines::{clamp_step, prepare, reached_end, refresh_lu, Engine, StepOutcome};
use crate::error::{SimError, SimResult};
use crate::observer::Observer;
use crate::options::TransientOptions;
use crate::session::SessionCaches;
use crate::stats::RunStats;

/// Threshold below which a Krylov start vector is treated as zero (its
/// contribution to the step is exactly representable as zero).
const NEGLIGIBLE_NORM: f64 = 1e-300;

/// Incremental exponential Rosenbrock–Euler stepper (ER, and ER-C with the
/// φ₂ correction).
///
/// Created by [`Simulator::stepper`](crate::Simulator::stepper) with
/// [`Method::ExponentialRosenbrock`](crate::Method::ExponentialRosenbrock) or
/// [`Method::ExponentialRosenbrockCorrected`](crate::Method::ExponentialRosenbrockCorrected);
/// driven through the [`Engine`] trait. Each [`Engine::advance`] performs one
/// accepted step of Algorithm 2 (including its LU-free rejection loop). All
/// hot-loop state lives in the struct, so a paused stepper resumes
/// bit-identically.
#[derive(Debug)]
pub struct ErStepper<'a> {
    circuit: &'a Circuit,
    caches: &'a mut SessionCaches,
    /// The session's compiled stamping plan (shared handle; the per-step
    /// restamps go through it instead of COO assembly).
    plan: Arc<EvalPlan>,
    options: TransientOptions,
    correction: bool,
    lu_options: LuOptions,
    mevp_options: MevpOptions,
    breakpoints: Vec<f64>,
    n: usize,
    // Circuit-sized scratch buffers, allocated once per stepper.
    eval_k: Evaluation,
    eval_next: Evaluation,
    u_k: Vec<f64>,
    u_next: Vec<f64>,
    bu_k: Vec<f64>,
    rhs: Vec<f64>,
    bdu: Vec<f64>,
    w1: Vec<f64>,
    w2: Vec<f64>,
    w3: Vec<f64>,
    candidate: Vec<f64>,
    dx: Vec<f64>,
    delta_f: Vec<f64>,
    kry: Vec<f64>,
    du: Vec<f64>,
    x: Vec<f64>,
    t: f64,
    h: f64,
    stats: RunStats,
    finished: bool,
    finalized: bool,
    alloc_baseline: usize,
    assembly_alloc_baseline: usize,
}

impl<'a> ErStepper<'a> {
    /// Builds a stepper over the session caches; `dc_stats` is the DC cost
    /// charged to this run (zeroed when the session reused a cached DC
    /// solution).
    pub(crate) fn new(
        circuit: &'a Circuit,
        caches: &'a mut SessionCaches,
        correction: bool,
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
        let mevp_options = MevpOptions {
            tolerance: options.krylov_tolerance,
            max_dimension: options.krylov_max_dimension,
            min_dimension: 2,
            allow_unconverged: true,
        };
        let plan = Arc::clone(
            caches
                .plan
                .as_ref()
                .expect("session compiled the evaluation plan"),
        );
        let input_dim = plan.input_matrix().cols();
        let du = vec![0.0; input_dim];
        let alloc_baseline = caches.mevp_ws.allocations();
        let assembly_alloc_baseline = caches.eval_ws.allocations();
        Ok(ErStepper {
            circuit,
            caches,
            options,
            correction,
            lu_options,
            mevp_options,
            breakpoints,
            n,
            eval_k: plan.new_evaluation(),
            eval_next: plan.new_evaluation(),
            u_k: vec![0.0; input_dim],
            u_next: vec![0.0; input_dim],
            plan,
            bu_k: vec![0.0; n],
            rhs: vec![0.0; n],
            bdu: vec![0.0; n],
            w1: vec![0.0; n],
            w2: vec![0.0; n],
            w3: vec![0.0; n],
            candidate: vec![0.0; n],
            dx: vec![0.0; n],
            delta_f: vec![0.0; n],
            kry: vec![0.0; n],
            du,
            x: vec![0.0; n],
            t: 0.0,
            h: 0.0,
            stats: dc_stats,
            finished: true, // until init() places the stepper
            finalized: false,
            alloc_baseline,
            assembly_alloc_baseline,
        })
    }
}

impl Engine for ErStepper<'_> {
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
        self.finished = reached_end(t0, self.options.t_stop);
        self.finalized = false;
        self.stats.observer_callbacks += 1;
        observer.on_dc(t0, &self.x);
        Ok(())
    }

    fn advance(&mut self, observer: &mut dyn Observer) -> SimResult<StepOutcome> {
        let started = Instant::now();
        let mut dec1 = None;
        let mut dec2 = None;
        let mut dec3 = None;
        let result = self.advance_step(observer, &mut dec1, &mut dec2, &mut dec3);
        // On an error exit, return any outstanding subspace bases to the
        // session arena (it outlives the run); the success path already
        // recycled them in order and left the slots empty.
        for dec in [dec1, dec2, dec3].into_iter().flatten() {
            self.caches.mevp_ws.recycle(dec);
        }
        // Runtime accumulates only active solver time: pauses between
        // advance() calls (checkpointing, co-simulation interleaves) and the
        // idle life of the stepper are not charged.
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
            self.stats.krylov_workspace_allocations =
                self.caches.mevp_ws.allocations() - self.alloc_baseline;
            self.stats.assembly_workspace_allocations =
                self.caches.eval_ws.allocations() - self.assembly_alloc_baseline;
            self.stats.observer_callbacks += 1;
            observer.on_finish(&self.x, &self.stats);
        }
        self.stats.clone()
    }
}

impl ErStepper<'_> {
    /// One accepted step of Algorithm 2. The three Krylov decompositions are
    /// handed in as caller-owned slots so [`Engine::advance`] can recycle
    /// whatever is still checked out of the arena when an error unwinds.
    fn advance_step(
        &mut self,
        observer: &mut dyn Observer,
        dec1: &mut Option<KrylovDecomposition>,
        dec2: &mut Option<KrylovDecomposition>,
        dec3: &mut Option<KrylovDecomposition>,
    ) -> SimResult<StepOutcome> {
        if self.finished {
            return Ok(StepOutcome::Finished);
        }
        let n = self.n;
        let caches = &mut *self.caches;
        let plan = Arc::clone(&self.plan);

        // --- Algorithm 2 lines 4-6: linearize, factorize G, build subspaces. ---
        self.stats.restamped_entries +=
            plan.evaluate_into(&self.x, &mut caches.eval_ws, &mut self.eval_k)?;
        self.stats.device_evaluations += 1;
        #[cfg(feature = "fault-injection")]
        crate::fault::on_device_eval(&mut self.eval_k);
        let b = plan.input_matrix();
        self.circuit.input_vector_into(self.t, &mut self.u_k);
        b.mul_vec_into(&self.u_k, &mut self.bu_k);
        refresh_lu(
            &mut caches.g_lu,
            &mut caches.retained,
            caches.shared.as_deref(),
            &self.eval_k.g,
            &self.lu_options,
            &mut caches.lu_ws,
            &mut self.stats,
        )?;
        let g_lu_ref = caches.g_lu.get().expect("refresh_lu populated the cache");

        // w1 = G⁻¹ (f(x_k) − B·u_k): the "distance to quasi-equilibrium".
        for i in 0..n {
            self.rhs[i] = self.eval_k.f[i] - self.bu_k[i];
        }
        g_lu_ref.solve_into(&self.rhs, &mut self.w1, &mut caches.lu_ws)?;
        self.stats.linear_solves += 1;
        *dec1 = build_subspace(
            &self.eval_k,
            g_lu_ref,
            &self.w1,
            self.t,
            self.h,
            &self.mevp_options,
            &mut self.stats,
            &mut caches.mevp_ws,
        )?;

        // The step-size loop (Algorithm 2 lines 8-21): no LU, no new w1 subspace.
        let h_base = clamp_step(
            self.t,
            self.h.min(self.options.h_max),
            self.options.t_stop,
            &self.breakpoints,
        );
        if h_base < self.options.h_min {
            return Err(SimError::StepSizeUnderflow {
                time: self.t,
                step: h_base,
            });
        }
        let mut h_step = h_base;
        // w2 is proportional to Δu = u(t+h) − u(t); within one breakpoint
        // interval the input is piecewise linear, so when h shrinks the vector
        // only scales and the subspace can be reused.
        self.circuit
            .input_vector_into(self.t + h_step, &mut self.u_next);
        for (d, (un, uk)) in self
            .du
            .iter_mut()
            .zip(self.u_next.iter().zip(self.u_k.iter()))
        {
            *d = un - uk;
        }
        b.mul_vec_into(&self.du, &mut self.bdu);
        g_lu_ref.solve_into(&self.bdu, &mut self.w2, &mut caches.lu_ws)?;
        self.stats.linear_solves += 1;
        vector::scale(-1.0, &mut self.w2);
        *dec2 = build_subspace(
            &self.eval_k,
            g_lu_ref,
            &self.w2,
            self.t,
            h_step,
            &self.mevp_options,
            &mut self.stats,
            &mut caches.mevp_ws,
        )?;
        let h_ref_for_w2 = h_step;

        let mut rejections = 0usize;
        let accepted_h = loop {
            // --- Candidate x_{k+1} from Eq. (14). ---
            self.candidate.copy_from_slice(&self.x);
            if let Some(dec) = &dec1 {
                dec.eval_expv_into(h_step, &mut self.kry)?;
                for i in 0..n {
                    self.candidate[i] += self.kry[i] - self.w1[i];
                }
            }
            if let Some(dec) = &dec2 {
                // Rescale w2 for the (possibly reduced) step: w2(h) = w2(h_ref)·h/h_ref.
                let scale = h_step / h_ref_for_w2;
                dec.eval_phi_into(1, h_step, &mut self.kry)?;
                for i in 0..n {
                    self.candidate[i] += scale * (self.kry[i] - self.w2[i]);
                }
            }

            // --- Error estimator of Eq. (15)/(24). ---
            self.stats.restamped_entries +=
                plan.evaluate_into(&self.candidate, &mut caches.eval_ws, &mut self.eval_next)?;
            self.stats.device_evaluations += 1;
            // ΔF_k = G_k·(x_{k+1} − x_k) − (f(x_{k+1}) − f(x_k)).
            for i in 0..n {
                self.dx[i] = self.candidate[i] - self.x[i];
            }
            self.eval_k.g.mul_vec_into(&self.dx, &mut self.delta_f);
            for (i, df) in self.delta_f.iter_mut().enumerate() {
                *df -= self.eval_next.f[i] - self.eval_k.f[i];
            }
            g_lu_ref.solve_into(&self.delta_f, &mut self.w3, &mut caches.lu_ws)?;
            self.stats.linear_solves += 1;
            *dec3 = build_subspace(
                &self.eval_k,
                g_lu_ref,
                &self.w3,
                self.t,
                h_step,
                &self.mevp_options,
                &mut self.stats,
                &mut caches.mevp_ws,
            )?;

            let error_norm = match &*dec3 {
                Some(dec) => {
                    dec.eval_expv_into(h_step, &mut self.kry)?;
                    let mut err = 0.0_f64;
                    for i in 0..n {
                        err = err.max((self.kry[i] - self.w3[i]).abs());
                    }
                    if self.correction && err <= self.options.error_budget {
                        // D_k = −γ·(φ₁(hJ) − I)·w₃  (Eq. 25); x_{k+1,c} = x_{k+1} − D_k.
                        dec.eval_phi_into(1, h_step, &mut self.kry)?;
                        for i in 0..n {
                            self.candidate[i] +=
                                self.options.correction_gamma * (self.kry[i] - self.w3[i]);
                        }
                    }
                    err
                }
                None => 0.0,
            };
            if let Some(dec) = dec3.take() {
                caches.mevp_ws.recycle(dec);
            }

            if error_norm <= self.options.error_budget {
                break h_step;
            }
            // Reject: shrink the step. No LU decomposition and no rebuild of
            // the w1/w2 subspaces is needed (Algorithm 2 lines 20).
            rejections += 1;
            self.stats.rejected_steps += 1;
            self.stats.observer_callbacks += 1;
            observer.on_step_rejected(self.t, h_step);
            h_step *= self.options.shrink_factor;
            if h_step < self.options.h_min {
                return Err(SimError::StepSizeUnderflow {
                    time: self.t,
                    step: h_step,
                });
            }
        };

        self.x.copy_from_slice(&self.candidate);
        self.t += accepted_h;
        // Solution-boundary guard: a non-finite accepted state means a
        // matrix-exponential evaluation overflowed past the w-vector checks.
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
        // Hand the step's subspace bases back to the arena for the next step.
        if let Some(dec) = dec1.take() {
            caches.mevp_ws.recycle(dec);
        }
        if let Some(dec) = dec2.take() {
            caches.mevp_ws.recycle(dec);
        }

        // Algorithm 2 lines 23-25: an easy step earns a larger next step.
        if rejections <= self.options.easy_step_threshold {
            self.h = (accepted_h * self.options.growth_factor).min(self.options.h_max);
        } else {
            self.h = accepted_h;
        }

        if reached_end(self.t, self.options.t_stop) {
            self.finished = true;
        }
        Ok(StepOutcome::Advanced {
            t: self.t,
            h: accepted_h,
        })
    }
}

/// Builds an invert-Krylov subspace for vector `v`, or `None` when the vector
/// is (numerically) zero and its contribution vanishes.
#[allow(clippy::too_many_arguments)]
fn build_subspace(
    eval: &exi_netlist::Evaluation,
    g_lu: &SparseLu,
    v: &[f64],
    t: f64,
    h: f64,
    mevp_options: &MevpOptions,
    stats: &mut RunStats,
    ws: &mut MevpWorkspace,
) -> SimResult<Option<KrylovDecomposition>> {
    if vector::norm2(v) < NEGLIGIBLE_NORM {
        return Ok(None);
    }
    if v.iter().any(|x| !x.is_finite()) {
        // A non-finite vector here means an upstream evaluation overflowed.
        return Err(SimError::NonFinite {
            time: t,
            device: None,
        });
    }
    #[cfg(feature = "fault-injection")]
    if crate::fault::krylov_breakdown_due() {
        return Err(SimError::Krylov(exi_krylov::KrylovError::Breakdown {
            dimension: 0,
        }));
    }
    let outcome = mevp_invert_krylov_with(&eval.c, &eval.g, g_lu, v, h, mevp_options, ws)?;
    stats.krylov_subspaces += 1;
    stats.krylov_dimension_total += outcome.dimension;
    stats.peak_krylov_dimension = stats.peak_krylov_dimension.max(outcome.dimension);
    // The engine evaluates through the decomposition; the eagerly computed
    // product is not needed, so its storage goes straight back to the pool.
    ws.recycle_vec(outcome.mevp);
    Ok(Some(outcome.decomposition))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::TransientResult;
    use crate::session::Simulator;
    use crate::transient::Method;
    use exi_netlist::{generators, Waveform};

    fn run_er(
        ckt: &Circuit,
        correction: bool,
        options: &TransientOptions,
        probes: &[&str],
    ) -> SimResult<TransientResult> {
        let method = if correction {
            Method::ExponentialRosenbrockCorrected
        } else {
            Method::ExponentialRosenbrock
        };
        Simulator::new(ckt).transient(method, options, probes)
    }

    fn rc_ramp_circuit(r: f64, c: f64, v: f64, ramp: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V1", vin, gnd, Waveform::Pwl(vec![(0.0, 0.0), (ramp, v)]))
            .unwrap();
        ckt.add_resistor("R1", vin, out, r).unwrap();
        ckt.add_capacitor("C1", out, gnd, c).unwrap();
        ckt
    }

    #[test]
    fn er_matches_rc_analytic_solution_with_large_steps() {
        // ER is exact for linear circuits with piecewise-linear inputs (up to
        // Krylov tolerance), even with steps far beyond the circuit's time
        // constant.
        let (r, c, v) = (1e3, 1e-12, 1.0);
        let tau = r * c;
        let ramp = tau / 100.0;
        let ckt = rc_ramp_circuit(r, c, v, ramp);
        let options = TransientOptions {
            t_stop: 5.0 * tau,
            h_init: tau / 2.0,
            h_max: tau,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let result = run_er(&ckt, false, &options, &["out"]).unwrap();
        let p = result.probe_index("out").unwrap();
        // Compare at the accepted time points themselves (interpolating
        // between the deliberately huge steps would only measure the
        // interpolation error, not the integrator's).
        let mut checked = 0usize;
        for (t_i, got) in result.waveform(p) {
            if t_i <= ramp {
                continue;
            }
            let expected = v * (1.0 - (-(t_i - ramp) / tau).exp());
            assert!(
                (got - expected).abs() < 5e-3,
                "t = {t_i:.2e}: got {got}, expected {expected}"
            );
            checked += 1;
        }
        assert!(
            checked >= 3,
            "expected several accepted points past the ramp"
        );
        // Far fewer steps than an implicit method would need for this accuracy.
        assert!(result.stats.accepted_steps < 50);
        // Exactly one LU per accepted step plus the DC solve.
        assert!(
            result.stats.lu_factorizations
                <= result.stats.accepted_steps + result.stats.newton_iterations + 1
        );
    }

    #[test]
    fn er_reuses_one_symbolic_analysis_for_the_whole_run() {
        // Linear circuit: the conductance pattern never changes, so the DC
        // solve performs the single symbolic analysis and every transient
        // step refactorizes numerically.
        let (r, c, v) = (1e3, 1e-12, 1.0);
        let tau = r * c;
        let ckt = rc_ramp_circuit(r, c, v, tau / 100.0);
        let options = TransientOptions {
            t_stop: 5.0 * tau,
            h_init: tau / 2.0,
            h_max: tau,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let result = run_er(&ckt, false, &options, &["out"]).unwrap();
        let s = &result.stats;
        assert_eq!(s.symbolic_analyses, 1, "{s:?}");
        assert_eq!(s.lu_refactorizations, s.lu_factorizations - 1);
        assert!(s.lu_refactorizations >= s.accepted_steps);
        // The Krylov workspace reaches steady state: far fewer fresh
        // allocations than subspace builds.
        assert!(
            s.krylov_workspace_allocations < (s.peak_krylov_dimension + 3) * 2 + s.krylov_subspaces,
            "{s:?}"
        );
    }

    #[test]
    fn er_and_benr_agree_on_inverter_chain() {
        let spec = generators::InverterChainSpec {
            stages: 3,
            ..generators::InverterChainSpec::default()
        };
        let ckt = generators::inverter_chain(&spec).unwrap();
        let options = TransientOptions {
            t_stop: 3e-10,
            h_init: 1e-12,
            h_max: 5e-12,
            error_budget: 5e-3,
            ..TransientOptions::default()
        };
        let er = run_er(&ckt, false, &options, &["s3"]).unwrap();
        let benr = Simulator::new(&ckt)
            .transient(Method::BackwardEuler, &options, &["s3"])
            .unwrap();
        let p = 0;
        let err = er.max_error_vs(&benr, p);
        assert!(err < 0.1, "ER and BENR should agree on s3, max diff {err}");
        // ER performs no Newton iterations during the transient (only the DC
        // solve contributes).
        assert!(er.stats.avg_krylov_dimension() > 0.0);
    }

    #[test]
    fn er_c_is_at_least_as_accurate_as_er() {
        let spec = generators::InverterChainSpec {
            stages: 2,
            ..generators::InverterChainSpec::default()
        };
        let ckt = generators::inverter_chain(&spec).unwrap();
        // Reference: BENR with very small fixed steps.
        let fine = TransientOptions {
            t_stop: 2e-10,
            h_init: 5e-14,
            h_max: 5e-14,
            error_budget: 1.0,
            ..TransientOptions::default()
        };
        let reference = Simulator::new(&ckt)
            .transient(Method::BackwardEuler, &fine, &["s2"])
            .unwrap();
        let coarse = TransientOptions {
            t_stop: 2e-10,
            h_init: 2e-12,
            h_max: 4e-12,
            error_budget: 1e-2,
            ..TransientOptions::default()
        };
        let er = run_er(&ckt, false, &coarse, &["s2"]).unwrap();
        let erc = run_er(&ckt, true, &coarse, &["s2"]).unwrap();
        let er_err = er.rms_error_vs(&reference, 0);
        let erc_err = erc.rms_error_vs(&reference, 0);
        // The correction must not make things worse by more than a hair, and
        // both must be reasonably accurate.
        assert!(er_err < 0.05, "er rms error {er_err}");
        assert!(
            erc_err < er_err * 1.5 + 1e-4,
            "erc {erc_err} vs er {er_err}"
        );
    }

    #[test]
    fn er_handles_singular_capacitance_without_regularization() {
        // Nodes with no capacitance at all make C singular; the standard
        // matrix-exponential approach would need a regularization pass.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source(
            "V1",
            a,
            gnd,
            Waveform::single_pulse(0.0, 1.0, 1e-11, 1e-12, 1e-12, 1e-9),
        )
        .unwrap();
        ckt.add_resistor("R1", a, mid, 1e3).unwrap();
        // "mid" is a purely resistive node: no capacitor attached.
        ckt.add_resistor("R2", mid, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, gnd, 1e-13).unwrap();
        let options = TransientOptions {
            t_stop: 1e-9,
            h_init: 1e-12,
            h_max: 2e-11,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let result = run_er(&ckt, false, &options, &["mid", "out"]).unwrap();
        assert!(result.final_state.iter().all(|v| v.is_finite()));
        // Final value approaches the resistive divider limit 0.5 as the cap charges.
        let p_out = result.probe_index("out").unwrap();
        let v_end = result.sample_at(p_out, 1e-9);
        assert!(v_end > 0.8, "out should charge towards 1.0, got {v_end}");
    }

    #[test]
    fn step_size_underflow_is_reported() {
        let options = TransientOptions {
            t_stop: 1e-9,
            h_init: 1e-12,
            h_min: 1e-12,
            // Impossible error budget forces endless rejections.
            error_budget: 1e-30,
            ..TransientOptions::default()
        };
        // A nonlinear circuit with an impossible budget must fail cleanly.
        let spec = generators::InverterChainSpec {
            stages: 1,
            ..generators::InverterChainSpec::default()
        };
        let inv = generators::inverter_chain(&spec).unwrap();
        let err = run_er(&inv, false, &options, &[]).unwrap_err();
        assert!(matches!(err, SimError::StepSizeUnderflow { .. }));
    }

    #[test]
    fn reused_session_matches_a_fresh_one() {
        let ckt = rc_ramp_circuit(1e3, 1e-12, 1.0, 1e-14);
        let options = TransientOptions {
            t_stop: 2e-9,
            h_init: 1e-12,
            h_max: 1e-10,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        let fresh = run_er(&ckt, false, &options, &["out"]).unwrap();
        // The second run rides the first one's LU, Krylov and DC caches.
        let mut sim = Simulator::new(&ckt);
        for run in 0..2 {
            let warm = sim
                .transient(Method::ExponentialRosenbrock, &options, &["out"])
                .unwrap();
            assert_eq!(warm.times, fresh.times, "run {run}");
            assert_eq!(warm.samples, fresh.samples, "run {run}");
            assert_eq!(warm.final_state, fresh.final_state, "run {run}");
        }
    }
}
