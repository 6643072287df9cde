//! The [`Simulator`] session object: circuit binding plus every reusable
//! piece of solver state.
//!
//! The paper's headline win is amortization — one symbolic LU analysis and a
//! reusable Krylov arena serve many exponential-Rosenbrock steps. A
//! `Simulator` extends that amortization **across runs**: the LU caches, the
//! Krylov workspace pool and the DC operating point survive from one
//! transient analysis to the next, so consecutive runs on the same topology
//! (parameter sweeps, method comparisons, resumed long runs) perform exactly
//! one symbolic analysis **per matrix pattern** — one for the conductance
//! matrix `G`, plus one for the denser `C/h + θ·G` if an implicit method is
//! used — no matter how many runs the session performs (see
//! [`Simulator::session_stats`]).
//!
//! ```
//! use exi_netlist::{Circuit, Waveform};
//! use exi_sim::{Method, Simulator, TransientOptions};
//!
//! # fn main() -> Result<(), exi_sim::SimError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! let gnd = ckt.node("0");
//! ckt.add_voltage_source("Vin", vin, gnd, Waveform::Pwl(vec![(0.0, 0.0), (1e-11, 1.0)]))?;
//! ckt.add_resistor("R1", vin, out, 1e3)?;
//! ckt.add_capacitor("C1", out, gnd, 1e-13)?;
//!
//! let mut sim = Simulator::new(&ckt);
//! let options = TransientOptions::new(1e-9, 1e-12);
//! let first = sim.transient(Method::ExponentialRosenbrock, &options, &["out"])?;
//! let second = sim.transient(Method::ExponentialRosenbrock, &options, &["out"])?;
//! assert_eq!(first.times, second.times);
//! // The whole session paid for one symbolic LU analysis.
//! assert_eq!(sim.session_stats().symbolic_analyses, 1);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use exi_krylov::MevpWorkspace;
use exi_netlist::{circuit_fingerprint, Circuit, EvalPlan, EvalWorkspace};
use exi_sparse::{LuWorkspace, OrderingMethod, SymbolicCache};

use crate::dc::{dc_operating_point_recovering, DcSolution};
use crate::engines::er::ErStepper;
use crate::engines::implicit::{ImplicitScheme, ImplicitStepper};
use crate::engines::{resolve_probes, Engine, LuSlot, RetainedFactors, StepOutcome};
use crate::error::SimResult;
use crate::observer::{Observer, RecordingObserver};
use crate::options::{DcOptions, TransientOptions};
use crate::output::TransientResult;
use crate::recovery::{RecoveryEvent, RecoveryPolicy};
use crate::stats::RunStats;
use crate::transient::Method;

/// Reusable solver state owned by a [`Simulator`] and borrowed by its
/// steppers.
///
/// * `g_lu` — cached factorization of the conductance matrix `G` (the DC
///   Jacobian pattern); seeded by the DC solve, reused by every ER/ER-C step
///   and every later run.
/// * `jac_lu` — cached factorization of the implicit-method Jacobian
///   `C/h + θ·G` (a different, denser pattern), reused across Newton
///   iterations, step sizes and runs.
/// * `retained` — recently displaced factors, keyed by pattern, revived
///   lock-free when a run alternates between patterns (e.g. DC homotopy
///   stages) instead of going back through the shared cache.
/// * `lu_ws` / `mevp_ws` — allocation pools for triangular solves and Krylov
///   subspace builds; pure scratch, shared by every engine.
/// * `dc` — the DC operating point, computed once per topology.
#[derive(Debug, Default)]
pub(crate) struct SessionCaches {
    pub(crate) g_lu: LuSlot,
    pub(crate) jac_lu: LuSlot,
    pub(crate) retained: RetainedFactors,
    pub(crate) lu_ws: LuWorkspace,
    pub(crate) mevp_ws: MevpWorkspace,
    pub(crate) dc: Option<DcSolution>,
    /// The compiled stamping plan: fixed CSR patterns, the linear baseline,
    /// the nonlinear scatter slots and the constant input matrix `B` —
    /// compiled once per topology (or fetched from a shared [`PlanCache`])
    /// and reused by the DC solve and every stepper.
    pub(crate) plan: Option<Arc<EvalPlan>>,
    /// Scratch buffers for plan evaluations, pre-sized by the plan.
    pub(crate) eval_ws: EvalWorkspace,
    /// Fill-reducing ordering the cached factors were built with; a run
    /// requesting a different one drops the caches first.
    pub(crate) ordering: Option<OrderingMethod>,
    /// Cross-session symbolic-analysis pool ([`exi_sparse::SymbolicCache`]).
    /// `None` for a standalone session; a [`crate::BatchRunner`] hands every
    /// worker session a clone of one shared cache so same-pattern jobs on
    /// different threads perform one symbolic analysis total. Survives
    /// [`Simulator::reset_caches`] — it is a handle to fleet-wide state, not
    /// session state.
    pub(crate) shared: Option<Arc<SymbolicCache>>,
    /// Cross-session evaluation-plan pool; fleet-wide state like `shared`,
    /// surviving [`Simulator::reset_caches`].
    pub(crate) shared_plans: Option<Arc<PlanCache>>,
}

/// A thread-shared cache of compiled [`EvalPlan`]s keyed by the circuit's
/// structural+parametric fingerprint
/// ([`exi_netlist::circuit_fingerprint`]) — the stamping-plan analogue of
/// [`exi_sparse::SymbolicCache`].
///
/// A [`crate::BatchRunner`] hands a clone to every worker session, so
/// same-structure jobs (e.g. a corner sweep varying only source waveforms)
/// compile exactly one plan total; the merged statistics expose the effect
/// as `plan_compilations == distinct structures` plus one
/// [`RunStats::shared_plan_hits`] per pooled session.
///
/// Unbounded by default (the one-shot batch case). A resident process — the
/// `exi-serve` daemon keeping its plan pool warm across arbitrary client
/// traffic — should bound it with [`PlanCache::with_capacity`]: the
/// least-recently-used plan is evicted to admit a new structure, and
/// [`PlanCache::stats`] snapshots hit/miss/eviction counters in the same
/// [`exi_sparse::CacheStats`] form the symbolic cache reports.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<PlanCacheState>,
    capacity: Option<usize>,
}

/// One cached plan plus its LRU stamp.
#[derive(Debug)]
struct PlanEntry {
    plan: Arc<EvalPlan>,
    last_used: u64,
}

/// Mutex-guarded interior of a [`PlanCache`]: entries, the LRU clock and the
/// residency counters (under one lock so snapshots are consistent).
#[derive(Debug, Default)]
struct PlanCacheState {
    entries: HashMap<Vec<u8>, PlanEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Creates an empty cache holding at most `capacity` compiled plans
    /// (minimum 1), evicting the least-recently-used plan to admit a new
    /// structure.
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            capacity: Some(capacity.max(1)),
            ..PlanCache::default()
        }
    }

    /// The configured capacity; `None` for an unbounded cache.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of distinct circuit structures cached.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Returns `true` when no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the residency counters (entries, capacity, hits, misses,
    /// evictions), internally consistent under the cache lock.
    pub fn stats(&self) -> exi_sparse::CacheStats {
        let state = self.lock();
        exi_sparse::CacheStats {
            entries: state.entries.len(),
            capacity: self.capacity,
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
        }
    }

    /// A worker that panicked mid-compile never published a partial plan
    /// (the map is only written after a successful compile), so the cache
    /// stays usable: recover the guard instead of propagating the poison.
    fn lock(&self) -> std::sync::MutexGuard<'_, PlanCacheState> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Returns the cached plan for `circuit`'s structure, compiling and
    /// publishing it on a miss. The second component is `true` when this
    /// call performed the compilation. The cache lock is held across the
    /// compile, so concurrent same-structure requests block instead of
    /// duplicating the work.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalPlan::compile`] errors (e.g. an empty circuit).
    pub fn get_or_compile(&self, circuit: &Circuit) -> SimResult<(Arc<EvalPlan>, bool)> {
        self.get_or_compile_timed(circuit)
            .map(|(plan, compiled, _)| (plan, compiled))
    }

    /// As [`PlanCache::get_or_compile`], additionally reporting how long this
    /// call waited to acquire the cache lock. A warm lookup on an
    /// uncontended cache reports (close to) zero; the batch runner charges
    /// the wait to [`RunStats::cache_wait`] so `active_solver_s` stays a
    /// pure compute figure.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalPlan::compile`] errors (e.g. an empty circuit).
    pub fn get_or_compile_timed(
        &self,
        circuit: &Circuit,
    ) -> SimResult<(Arc<EvalPlan>, bool, Duration)> {
        let key = circuit_fingerprint(circuit);
        let acquire = Instant::now();
        let mut state = self.lock();
        let waited = acquire.elapsed();
        state.tick += 1;
        let tick = state.tick;
        if let Some(entry) = state.entries.get_mut(&key) {
            entry.last_used = tick;
            state.hits += 1;
            return Ok((Arc::clone(&state.entries[&key].plan), false, waited));
        }
        state.misses += 1;
        let plan = Arc::new(EvalPlan::compile(circuit)?);
        state.entries.insert(
            key.clone(),
            PlanEntry {
                plan: Arc::clone(&plan),
                last_used: tick,
            },
        );
        if let Some(capacity) = self.capacity {
            while state.entries.len() > capacity {
                let victim = state
                    .entries
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, entry)| entry.last_used)
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => {
                        state.entries.remove(&k);
                        state.evictions += 1;
                    }
                    None => break,
                }
            }
        }
        Ok((plan, true, waited))
    }
}

/// A simulation session bound to one circuit.
///
/// Owns every piece of reusable solver state (LU caches with their symbolic
/// analyses, Krylov workspace arena, DC solution) so that consecutive
/// analyses on the same topology amortize all symbolic work. The circuit is
/// held by shared reference — the borrow checker guarantees the topology
/// cannot change under a live session, which is what makes cross-run cache
/// reuse sound.
///
/// Entry points, from highest to lowest level:
///
/// * [`Simulator::transient`] — one full run, returns a [`TransientResult`]
///   (the classic buffered waveform).
/// * [`Simulator::sweep`] — several runs back to back, sharing all caches.
/// * [`Simulator::transient_observed`] — one full run streaming to a caller
///   [`Observer`] (fixed-memory recording, live dashboards, nothing at all).
/// * [`Simulator::stepper`] — an incremental [`Engine`] stepper: advance step
///   by step, pause before `t_stop`, inspect state, resume bit-identically —
///   the substrate for checkpointed long runs and interleaved co-simulation
///   of several circuits.
#[derive(Debug)]
pub struct Simulator<'c> {
    circuit: &'c Circuit,
    caches: SessionCaches,
    session_stats: RunStats,
    completed_runs: usize,
    recovery: RecoveryPolicy,
}

impl<'c> Simulator<'c> {
    /// Creates a session for `circuit` with cold caches.
    pub fn new(circuit: &'c Circuit) -> Self {
        Simulator {
            circuit,
            caches: SessionCaches::default(),
            session_stats: RunStats::new(),
            completed_runs: 0,
            recovery: RecoveryPolicy::off(),
        }
    }

    /// Installs a [`RecoveryPolicy`]: DC homotopy on Newton failure and a
    /// transient retry ladder on step-control failure. With the (default)
    /// [`RecoveryPolicy::off`] every run behaves exactly as before —
    /// bit-identical waveforms, zero recovery counters. With a policy
    /// enabled, healthy runs are still untouched; only runs that would
    /// otherwise error escalate (see [`crate::recovery`]).
    ///
    /// Note: while recovering from a failed transient attempt, observer
    /// events of retry attempts are buffered and replayed only from the
    /// attempt that succeeds, so a failed attempt's partial waveform never
    /// contaminates the stream.
    #[must_use]
    pub fn with_recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Replaces the session's [`RecoveryPolicy`] in place.
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    /// The session's current [`RecoveryPolicy`].
    pub fn recovery_policy(&self) -> &RecoveryPolicy {
        &self.recovery
    }

    /// Creates a session for `circuit` that pools its symbolic LU analyses
    /// with every other session holding a clone of `shared`.
    ///
    /// The first session (on any thread) to factorize a given matrix pattern
    /// publishes the analysis; all others derive their numeric factors from
    /// it — counted as [`RunStats::shared_symbolic_hits`] instead of
    /// [`RunStats::symbolic_analyses`]. This is the per-session entry point
    /// behind [`crate::BatchRunner`]; use it directly to pool hand-rolled
    /// concurrent sessions.
    pub fn with_shared_symbolic(circuit: &'c Circuit, shared: Arc<SymbolicCache>) -> Self {
        let mut sim = Simulator::new(circuit);
        sim.caches.shared = Some(shared);
        sim
    }

    /// Pools this session's compiled evaluation plan with every other
    /// session holding a clone of `cache` (see [`PlanCache`]); the
    /// [`crate::BatchRunner`] wires this up for its workers.
    #[must_use]
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.caches.shared_plans = Some(cache);
        self
    }

    /// The cross-session symbolic cache this session pools with, if any.
    pub fn shared_symbolic(&self) -> Option<&Arc<SymbolicCache>> {
        self.caches.shared.as_ref()
    }

    /// The cross-session evaluation-plan cache this session pools with, if
    /// any.
    pub fn plan_cache(&self) -> Option<&Arc<PlanCache>> {
        self.caches.shared_plans.as_ref()
    }

    /// The circuit this session is bound to.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Cumulative statistics over every run (and the shared DC solve) this
    /// session performed. On an unchanged topology
    /// `session_stats().symbolic_analyses` stays at the value the first run
    /// reached — later runs only add numeric-only refactorizations.
    pub fn session_stats(&self) -> &RunStats {
        &self.session_stats
    }

    /// Number of transient runs completed by this session.
    pub fn completed_runs(&self) -> usize {
        self.completed_runs
    }

    /// Drops every cached factor, workspace and the DC solution. The next run
    /// pays for a fresh symbolic analysis — call this after mutating the
    /// circuit between sessions if node/device structure changed. (A shared
    /// symbolic cache attached via [`Simulator::with_shared_symbolic`] is a
    /// fleet-wide handle and survives; it is keyed by pattern, so a changed
    /// topology simply maps to a new entry.)
    pub fn reset_caches(&mut self) {
        self.caches = SessionCaches {
            shared: self.caches.shared.take(),
            shared_plans: self.caches.shared_plans.take(),
            ..SessionCaches::default()
        };
    }

    /// The DC operating point of the circuit, computed on first use and
    /// cached for the lifetime of the session (default [`DcOptions`]).
    ///
    /// # Errors
    ///
    /// Propagates DC Newton convergence and kernel errors.
    pub fn dc(&mut self) -> SimResult<DcSolution> {
        self.dc_with(&DcOptions::default())
    }

    /// As [`Simulator::dc`] with explicit options. The options only matter
    /// for the first call of the session (a differing `ordering` drops the
    /// caches, as on every entry point); later calls return the cached
    /// solution.
    ///
    /// # Errors
    ///
    /// Propagates DC Newton convergence and kernel errors.
    pub fn dc_with(&mut self, options: &DcOptions) -> SimResult<DcSolution> {
        self.ensure_ordering(options.ordering);
        // No transient run will ever absorb this solve's counters, so they
        // enter the session totals right here.
        let stats = match self.ensure_dc(options) {
            Ok(stats) => stats,
            Err(e) => return Err(e.attributed(self.circuit)),
        };
        self.session_stats.absorb(&stats);
        Ok(self
            .caches
            .dc
            .clone()
            .expect("ensure_dc populated the cache"))
    }

    /// Drops the caches whenever a run requests a different fill-reducing
    /// ordering than the one the cached factors were built with — a cached
    /// symbolic analysis silently carries its ordering into refactorizations,
    /// which would make an ordering sweep measure nothing.
    fn ensure_ordering(&mut self, ordering: OrderingMethod) {
        if self.caches.ordering != Some(ordering) {
            if self.caches.ordering.is_some() {
                self.reset_caches();
            }
            self.caches.ordering = Some(ordering);
        }
    }

    /// Compiles (or fetches from the shared [`PlanCache`]) the session's
    /// evaluation plan, charging the compile — and any wait on the shared
    /// cache's lock — to `stats`.
    fn ensure_plan(&mut self, stats: &mut RunStats) -> SimResult<()> {
        if self.caches.plan.is_none() {
            let plan = match &self.caches.shared_plans {
                Some(pool) => {
                    let (plan, compiled, waited) = pool.get_or_compile_timed(self.circuit)?;
                    stats.cache_wait += waited;
                    if compiled {
                        stats.plan_compilations += 1;
                    } else {
                        stats.shared_plan_hits += 1;
                    }
                    plan
                }
                None => {
                    stats.plan_compilations += 1;
                    Arc::new(EvalPlan::compile(self.circuit)?)
                }
            };
            self.caches.eval_ws = plan.new_workspace();
            self.caches.plan = Some(plan);
        }
        Ok(())
    }

    /// Computes (or reuses) the DC operating point, returning the statistics
    /// of a fresh solve — zeroed when the cached solution was reused. The
    /// caller decides where to charge them: [`Simulator::stepper`] folds them
    /// into the triggering run's statistics (absorbed into the session when
    /// that run is), [`Simulator::dc_with`] absorbs them directly.
    fn ensure_dc(&mut self, options: &DcOptions) -> SimResult<RunStats> {
        let mut stats = RunStats::new();
        if self.caches.dc.is_some() {
            self.ensure_plan(&mut stats)?;
            return Ok(stats);
        }
        // The timer starts before plan acquisition so that any wait on the
        // shared plan cache's lock lands inside `runtime` — `cache_wait` is
        // documented as a subset of it.
        let started = Instant::now();
        self.ensure_plan(&mut stats)?;
        let caches = &mut self.caches;
        let plan = caches
            .plan
            .as_ref()
            .expect("ensure_plan populated the cache");
        let dc = dc_operating_point_recovering(
            self.circuit,
            plan,
            options,
            &self.recovery,
            &mut stats,
            &mut caches.g_lu,
            &mut caches.retained,
            caches.shared.as_deref(),
            &mut caches.lu_ws,
            &mut caches.eval_ws,
        )?;
        stats.runtime = started.elapsed();
        self.caches.dc = Some(dc);
        Ok(stats)
    }

    /// Creates an incremental stepper for `method`, positioned (lazily) at
    /// the DC operating point.
    ///
    /// The stepper auto-initializes on the first [`Engine::advance`] /
    /// [`Engine::run_until`]; call [`SessionStepper::start`] (or
    /// [`Engine::init`] with a custom `(t0, x0)` checkpoint) to control when
    /// the initial [`Observer::on_dc`] event fires. While the stepper lives
    /// it exclusively borrows the session's caches; drop it before starting
    /// the next run.
    ///
    /// # Errors
    ///
    /// Option validation, DC solve and input-matrix assembly errors.
    pub fn stepper(
        &mut self,
        method: Method,
        options: &TransientOptions,
    ) -> SimResult<SessionStepper<'_>> {
        options.validate()?;
        self.ensure_ordering(options.ordering);
        // A fresh DC solve is charged to this run's statistics (dc_stats
        // seeds the stepper below) and reaches the session totals when the
        // run is absorbed; a cached solution contributes nothing.
        let dc_stats = self.ensure_dc(&DcOptions {
            ordering: options.ordering,
            ..DcOptions::default()
        })?;
        let x0 = self
            .caches
            .dc
            .as_ref()
            .expect("ensure_dc populated the cache")
            .state
            .clone();
        let inner = match method {
            Method::BackwardEuler => InnerStepper::Implicit(Box::new(ImplicitStepper::new(
                self.circuit,
                &mut self.caches,
                ImplicitScheme::BackwardEuler,
                options.clone(),
                dc_stats,
            )?)),
            Method::Trapezoidal => InnerStepper::Implicit(Box::new(ImplicitStepper::new(
                self.circuit,
                &mut self.caches,
                ImplicitScheme::Trapezoidal,
                options.clone(),
                dc_stats,
            )?)),
            Method::ExponentialRosenbrock => InnerStepper::Er(Box::new(ErStepper::new(
                self.circuit,
                &mut self.caches,
                false,
                options.clone(),
                dc_stats,
            )?)),
            Method::ExponentialRosenbrockCorrected => InnerStepper::Er(Box::new(ErStepper::new(
                self.circuit,
                &mut self.caches,
                true,
                options.clone(),
                dc_stats,
            )?)),
        };
        Ok(SessionStepper {
            inner,
            x0,
            initialized: false,
        })
    }

    /// Runs one full transient analysis, recording every accepted point, and
    /// returns the buffered [`TransientResult`].
    ///
    /// # Errors
    ///
    /// Option-validation, probe-resolution, DC, step-control and kernel
    /// errors (see [`crate::SimError`]).
    pub fn transient(
        &mut self,
        method: Method,
        options: &TransientOptions,
        probe_names: &[&str],
    ) -> SimResult<TransientResult> {
        options.validate()?;
        let probes = resolve_probes(self.circuit, probe_names)?;
        let mut observer = RecordingObserver::new(probes, options.record_full_states);
        self.transient_observed(method, options, &mut observer)?;
        Ok(observer.into_result())
    }

    /// Runs one full transient analysis streaming events to `observer`
    /// instead of buffering a result, and returns the run's statistics.
    ///
    /// Pair with [`crate::StreamingObserver`] for fixed-memory waveforms or
    /// [`crate::NullObserver`] to measure pure solver throughput.
    ///
    /// # Errors
    ///
    /// As [`Simulator::transient`].
    pub fn transient_observed(
        &mut self,
        method: Method,
        options: &TransientOptions,
        observer: &mut dyn Observer,
    ) -> SimResult<RunStats> {
        if self.recovery.is_off() {
            return self
                .transient_attempt(method, options, observer)
                .map_err(|e| e.attributed(self.circuit));
        }

        // With recovery enabled, every attempt streams into a private buffer
        // and only the attempt that succeeds is replayed to the caller's
        // observer — a failed attempt's partial waveform never reaches it.
        // Recovery events themselves are delivered live.
        let policy = self.recovery.clone();
        let mut buffer = BufferedRun::new();
        let first = self.transient_attempt(method, options, &mut buffer);
        let mut last_err = match first {
            Ok(stats) => {
                buffer.replay(observer);
                return Ok(stats);
            }
            Err(e) => e,
        };
        if !RecoveryPolicy::transient_retryable(&last_err) {
            return Err(last_err.attributed(self.circuit));
        }

        // Rung 1: cut the step floor back past the nominal h_min.
        let mut cutback = options.clone();
        cutback.h_min = options.h_min * policy.step_cutback;
        cutback.h_init = (options.h_init * policy.step_cutback).max(cutback.h_min);
        // Rung 2: on top of the cutback, enlarge the Newton budget.
        let mut tightened = cutback.clone();
        tightened.newton_max_iterations =
            options.newton_max_iterations * policy.newton_budget_factor.max(1);

        let mut ladder: Vec<(Method, TransientOptions, RecoveryEvent)> = vec![
            (
                method,
                cutback.clone(),
                RecoveryEvent::StepCutback {
                    time: transient_error_time(&last_err),
                    h_min: cutback.h_min,
                },
            ),
            (
                method,
                tightened.clone(),
                RecoveryEvent::NewtonTightened {
                    max_iterations: tightened.newton_max_iterations,
                },
            ),
        ];
        if policy.method_fallback {
            if let Some(fallback) = RecoveryPolicy::fallback_method(method) {
                ladder.push((
                    fallback,
                    tightened,
                    RecoveryEvent::MethodFallback {
                        from: method,
                        to: fallback,
                    },
                ));
            }
        }

        let mut extra = RunStats::new();
        for (rung_method, rung_options, event) in ladder {
            extra.recovery_attempts += 1;
            if matches!(event, RecoveryEvent::MethodFallback { .. }) {
                extra.method_fallbacks += 1;
            }
            observer.on_recovery(&event);
            extra.observer_callbacks += 1;
            let mut buffer = BufferedRun::new();
            match self.transient_attempt(rung_method, &rung_options, &mut buffer) {
                Ok(mut stats) => {
                    buffer.replay(observer);
                    stats.absorb(&extra);
                    self.absorb_partial(&extra);
                    return Ok(stats);
                }
                Err(e) => last_err = e,
            }
        }
        self.absorb_partial(&extra);
        Err(last_err.attributed(self.circuit))
    }

    /// One bare transient attempt: build the stepper, drive it to the end,
    /// absorb its statistics. [`Simulator::transient_observed`] wraps this in
    /// the recovery ladder; with recovery off it is the whole story.
    fn transient_attempt(
        &mut self,
        method: Method,
        options: &TransientOptions,
        observer: &mut dyn Observer,
    ) -> SimResult<RunStats> {
        let outcome = {
            let mut stepper = self.stepper(method, options)?;
            match stepper
                .start(observer)
                .and_then(|()| stepper.run_to_end(observer))
            {
                Ok(stats) => Ok(stats),
                // The failed run still did real work (and left its cache
                // mutations in the session): finalize and keep its counters
                // so the session totals stay truthful.
                Err(e) => Err((e, stepper.finish(observer))),
            }
        };
        match outcome {
            Ok(stats) => {
                self.absorb_run(&stats);
                Ok(stats)
            }
            Err((e, partial)) => {
                self.absorb_partial(&partial);
                Err(e)
            }
        }
    }

    /// Runs several analyses back to back on the shared caches — a parameter
    /// or method sweep. Only the first run of the session pays for symbolic
    /// analysis and DC.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first failing run.
    pub fn sweep(
        &mut self,
        runs: &[(Method, TransientOptions)],
        probe_names: &[&str],
    ) -> SimResult<Vec<TransientResult>> {
        runs.iter()
            .map(|(method, options)| self.transient(*method, options, probe_names))
            .collect()
    }

    /// Folds a finished run's statistics into the session totals.
    ///
    /// Steppers obtained via [`Simulator::stepper`] borrow the session
    /// exclusively, so their statistics must be absorbed once the stepper is
    /// dropped; [`Simulator::transient_observed`] does this automatically.
    /// A run's statistics already include the DC share it triggered (and only
    /// that run's do), so absorbing every run once keeps the totals exact.
    pub fn absorb_run(&mut self, run: &RunStats) {
        self.absorb_partial(run);
        self.completed_runs += 1;
    }

    /// As [`Simulator::absorb_run`] for a run that errored out mid-way: its
    /// counters still enter the session totals (the work happened and its
    /// cache mutations persist), but it does not count as a completed run.
    pub fn absorb_partial(&mut self, run: &RunStats) {
        self.session_stats.absorb(run);
    }
}

/// The time an escalation-worthy transient error occurred at, for
/// [`RecoveryEvent::StepCutback`] reporting.
fn transient_error_time(err: &crate::SimError) -> f64 {
    match err {
        crate::SimError::NewtonDidNotConverge { time, .. }
        | crate::SimError::StepSizeUnderflow { time, .. }
        | crate::SimError::NonFinite { time, .. } => *time,
        _ => 0.0,
    }
}

/// Buffers one attempt's observer events so the recovery ladder can replay
/// only the successful attempt into the caller's observer.
#[derive(Debug, Default)]
struct BufferedRun {
    events: Vec<BufferedEvent>,
}

#[derive(Debug)]
enum BufferedEvent {
    Dc(f64, Vec<f64>),
    Accepted(f64, Vec<f64>),
    Rejected(f64, f64),
    // Boxed: `RunStats` dwarfs the per-step variants, and `Finish` occurs
    // once per attempt.
    Finish(Vec<f64>, Box<RunStats>),
}

impl BufferedRun {
    fn new() -> Self {
        BufferedRun::default()
    }

    fn replay(self, observer: &mut dyn Observer) {
        for event in self.events {
            match event {
                BufferedEvent::Dc(t0, x0) => observer.on_dc(t0, &x0),
                BufferedEvent::Accepted(t, x) => observer.on_step_accepted(t, &x),
                BufferedEvent::Rejected(t, h) => observer.on_step_rejected(t, h),
                BufferedEvent::Finish(x, stats) => observer.on_finish(&x, &stats),
            }
        }
    }
}

impl Observer for BufferedRun {
    fn on_dc(&mut self, t0: f64, x0: &[f64]) {
        self.events.push(BufferedEvent::Dc(t0, x0.to_vec()));
    }

    fn on_step_accepted(&mut self, t: f64, x: &[f64]) {
        self.events.push(BufferedEvent::Accepted(t, x.to_vec()));
    }

    fn on_step_rejected(&mut self, t: f64, h: f64) {
        self.events.push(BufferedEvent::Rejected(t, h));
    }

    fn on_finish(&mut self, final_state: &[f64], stats: &RunStats) {
        self.events.push(BufferedEvent::Finish(
            final_state.to_vec(),
            Box::new(stats.clone()),
        ));
    }
}

/// An engine-agnostic incremental stepper bound to a [`Simulator`] session.
///
/// Wraps the concrete per-method steppers behind the [`Engine`] trait and
/// adds lazy initialization at the session's DC operating point. See
/// [`Engine`] for the driving interface and the pause/resume contract.
#[derive(Debug)]
pub struct SessionStepper<'a> {
    inner: InnerStepper<'a>,
    x0: Vec<f64>,
    initialized: bool,
}

#[derive(Debug)]
enum InnerStepper<'a> {
    Er(Box<ErStepper<'a>>),
    Implicit(Box<ImplicitStepper<'a>>),
}

impl SessionStepper<'_> {
    /// Initializes the stepper at the session's DC operating point (time 0),
    /// emitting [`Observer::on_dc`]. Called automatically by the first
    /// [`Engine::advance`] if omitted.
    ///
    /// # Errors
    ///
    /// Propagates [`Engine::init`] errors.
    pub fn start(&mut self, observer: &mut dyn Observer) -> SimResult<()> {
        let x0 = std::mem::take(&mut self.x0);
        let r = match &mut self.inner {
            InnerStepper::Er(s) => s.init(0.0, &x0, observer),
            InnerStepper::Implicit(s) => s.init(0.0, &x0, observer),
        };
        self.x0 = x0;
        self.initialized = r.is_ok();
        r
    }
}

impl Engine for SessionStepper<'_> {
    fn init(&mut self, t0: f64, x0: &[f64], observer: &mut dyn Observer) -> SimResult<()> {
        let r = match &mut self.inner {
            InnerStepper::Er(s) => s.init(t0, x0, observer),
            InnerStepper::Implicit(s) => s.init(t0, x0, observer),
        };
        // Only a successful init arms the stepper; a failed one leaves the
        // DC auto-start available for the next advance.
        self.initialized = r.is_ok();
        r
    }

    fn advance(&mut self, observer: &mut dyn Observer) -> SimResult<StepOutcome> {
        if !self.initialized {
            self.start(observer)?;
        }
        match &mut self.inner {
            InnerStepper::Er(s) => s.advance(observer),
            InnerStepper::Implicit(s) => s.advance(observer),
        }
    }

    fn state(&self) -> &[f64] {
        if !self.initialized {
            return &self.x0;
        }
        match &self.inner {
            InnerStepper::Er(s) => s.state(),
            InnerStepper::Implicit(s) => s.state(),
        }
    }

    fn time(&self) -> f64 {
        match &self.inner {
            InnerStepper::Er(s) => s.time(),
            InnerStepper::Implicit(s) => s.time(),
        }
    }

    fn stats(&self) -> &RunStats {
        match &self.inner {
            InnerStepper::Er(s) => s.stats(),
            InnerStepper::Implicit(s) => s.stats(),
        }
    }

    fn stats_mut(&mut self) -> &mut RunStats {
        match &mut self.inner {
            InnerStepper::Er(s) => s.stats_mut(),
            InnerStepper::Implicit(s) => s.stats_mut(),
        }
    }

    fn is_finished(&self) -> bool {
        // A not-yet-started stepper still has its whole run ahead (it
        // auto-initializes on the first advance).
        if !self.initialized {
            return false;
        }
        match &self.inner {
            InnerStepper::Er(s) => s.is_finished(),
            InnerStepper::Implicit(s) => s.is_finished(),
        }
    }

    fn finish(&mut self, observer: &mut dyn Observer) -> RunStats {
        match &mut self.inner {
            InnerStepper::Er(s) => s.finish(observer),
            InnerStepper::Implicit(s) => s.finish(observer),
        }
    }
}
