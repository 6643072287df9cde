//! # exi-sim
//!
//! SPICE-like transient circuit simulation using **exponential
//! Rosenbrock–Euler integrators** with invert-Krylov matrix-exponential
//! evaluation — a from-scratch Rust reproduction of
//!
//! > H. Zhuang, W. Yu, I. Kang, X. Wang, C.-K. Cheng,
//! > *"An Algorithmic Framework for Efficient Large-Scale Circuit Simulation
//! > Using Exponential Integrators"*, DAC 2015.
//!
//! The crate ties together the three substrates of the workspace:
//! [`exi_sparse`] (sparse LU and dense kernels), [`exi_netlist`] (devices,
//! MNA stamping, workload generators) and [`exi_krylov`] (matrix exponential
//! and Krylov subspaces).
//!
//! # The session API
//!
//! The central type is the [`Simulator`] — a session bound to one circuit
//! that owns every piece of reusable solver state: the cached symbolic LU
//! analyses, the compiled stamping plan ([`exi_netlist::EvalPlan`], the
//! allocation-free device-restamping path), the Krylov workspace arena and
//! the DC operating point.
//! Consecutive analyses on the same topology (method comparisons, parameter
//! sweeps, resumed runs) therefore perform **exactly one symbolic analysis
//! per matrix pattern** — one for `G`, plus one for `C/h + θ·G` when an
//! implicit method runs — the cross-run extension of the paper's per-run
//! amortization argument.
//!
//! * [`Simulator::dc`] — damped-Newton DC operating point (cached).
//! * [`Simulator::transient`] with a [`Method`] selector — one full run,
//!   returning the buffered [`TransientResult`]:
//!   * [`Method::BackwardEuler`] / [`Method::Trapezoidal`] — the low-order
//!     implicit baselines (the paper's BENR),
//!   * [`Method::ExponentialRosenbrock`] /
//!     [`Method::ExponentialRosenbrockCorrected`] — the paper's ER and ER-C
//!     methods (Algorithm 2), which factorize only the conductance matrix `G`
//!     and adapt the step size without any re-factorization.
//! * [`Simulator::transient_observed`] — the same run streaming through an
//!   [`Observer`] instead of buffering: [`RecordingObserver`] reproduces
//!   [`TransientResult`], [`StreamingObserver`] keeps a fixed-memory
//!   decimated waveform, [`CsvObserver`] writes delimiter-separated rows to
//!   any sink as steps are accepted (the `exi-cli` waveform path), and
//!   [`NullObserver`] measures raw solver throughput.
//! * [`Simulator::stepper`] — an incremental [`Engine`] stepper: advance one
//!   accepted step at a time, pause before `t_stop`, inspect
//!   [`Engine::state`], and resume **bit-identically** — the substrate for
//!   checkpointed long runs and interleaved co-simulation.
//! * [`Simulator::sweep`] — several runs back to back on the shared caches.
//!
//! [`dc_operating_point`] remains as a free function for a one-shot DC
//! solve; every transient run goes through a [`Simulator`].
//!
//! # Batch execution
//!
//! One level above sessions, the [`batch`] subsystem runs **fleets** of jobs
//! (parameter sweeps, Monte-Carlo corners, per-user requests) over a pool of
//! worker threads whose sessions share one
//! [`exi_sparse::SymbolicCache`]: describe the jobs with a [`BatchPlan`] and
//! execute with a [`BatchRunner`] — same-topology jobs perform exactly one
//! symbolic LU analysis total, results come back in submission order with
//! per-job error isolation, and output is bit-identical to sequential
//! execution at any worker-thread count:
//!
//! ```
//! use exi_netlist::generators::{power_grid, PowerGridSpec};
//! use exi_sim::{BatchJob, BatchPlan, BatchRunner, Method, TransientOptions};
//!
//! # fn main() -> Result<(), exi_sim::SimError> {
//! let mut plan = BatchPlan::new();
//! for sinks in [4, 8] {
//!     let spec = PowerGridSpec { rows: 4, cols: 4, num_sinks: sinks, ..Default::default() };
//!     plan.push(
//!         BatchJob::new(
//!             format!("sinks={sinks}"),
//!             power_grid(&spec)?,
//!             Method::ExponentialRosenbrock,
//!             TransientOptions::new(5e-10, 1e-12),
//!         )
//!         .probe("g_2_2"),
//!     );
//! }
//! let result = BatchRunner::new().worker_threads(2).run(&plan);
//! assert!(result.all_ok());
//! // Two same-topology corners, one symbolic analysis for the whole fleet
//! // — pre-published by the runner, so both corners count as shared hits.
//! assert_eq!(result.stats.symbolic_analyses, 1);
//! assert_eq!(result.stats.shared_symbolic_hits, 2);
//! # Ok(())
//! # }
//! ```
//!
//! # Examples
//!
//! Simulate an RC low-pass with ER and BENR in one session — the second run
//! reuses the DC solution, and both reuse each other's workspaces:
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
//! let options = TransientOptions::new(1e-9, 1e-12);
//!
//! let mut sim = Simulator::new(&ckt);
//! let er = sim.transient(Method::ExponentialRosenbrock, &options, &["out"])?;
//! let benr = sim.transient(Method::BackwardEuler, &options, &["out"])?;
//! let p = er.probe_index("out").unwrap();
//! assert!(er.max_error_vs(&benr, p) < 0.05);
//! # Ok(())
//! # }
//! ```
//!
//! Pause a long run, inspect it, and resume bit-identically:
//!
//! ```
//! use exi_netlist::{Circuit, Waveform};
//! use exi_sim::{Engine, Method, RecordingObserver, Simulator, StepOutcome, TransientOptions};
//!
//! # fn main() -> Result<(), exi_sim::SimError> {
//! # let mut ckt = Circuit::new();
//! # let vin = ckt.node("in");
//! # let out = ckt.node("out");
//! # let gnd = ckt.node("0");
//! # ckt.add_voltage_source("Vin", vin, gnd, Waveform::Pwl(vec![(0.0, 0.0), (1e-11, 1.0)]))?;
//! # ckt.add_resistor("R1", vin, out, 1e3)?;
//! # ckt.add_capacitor("C1", out, gnd, 1e-13)?;
//! let options = TransientOptions::new(1e-9, 1e-12);
//! let mut sim = Simulator::new(&ckt);
//! let mut observer = RecordingObserver::new(Vec::new(), false);
//! let mut stepper = sim.stepper(Method::ExponentialRosenbrock, &options)?;
//! let paused = stepper.run_until(5e-10, &mut observer)?;
//! assert!(matches!(paused, StepOutcome::Paused { .. }));
//! assert!(stepper.state().iter().all(|v| v.is_finite()));
//! stepper.run_until(f64::INFINITY, &mut observer)?; // resume to t_stop
//! let stats = stepper.finish(&mut observer);
//! assert_eq!(stats.resumed_runs, 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod dc;
pub mod deck;
pub mod engines;
pub mod error;
pub mod lanes;
pub mod observer;
pub mod options;
pub mod output;
pub mod recovery;
pub mod session;
pub mod stats;
pub mod transient;

#[cfg(feature = "fault-injection")]
pub mod fault;

pub use batch::{
    BatchJob, BatchObserver, BatchPlan, BatchProgress, BatchResult, BatchRunner, CancelReason,
    CancelToken, JobError, JobOutcome, JobOutput, JobSink, NullBatchObserver,
};
pub use dc::{dc_operating_point, DcSolution};
pub use deck::{analysis_options, tran_options};
pub use engines::implicit::ImplicitScheme;
pub use engines::{resolve_probes, Engine, StepOutcome};
pub use error::{SimError, SimResult};
pub use lanes::{LaneBatchResult, LaneDcResult, LanePolicy, LaneRunner};
pub use observer::{
    CsvObserver, DecimatedWaveform, NullObserver, Observer, RecordingObserver, StreamingObserver,
};
pub use options::{DcOptions, TransientOptions};
pub use output::{Probe, TransientResult};
pub use recovery::{RecoveryEvent, RecoveryPolicy};
pub use session::{PlanCache, SessionStepper, Simulator};
pub use stats::RunStats;
pub use transient::Method;
