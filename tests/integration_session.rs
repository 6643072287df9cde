//! Integration tests for the `Simulator` session API: pause/resume
//! bit-identity, fresh-vs-reused session parity, cross-run cache reuse, streaming
//! observers and interleaved co-simulation.

use exi_netlist::generators::{inverter_chain, power_grid, InverterChainSpec, PowerGridSpec};
use exi_netlist::Circuit;
use exi_sim::{
    Engine, Method, NullObserver, Probe, RecordingObserver, Simulator, StepOutcome,
    StreamingObserver, TransientOptions,
};

fn grid_circuit() -> Circuit {
    power_grid(&PowerGridSpec {
        rows: 8,
        cols: 8,
        num_sinks: 8,
        ..PowerGridSpec::default()
    })
    .unwrap()
}

fn grid_options() -> TransientOptions {
    TransientOptions {
        t_stop: 2e-9,
        h_init: 1e-12,
        h_max: 2e-11,
        error_budget: 2e-3,
        ..TransientOptions::default()
    }
}

/// Acceptance bar: a session reused across all four methods produces
/// bit-identical waveforms to a fresh session per method on the power-grid
/// case — warm caches never change a bit.
#[test]
fn reused_session_is_bit_identical_to_fresh_sessions_on_power_grid() {
    let ckt = grid_circuit();
    let options = grid_options();
    let mut reused = Simulator::new(&ckt);
    for method in Method::all() {
        let warm = reused.transient(method, &options, &["g_4_4"]).unwrap();
        let fresh = Simulator::new(&ckt)
            .transient(method, &options, &["g_4_4"])
            .unwrap();
        assert_eq!(warm.times, fresh.times, "{method}: times differ");
        assert_eq!(warm.samples, fresh.samples, "{method}: samples differ");
        assert_eq!(
            warm.final_state, fresh.final_state,
            "{method}: final state differs"
        );
    }
}

/// Acceptance bar: a paused-then-resumed ER run is bit-identical to an
/// uninterrupted one — every accepted time point, every sample and the final
/// state.
#[test]
fn paused_and_resumed_er_run_is_bit_identical() {
    let ckt = grid_circuit();
    let options = grid_options();

    let uninterrupted = Simulator::new(&ckt)
        .transient(Method::ExponentialRosenbrock, &options, &["g_4_4"])
        .unwrap();

    let mut sim = Simulator::new(&ckt);
    let probes = vec![Probe::new("g_4_4", ckt.unknown_of("g_4_4").unwrap())];
    let mut observer = RecordingObserver::new(probes, false);
    let stats = {
        let mut stepper = sim
            .stepper(Method::ExponentialRosenbrock, &options)
            .unwrap();
        stepper.start(&mut observer).unwrap();
        // Pause twice along the way; inspect the stepper at each pause point.
        for t_pause in [0.4e-9, 1.2e-9] {
            let outcome = stepper.run_until(t_pause, &mut observer).unwrap();
            assert!(
                matches!(outcome, StepOutcome::Paused { .. }),
                "expected a pause at {t_pause:e}, got {outcome:?}"
            );
            assert!(stepper.time() >= t_pause * (1.0 - 1e-9));
            assert!(stepper.state().iter().all(|v| v.is_finite()));
            assert!(!stepper.is_finished());
        }
        // Final resume through run_to_end — it counts as a resume too.
        stepper.run_to_end(&mut observer).unwrap()
    };
    sim.absorb_run(&stats);
    let resumed = observer.into_result();

    assert_eq!(stats.resumed_runs, 2, "{stats:?}");
    assert_eq!(uninterrupted.times, resumed.times);
    assert_eq!(uninterrupted.samples, resumed.samples);
    assert_eq!(uninterrupted.final_state, resumed.final_state);
    // The callbacks were counted: one on_dc + one per accepted/rejected step
    // + one on_finish.
    assert_eq!(
        stats.observer_callbacks,
        2 + stats.accepted_steps + stats.rejected_steps,
        "{stats:?}"
    );
}

/// Cross-run reuse: two consecutive transient runs on an unchanged topology
/// perform exactly one symbolic analysis in total, and produce bit-identical
/// waveforms.
#[test]
fn consecutive_runs_share_one_symbolic_analysis() {
    let ckt = grid_circuit();
    let options = grid_options();
    let mut sim = Simulator::new(&ckt);
    let first = sim
        .transient(Method::ExponentialRosenbrock, &options, &["g_4_4"])
        .unwrap();
    let second = sim
        .transient(Method::ExponentialRosenbrock, &options, &["g_4_4"])
        .unwrap();
    // Per-run: the first run pays the single symbolic analysis (seeded by the
    // DC solve), the second reuses it outright.
    assert_eq!(first.stats.symbolic_analyses, 1, "{:?}", first.stats);
    assert_eq!(second.stats.symbolic_analyses, 0, "{:?}", second.stats);
    // The second run skipped the DC solve entirely.
    assert_eq!(second.stats.newton_iterations, 0, "{:?}", second.stats);
    // Session totals: exactly one symbolic analysis over both runs.
    assert_eq!(sim.session_stats().symbolic_analyses, 1);
    assert_eq!(sim.completed_runs(), 2);
    // Determinism: cache reuse does not change the waveform.
    assert_eq!(first.times, second.times);
    assert_eq!(first.samples, second.samples);
    assert_eq!(first.final_state, second.final_state);
}

/// Calling `dc()` before any transient still counts the DC solve's symbolic
/// analysis into the session totals exactly once.
#[test]
fn dc_first_session_still_counts_the_symbolic_analysis() {
    let ckt = grid_circuit();
    let mut sim = Simulator::new(&ckt);
    let dc = sim.dc().unwrap();
    assert!(dc.state.iter().all(|v| v.is_finite()));
    assert_eq!(sim.session_stats().symbolic_analyses, 1);
    sim.transient(Method::ExponentialRosenbrock, &grid_options(), &[])
        .unwrap();
    // The transient reused the cached DC solution and its symbolic analysis.
    assert_eq!(sim.session_stats().symbolic_analyses, 1);
    assert_eq!(sim.completed_runs(), 1);
}

/// A run that errors out mid-way still enters the session totals (its cache
/// mutations persist), but does not count as completed.
#[test]
fn failed_run_still_enters_session_totals() {
    let ckt = inverter_chain(&InverterChainSpec {
        stages: 1,
        ..InverterChainSpec::default()
    })
    .unwrap();
    let options = TransientOptions {
        t_stop: 1e-9,
        h_init: 1e-12,
        h_min: 1e-12,
        // Impossible error budget forces endless rejections.
        error_budget: 1e-30,
        ..TransientOptions::default()
    };
    let mut sim = Simulator::new(&ckt);
    let err = sim
        .transient(Method::ExponentialRosenbrock, &options, &[])
        .unwrap_err();
    assert!(matches!(err, exi_sim::SimError::StepSizeUnderflow { .. }));
    assert_eq!(sim.completed_runs(), 0);
    // The DC solve and the aborted run's factorizations are all accounted.
    let totals = sim.session_stats();
    assert!(totals.symbolic_analyses >= 1, "{totals:?}");
    assert!(totals.lu_factorizations >= 1, "{totals:?}");
    assert!(totals.rejected_steps > 0, "{totals:?}");
}

/// Requesting a different fill-reducing ordering drops the caches, so an
/// ordering sweep actually measures each ordering instead of silently
/// refactorizing with the first one.
#[test]
fn ordering_change_triggers_a_fresh_symbolic_analysis() {
    let ckt = grid_circuit();
    let mut sim = Simulator::new(&ckt);
    let rcm = TransientOptions {
        ordering: exi_sparse::OrderingMethod::Rcm,
        ..grid_options()
    };
    let mindeg = TransientOptions {
        ordering: exi_sparse::OrderingMethod::MinDegree,
        ..grid_options()
    };
    let first = sim
        .transient(Method::ExponentialRosenbrock, &rcm, &["g_4_4"])
        .unwrap();
    let second = sim
        .transient(Method::ExponentialRosenbrock, &mindeg, &["g_4_4"])
        .unwrap();
    let third = sim
        .transient(Method::ExponentialRosenbrock, &mindeg, &["g_4_4"])
        .unwrap();
    // The ordering change invalidates the caches: the second run pays for its
    // own symbolic analysis (and DC solve); the third reuses the second's.
    assert_eq!(first.stats.symbolic_analyses, 1, "{:?}", first.stats);
    assert_eq!(second.stats.symbolic_analyses, 1, "{:?}", second.stats);
    assert!(second.stats.newton_iterations > 0, "{:?}", second.stats);
    assert_eq!(third.stats.symbolic_analyses, 0, "{:?}", third.stats);
    assert_eq!(sim.session_stats().symbolic_analyses, 2);
    // The min-degree run matches a throwaway session with the same ordering.
    let solo = Simulator::new(&ckt)
        .transient(Method::ExponentialRosenbrock, &mindeg, &["g_4_4"])
        .unwrap();
    assert_eq!(solo.times, second.times);
    assert_eq!(solo.samples, second.samples);
}

/// A method sweep on one session shares the DC solution and workspaces; the
/// results match per-method throwaway sessions bit-for-bit.
#[test]
fn sweep_matches_individual_sessions() {
    let ckt = inverter_chain(&InverterChainSpec {
        stages: 2,
        ..InverterChainSpec::default()
    })
    .unwrap();
    let options = TransientOptions {
        t_stop: 2e-10,
        h_init: 2e-12,
        h_max: 1e-11,
        error_budget: 1e-2,
        ..TransientOptions::default()
    };
    let runs: Vec<(Method, TransientOptions)> = Method::all()
        .into_iter()
        .map(|m| (m, options.clone()))
        .collect();
    let mut sim = Simulator::new(&ckt);
    let swept = sim.sweep(&runs, &["s2"]).unwrap();
    assert_eq!(swept.len(), 4);
    assert_eq!(sim.completed_runs(), 4);
    for (method, result) in Method::all().into_iter().zip(&swept) {
        let solo = Simulator::new(&ckt)
            .transient(method, &options, &["s2"])
            .unwrap();
        assert_eq!(solo.times, result.times, "{method}");
        assert_eq!(solo.samples, result.samples, "{method}");
    }
}

/// The streaming observer keeps a bounded, decimated waveform of an
/// arbitrarily long run, and the null observer records nothing while the
/// solver statistics stay identical.
#[test]
fn streaming_and_null_observers() {
    let ckt = grid_circuit();
    let options = grid_options();
    let mut sim = Simulator::new(&ckt);

    let full = sim
        .transient(Method::ExponentialRosenbrock, &options, &["g_4_4"])
        .unwrap();

    let probes = vec![Probe::new("g_4_4", ckt.unknown_of("g_4_4").unwrap())];
    let capacity = 16;
    let mut streaming = StreamingObserver::new(probes, capacity);
    let streamed_stats = sim
        .transient_observed(Method::ExponentialRosenbrock, &options, &mut streaming)
        .unwrap();
    assert!(streaming.len() <= capacity);
    assert_eq!(streaming.observed(), full.len());
    // Every retained point is an exact sample of the full waveform.
    let p = full.probe_index("g_4_4").unwrap();
    let wf = streaming.waveform(0);
    assert!(!wf.is_empty());
    for &(t, v) in &wf {
        let k = full.times.iter().position(|&ft| ft == t).unwrap();
        assert_eq!(full.samples[k][p], v);
    }

    let null_stats = sim
        .transient_observed(Method::ExponentialRosenbrock, &options, &mut NullObserver)
        .unwrap();
    // Identical solver work, independent of the observer.
    assert_eq!(streamed_stats.accepted_steps, null_stats.accepted_steps);
    assert_eq!(streamed_stats.linear_solves, null_stats.linear_solves);
    assert_eq!(
        streamed_stats.observer_callbacks,
        null_stats.observer_callbacks
    );
}

/// Interleaved co-simulation: two circuits advance in lockstep through their
/// own sessions, and each produces the same waveform as a dedicated
/// uninterrupted run.
#[test]
fn interleaved_co_simulation_matches_solo_runs() {
    let ckt_a = grid_circuit();
    let ckt_b = inverter_chain(&InverterChainSpec {
        stages: 2,
        ..InverterChainSpec::default()
    })
    .unwrap();
    let options_a = grid_options();
    let options_b = TransientOptions {
        t_stop: 2e-10,
        h_init: 2e-12,
        h_max: 1e-11,
        error_budget: 1e-2,
        ..TransientOptions::default()
    };

    let solo_a = Simulator::new(&ckt_a)
        .transient(Method::ExponentialRosenbrock, &options_a, &[])
        .unwrap();
    let solo_b = Simulator::new(&ckt_b)
        .transient(Method::BackwardEuler, &options_b, &[])
        .unwrap();

    let mut sim_a = Simulator::new(&ckt_a);
    let mut sim_b = Simulator::new(&ckt_b);
    let mut obs_a = RecordingObserver::new(Vec::new(), false);
    let mut obs_b = RecordingObserver::new(Vec::new(), false);
    let mut stepper_a = sim_a
        .stepper(Method::ExponentialRosenbrock, &options_a)
        .unwrap();
    let mut stepper_b = sim_b.stepper(Method::BackwardEuler, &options_b).unwrap();
    // Round-robin: one accepted step of each circuit per iteration (the
    // steppers auto-initialize on the first advance).
    loop {
        let a = stepper_a.advance(&mut obs_a).unwrap();
        let b = stepper_b.advance(&mut obs_b).unwrap();
        if a == StepOutcome::Finished && b == StepOutcome::Finished {
            break;
        }
    }
    stepper_a.finish(&mut obs_a);
    stepper_b.finish(&mut obs_b);

    let co_a = obs_a.into_result();
    let co_b = obs_b.into_result();
    assert_eq!(solo_a.times, co_a.times);
    assert_eq!(solo_a.final_state, co_a.final_state);
    assert_eq!(solo_b.times, co_b.times);
    assert_eq!(solo_b.final_state, co_b.final_state);
}
