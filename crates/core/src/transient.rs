//! The [`Method`] selector: which engine a [`crate::Simulator`] run uses.

/// The time-integration method used for a transient analysis.
///
/// # Examples
///
/// ```
/// use exi_netlist::{Circuit, Waveform};
/// use exi_sim::{Method, Simulator, TransientOptions};
///
/// # fn main() -> Result<(), exi_sim::SimError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// let gnd = ckt.node("0");
/// ckt.add_voltage_source("Vin", vin, gnd, Waveform::Pwl(vec![(0.0, 0.0), (1e-11, 1.0)]))?;
/// ckt.add_resistor("R1", vin, out, 1e3)?;
/// ckt.add_capacitor("C1", out, gnd, 1e-13)?;
/// let options = TransientOptions::new(1e-9, 1e-12);
/// let result = Simulator::new(&ckt).transient(Method::ExponentialRosenbrock, &options, &["out"])?;
/// assert!(result.len() > 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Backward Euler with Newton–Raphson iterations (the paper's BENR baseline).
    BackwardEuler,
    /// Trapezoidal rule with Newton–Raphson iterations.
    Trapezoidal,
    /// Exponential Rosenbrock–Euler with invert-Krylov MEVP (paper's ER).
    #[default]
    ExponentialRosenbrock,
    /// ER with the φ₂ correction term (paper's ER-C).
    ExponentialRosenbrockCorrected,
}

impl Method {
    /// Short display name matching the paper's terminology.
    pub fn label(&self) -> &'static str {
        match self {
            Method::BackwardEuler => "BENR",
            Method::Trapezoidal => "TRNR",
            Method::ExponentialRosenbrock => "ER",
            Method::ExponentialRosenbrockCorrected => "ER-C",
        }
    }

    /// All methods, in the order the paper's tables list them.
    pub fn all() -> [Method; 4] {
        [
            Method::BackwardEuler,
            Method::Trapezoidal,
            Method::ExponentialRosenbrock,
            Method::ExponentialRosenbrockCorrected,
        ]
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulator, TransientOptions};
    use exi_netlist::{Circuit, Waveform};

    #[test]
    fn method_labels_match_paper() {
        assert_eq!(Method::BackwardEuler.label(), "BENR");
        assert_eq!(Method::ExponentialRosenbrock.label(), "ER");
        assert_eq!(Method::ExponentialRosenbrockCorrected.to_string(), "ER-C");
        assert_eq!(Method::all().len(), 4);
        assert_eq!(Method::default(), Method::ExponentialRosenbrock);
    }

    #[test]
    fn all_methods_run_on_a_small_rc_circuit() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source(
            "Vin",
            vin,
            gnd,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-11, 1.0)]),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, gnd, 1e-13).unwrap();
        let options = TransientOptions {
            t_stop: 5e-10,
            h_init: 1e-12,
            h_max: 1e-11,
            error_budget: 1e-3,
            ..TransientOptions::default()
        };
        // One session runs all four methods, sharing the DC solution.
        let mut sim = Simulator::new(&ckt);
        for method in Method::all() {
            let result = sim.transient(method, &options, &["out"]).unwrap();
            assert!(result.len() > 5, "{method} produced too few points");
            let p = result.probe_index("out").unwrap();
            let v_end = result.sample_at(p, 5e-10);
            assert!(v_end > 0.9, "{method}: final value {v_end}");
        }
        assert_eq!(sim.completed_runs(), 4);
    }

    #[test]
    fn reused_session_matches_fresh_sessions() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.node("0");
        ckt.add_voltage_source(
            "Vin",
            vin,
            gnd,
            Waveform::Pwl(vec![(0.0, 0.0), (1e-11, 1.0)]),
        )
        .unwrap();
        ckt.add_resistor("R1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("C1", out, gnd, 1e-13).unwrap();
        let options = TransientOptions::new(5e-10, 1e-12);
        // One session runs every method back to back on its warm caches.
        let mut reused = Simulator::new(&ckt);
        for method in Method::all() {
            let warm = reused.transient(method, &options, &["out"]).unwrap();
            let fresh = Simulator::new(&ckt)
                .transient(method, &options, &["out"])
                .unwrap();
            assert_eq!(warm.times, fresh.times, "{method}");
            assert_eq!(warm.samples, fresh.samples, "{method}");
            assert_eq!(warm.final_state, fresh.final_state, "{method}");
        }
    }

    #[test]
    fn invalid_probe_name_is_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V", a, gnd, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R", a, gnd, 1.0).unwrap();
        ckt.add_capacitor("C", a, gnd, 1e-12).unwrap();
        let options = TransientOptions::new(1e-10, 1e-12);
        assert!(Simulator::new(&ckt)
            .transient(Method::ExponentialRosenbrock, &options, &["zz"])
            .is_err());
    }
}
