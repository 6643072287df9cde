//! Precompiled evaluation plans: allocation-free, pattern-locked device
//! restamping for the simulator hot loop.
//!
//! The legacy COO path
//! ([`Circuit::evaluate_reference`](crate::Circuit::evaluate_reference))
//! rebuilds triplet vectors and runs a sort-and-dedup CSR compression on
//! every call — per
//! Newton iteration and per accepted step, even though the circuit topology
//! (and with it almost the entire stamp structure) never changes during a
//! run. An [`EvalPlan`] performs that topology analysis **once**:
//!
//! * The **linear baseline** — every stamp whose value does not depend on
//!   the state vector (resistors, capacitors, inductors, sources, the
//!   constant `gmin` and junction/overlap capacitances of the nonlinear
//!   devices) — is compressed to CSR at compile time. Rows touched only by
//!   the baseline are restored per evaluation by flat `copy_from_slice`
//!   calls.
//! * The **nonlinear delta set** — the handful of conductance entries a
//!   diode or MOSFET rewrites per evaluation — is kept as per-row scatter
//!   slots. Only rows containing at least one such slot are re-deduplicated
//!   per evaluation, so per-step assembly cost scales with the nonlinear
//!   device count, not the circuit size.
//!
//! [`EvalPlan::evaluate_into`] restamps into caller-owned buffers: no COO,
//! no full-matrix sort, and — once the buffers have warmed up — no
//! allocation ([`EvalWorkspace::allocations`] counts the warm-ups so
//! regressions are observable).
//!
//! # Bit-compatibility contract
//!
//! The plan path is **bit-identical** to the legacy COO path
//! ([`Circuit::evaluate_reference`]) for every circuit and every state
//! vector. This is by construction, not by accident, and it constrains the
//! implementation in two ways worth knowing before modifying it:
//!
//! 1. The legacy path drops stamps whose value is exactly `0.0` *before*
//!    compression and cells whose duplicates cancel to exactly `0.0`
//!    *during* compression — so a MOSFET in cut-off (`gm == gds == 0.0`)
//!    shrinks the conductance pattern. Rows with nonlinear slots therefore
//!    replay the exact legacy pipeline per evaluation (zero-filter, the
//!    same `sort_unstable_by_key`, run-summation in the same order) on a
//!    reused scratch buffer; purely linear rows get the same pipeline once
//!    at compile time.
//! 2. Per-cell duplicate summation order must match the legacy bucketing
//!    (global push order restricted to the row, then the standard-library
//!    sort's permutation). Both halves reuse the identical algorithm on
//!    identically typed data, so the permutation — and hence every rounded
//!    sum — matches.
//!
//! `tests/proptest_plan.rs` pins the contract on randomized circuits; the
//! golden-waveform suite pins it end to end.
//!
//! # Example
//!
//! ```
//! use exi_netlist::{Circuit, Waveform};
//!
//! # fn main() -> Result<(), exi_netlist::NetlistError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! let gnd = ckt.node("0");
//! ckt.add_voltage_source("Vin", vin, gnd, Waveform::Dc(1.0))?;
//! ckt.add_resistor("R1", vin, out, 1e3)?;
//! ckt.add_capacitor("C1", out, gnd, 1e-12)?;
//!
//! let plan = ckt.compile_plan()?;           // once per topology
//! let mut ws = plan.new_workspace();
//! let mut ev = plan.new_evaluation();
//! let x = vec![0.0; ckt.num_unknowns()];
//! plan.evaluate_into(&x, &mut ws, &mut ev)?; // per step: restamp in place
//! assert_eq!(ev.g.rows(), 3);
//! assert_eq!(ws.allocations(), 0);           // buffers were pre-sized
//! # Ok(())
//! # }
//! ```

use exi_sparse::{CsrMatrix, TripletMatrix};

use crate::circuit::{Circuit, Evaluation};
use crate::devices::{Device, DiodeModel, MosfetModel};
use crate::error::{NetlistError, NetlistResult};
use crate::node::NodeId;

/// Where a matrix entry's value comes from at evaluation time.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Src {
    /// A state-independent stamp, frozen at compile time.
    Const(f64),
    /// A nonlinear scatter slot, rewritten by a device kernel per
    /// evaluation.
    Slot(u32),
}

/// One raw (pre-compression) stamp contribution of a dynamic row, in global
/// push order.
#[derive(Debug, Clone, Copy)]
struct DynEntry {
    col: usize,
    src: Src,
}

/// Per-row assembly strategy.
#[derive(Debug, Clone, Copy)]
enum RowPlan {
    /// The row holds only baseline stamps: its compressed cells live in the
    /// plan's fixed CSR and are restored by `copy_from_slice`.
    Fixed,
    /// The row receives at least one nonlinear slot: its raw contributions
    /// (`dyn_entries[start..end]`) are zero-filtered, sorted and
    /// run-summed per evaluation — the exact legacy pipeline, restricted to
    /// this row.
    Dynamic { start: u32, end: u32 },
}

/// Compiled assembly recipe for one MNA matrix (`G` or `C`).
#[derive(Debug, Clone)]
struct MatrixPlan {
    cols: usize,
    /// Baseline cells, compressed at compile time; dynamic rows are empty
    /// here.
    fixed: CsrMatrix,
    rows: Vec<RowPlan>,
    dyn_entries: Vec<DynEntry>,
    /// Upper bound on the assembled nonzero count (baseline cells plus one
    /// cell per raw dynamic contribution) — the buffer pre-sizing target.
    max_nnz: usize,
    /// Longest dynamic row's raw contribution count (scratch pre-sizing).
    max_row_entries: usize,
}

/// Compiled per-device runtime kernel: the state-dependent work (`f`/`q`
/// accumulation and nonlinear slot values) with every node already resolved
/// to an unknown index (`None` = ground).
#[derive(Debug, Clone)]
enum DeviceKernel {
    Resistor {
        a: Option<usize>,
        b: Option<usize>,
        conductance: f64,
    },
    Capacitor {
        a: Option<usize>,
        b: Option<usize>,
        capacitance: f64,
    },
    Inductor {
        a: Option<usize>,
        b: Option<usize>,
        row: usize,
        inductance: f64,
    },
    VoltageSource {
        pos: Option<usize>,
        neg: Option<usize>,
        row: usize,
    },
    /// Current sources stamp only the constant `B` matrix: nothing to do per
    /// evaluation.
    Inert,
    Diode {
        anode: Option<usize>,
        cathode: Option<usize>,
        model: DiodeModel,
        /// Slots for the four conductance cells `(a,a) (c,c) (a,c) (c,a)`,
        /// `None` where a terminal is ground.
        slots: [Option<u32>; 4],
    },
    Mosfet {
        drain: Option<usize>,
        gate: Option<usize>,
        source: Option<usize>,
        model: MosfetModel,
        /// Slots for `(d,d) (d,g) (d,s) (s,d) (s,g) (s,s)` in stamp order,
        /// `None` where a cell touches ground.
        slots: [Option<u32>; 6],
    },
}

/// Reusable scratch state for [`EvalPlan::evaluate_into`].
///
/// Holds the nonlinear slot values and the per-row compression scratch.
/// Create one per thread/session with [`EvalPlan::new_workspace`] (which
/// pre-sizes every buffer) and reuse it for every evaluation.
#[derive(Debug, Default, Clone)]
pub struct EvalWorkspace {
    slots: Vec<f64>,
    scratch: Vec<(usize, f64)>,
    allocations: usize,
}

impl EvalWorkspace {
    /// Creates an empty workspace; buffers grow (and are counted) on first
    /// use. Prefer [`EvalPlan::new_workspace`], which pre-sizes them.
    pub fn new() -> Self {
        EvalWorkspace::default()
    }

    /// Number of times an evaluation had to grow one of the plan-path
    /// buffers (workspace scratch or the `Evaluation`'s storage). With
    /// pre-sized buffers this stays at zero; a counter that climbs with the
    /// step count is a hot-loop allocation regression.
    pub fn allocations(&self) -> usize {
        self.allocations
    }
}

/// Grows `v` to exactly `len` elements of `fill`, counting a capacity growth
/// into `allocs`.
fn reset_vec<T: Copy>(v: &mut Vec<T>, len: usize, fill: T, allocs: &mut usize) {
    if v.capacity() < len {
        *allocs += 1;
    }
    v.clear();
    v.resize(len, fill);
}

/// A precompiled evaluation plan for one circuit topology.
///
/// Compile with [`Circuit::compile_plan`]; restamp with
/// [`EvalPlan::evaluate_into`]. The plan snapshots the circuit's devices and
/// `gmin`, so it is invalidated by **any** circuit mutation — recompile
/// after adding devices or changing parameters. See the [module
/// docs](self) for the linear-baseline / nonlinear-delta split and the
/// bit-compatibility contract.
///
/// # Examples
///
/// ```
/// use exi_netlist::{Circuit, Waveform};
///
/// # fn main() -> Result<(), exi_netlist::NetlistError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let gnd = ckt.node("0");
/// ckt.add_voltage_source("V1", a, gnd, Waveform::Dc(1.0))?;
/// ckt.add_resistor("R1", a, gnd, 1e3)?;
/// ckt.add_capacitor("C1", a, gnd, 1e-12)?;
/// // Analyze the topology once…
/// let plan = ckt.compile_plan()?;
/// let mut ws = plan.new_workspace();
/// let mut eval = plan.new_evaluation();
/// // …then restamp per state in the hot loop, allocation-free.
/// for x in [[0.0, 0.0], [1.0, -1e-3]] {
///     plan.evaluate_into(&x, &mut ws, &mut eval)?;
/// }
/// assert_eq!(ws.allocations(), 0);
/// assert!(eval.g.get(0, 0) > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EvalPlan {
    n: usize,
    input_dim: usize,
    g: MatrixPlan,
    c: MatrixPlan,
    b: CsrMatrix,
    kernels: Vec<DeviceKernel>,
    nl_slots: usize,
    gmin: f64,
}

/// Records stamp pushes during compilation, mirroring
/// `devices::StampContext` with value provenance.
struct Recorder {
    g: Vec<(usize, usize, Src)>,
    c: TripletMatrix,
    b: TripletMatrix,
    next_slot: u32,
}

impl Recorder {
    fn push_g(&mut self, row: Option<usize>, col: Option<usize>, src: Src) {
        if let (Some(r), Some(c)) = (row, col) {
            // Mirror `TripletMatrix::push`: exact-zero constant stamps are
            // dropped before compression.
            if matches!(src, Src::Const(v) if v == 0.0) {
                return;
            }
            self.g.push((r, c, src));
        }
    }

    /// Allocates a slot for a dynamic cell, or `None` when the cell touches
    /// ground (the stamp would be discarded anyway).
    fn slot(&mut self, row: Option<usize>, col: Option<usize>) -> Option<u32> {
        let (row, col) = (row?, col?);
        let s = self.next_slot;
        self.next_slot += 1;
        self.g.push((row, col, Src::Slot(s)));
        Some(s)
    }

    fn push_c(&mut self, row: Option<usize>, col: Option<usize>, value: f64) {
        if let (Some(r), Some(c)) = (row, col) {
            self.c.push(r, c, value);
        }
    }

    fn push_b(&mut self, row: Option<usize>, source: usize, value: f64) {
        if let Some(r) = row {
            self.b.push(r, source, value);
        }
    }

    /// The standard two-terminal conductance stamp with a constant value,
    /// in `StampContext::stamp_conductance` push order.
    fn const_conductance(&mut self, a: Option<usize>, b: Option<usize>, g: f64) {
        self.push_g(a, a, Src::Const(g));
        self.push_g(b, b, Src::Const(g));
        self.push_g(a, b, Src::Const(-g));
        self.push_g(b, a, Src::Const(-g));
    }

    /// The standard two-terminal capacitance stamp, in
    /// `StampContext::stamp_capacitance` push order.
    fn const_capacitance(&mut self, a: Option<usize>, b: Option<usize>, c: f64) {
        self.push_c(a, a, c);
        self.push_c(b, b, c);
        self.push_c(a, b, -c);
        self.push_c(b, a, -c);
    }
}

fn unknown(node: &NodeId) -> Option<usize> {
    node.unknown()
}

impl EvalPlan {
    /// Compiles a plan for `circuit`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::EmptyCircuit`] for a circuit with no
    /// unknowns.
    pub fn compile(circuit: &Circuit) -> NetlistResult<EvalPlan> {
        let n = circuit.num_unknowns();
        if n == 0 {
            return Err(NetlistError::EmptyCircuit);
        }
        let input_dim = circuit.num_sources().max(1);
        let branch_offset = circuit.num_nodes();
        let gmin = circuit.gmin();
        let mut rec = Recorder {
            g: Vec::with_capacity(8 * circuit.num_devices()),
            c: TripletMatrix::with_capacity(n, n, 4 * circuit.num_devices()),
            b: TripletMatrix::new(n, input_dim),
            next_slot: 0,
        };
        let mut kernels = Vec::with_capacity(circuit.num_devices());

        // One pass over the devices, mirroring `Device::stamp` push order
        // exactly — the bit-compatibility contract (module docs) hangs on
        // this correspondence.
        for device in circuit.devices() {
            match device {
                Device::Resistor {
                    a, b, resistance, ..
                } => {
                    let g = 1.0 / resistance;
                    rec.const_conductance(unknown(a), unknown(b), g);
                    kernels.push(DeviceKernel::Resistor {
                        a: unknown(a),
                        b: unknown(b),
                        conductance: g,
                    });
                }
                Device::Capacitor {
                    a, b, capacitance, ..
                } => {
                    rec.const_capacitance(unknown(a), unknown(b), *capacitance);
                    kernels.push(DeviceKernel::Capacitor {
                        a: unknown(a),
                        b: unknown(b),
                        capacitance: *capacitance,
                    });
                }
                Device::Inductor {
                    a,
                    b,
                    inductance,
                    branch,
                    ..
                } => {
                    let row = branch_offset + branch;
                    rec.push_g(unknown(a), Some(row), Src::Const(1.0));
                    rec.push_g(unknown(b), Some(row), Src::Const(-1.0));
                    rec.push_c(Some(row), Some(row), *inductance);
                    rec.push_g(Some(row), unknown(a), Src::Const(-1.0));
                    rec.push_g(Some(row), unknown(b), Src::Const(1.0));
                    kernels.push(DeviceKernel::Inductor {
                        a: unknown(a),
                        b: unknown(b),
                        row,
                        inductance: *inductance,
                    });
                }
                Device::VoltageSource {
                    pos,
                    neg,
                    branch,
                    source,
                    ..
                } => {
                    let row = branch_offset + branch;
                    rec.push_g(unknown(pos), Some(row), Src::Const(1.0));
                    rec.push_g(unknown(neg), Some(row), Src::Const(-1.0));
                    rec.push_g(Some(row), unknown(pos), Src::Const(1.0));
                    rec.push_g(Some(row), unknown(neg), Src::Const(-1.0));
                    rec.push_b(Some(row), *source, 1.0);
                    kernels.push(DeviceKernel::VoltageSource {
                        pos: unknown(pos),
                        neg: unknown(neg),
                        row,
                    });
                }
                Device::CurrentSource {
                    from, to, source, ..
                } => {
                    rec.push_b(unknown(to), *source, 1.0);
                    rec.push_b(unknown(from), *source, -1.0);
                    kernels.push(DeviceKernel::Inert);
                }
                Device::Diode {
                    anode,
                    cathode,
                    model,
                    ..
                } => {
                    let (a, c) = (unknown(anode), unknown(cathode));
                    let slots = [
                        rec.slot(a, a),
                        rec.slot(c, c),
                        rec.slot(a, c),
                        rec.slot(c, a),
                    ];
                    rec.const_capacitance(a, c, model.junction_capacitance);
                    kernels.push(DeviceKernel::Diode {
                        anode: a,
                        cathode: c,
                        model: model.clone(),
                        slots,
                    });
                }
                Device::Mosfet {
                    drain,
                    gate,
                    source,
                    model,
                    ..
                } => {
                    let (d, g, s) = (unknown(drain), unknown(gate), unknown(source));
                    let slots = [
                        rec.slot(d, d),
                        rec.slot(d, g),
                        rec.slot(d, s),
                        rec.slot(s, d),
                        rec.slot(s, g),
                        rec.slot(s, s),
                    ];
                    rec.const_conductance(d, s, gmin);
                    rec.const_capacitance(g, s, model.cgs);
                    rec.const_capacitance(g, d, model.cgd);
                    kernels.push(DeviceKernel::Mosfet {
                        drain: d,
                        gate: g,
                        source: s,
                        model: model.clone(),
                        slots,
                    });
                }
            }
        }

        let g = compile_matrix(n, rec.g);
        let c_fixed = rec.c.to_csr();
        let c = MatrixPlan {
            cols: n,
            max_nnz: c_fixed.nnz(),
            fixed: c_fixed,
            rows: vec![RowPlan::Fixed; n],
            dyn_entries: Vec::new(),
            max_row_entries: 0,
        };
        Ok(EvalPlan {
            n,
            input_dim,
            g,
            c,
            b: rec.b.to_csr(),
            kernels,
            nl_slots: rec.next_slot as usize,
            gmin,
        })
    }

    /// Number of MNA unknowns the plan was compiled for.
    pub fn num_unknowns(&self) -> usize {
        self.n
    }

    /// Number of entries of the input vector `u(t)` the plan's `B` matrix
    /// multiplies ([`Circuit::input_dim`]).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The constant source-incidence matrix `B`
    /// (`num_unknowns × num_sources.max(1)`), assembled once at compile
    /// time.
    pub fn input_matrix(&self) -> &CsrMatrix {
        &self.b
    }

    /// Number of nonlinear scatter slots — the matrix entries rewritten per
    /// evaluation (and the per-evaluation increment of the engines'
    /// `restamped_entries` counter). Zero for a purely linear circuit.
    pub fn nonlinear_stamp_count(&self) -> usize {
        self.nl_slots
    }

    /// The `gmin` value baked into the plan's nonlinear kernels.
    pub fn gmin(&self) -> f64 {
        self.gmin
    }

    /// Creates a workspace with every scratch buffer pre-sized for this
    /// plan, so evaluations through it never allocate.
    pub fn new_workspace(&self) -> EvalWorkspace {
        EvalWorkspace {
            slots: vec![0.0; self.nl_slots],
            scratch: Vec::with_capacity(self.g.max_row_entries.max(self.c.max_row_entries)),
            allocations: 0,
        }
    }

    /// Creates an [`Evaluation`] whose buffers are pre-sized for this plan,
    /// so the first [`EvalPlan::evaluate_into`] into it already runs
    /// allocation-free.
    pub fn new_evaluation(&self) -> Evaluation {
        Evaluation {
            c: csr_buffer(self.n, self.c.max_nnz),
            g: csr_buffer(self.n, self.g.max_nnz),
            f: Vec::with_capacity(self.n),
            q: Vec::with_capacity(self.n),
        }
    }

    /// Evaluates all devices at state `x`, restamping `out` in place, and
    /// returns the number of nonlinear entries rewritten
    /// ([`EvalPlan::nonlinear_stamp_count`]).
    ///
    /// Bit-identical to [`Circuit::evaluate_reference`] at every `x` (see
    /// the module docs for why that holds). `out`'s previous contents are
    /// irrelevant — only its buffer capacity is reused.
    ///
    /// # Errors
    ///
    /// Returns an error if `x` does not have
    /// [`EvalPlan::num_unknowns`] entries.
    pub fn evaluate_into(
        &self,
        x: &[f64],
        ws: &mut EvalWorkspace,
        out: &mut Evaluation,
    ) -> NetlistResult<usize> {
        if x.len() != self.n {
            return Err(NetlistError::Parse {
                line: 0,
                message: format!(
                    "state vector length {} does not match {} unknowns",
                    x.len(),
                    self.n
                ),
            });
        }
        reset_vec(&mut out.f, self.n, 0.0, &mut ws.allocations);
        reset_vec(&mut out.q, self.n, 0.0, &mut ws.allocations);
        reset_vec(&mut ws.slots, self.nl_slots, 0.0, &mut ws.allocations);
        self.run_kernels(x, &mut out.f, &mut out.q, &mut ws.slots);
        let slots = std::mem::take(&mut ws.slots);
        self.g.assemble(
            self.n,
            &slots,
            &mut ws.scratch,
            &mut out.g,
            &mut ws.allocations,
        );
        self.c.assemble(
            self.n,
            &slots,
            &mut ws.scratch,
            &mut out.c,
            &mut ws.allocations,
        );
        ws.slots = slots;
        Ok(self.nl_slots)
    }

    /// Allocating convenience around [`EvalPlan::evaluate_into`] for tests,
    /// examples and other cold paths.
    ///
    /// # Errors
    ///
    /// As [`EvalPlan::evaluate_into`].
    pub fn evaluate(&self, x: &[f64]) -> NetlistResult<Evaluation> {
        let mut ws = self.new_workspace();
        let mut out = self.new_evaluation();
        self.evaluate_into(x, &mut ws, &mut out)?;
        Ok(out)
    }

    /// Evaluates all devices at `K` lane states in one call, restamping one
    /// [`Evaluation`] per lane.
    ///
    /// This is the value-lane entry point used by the batched sweep engine:
    /// one compiled plan (one topology analysis) serves every lane, and each
    /// lane's restamp is **bit-identical** to a standalone
    /// [`EvalPlan::evaluate_into`] at the same state — the lanes share the
    /// plan and the scratch workspace but never each other's arithmetic.
    /// Returns the number of nonlinear entries rewritten per lane.
    ///
    /// # Errors
    ///
    /// Returns an error if `xs` and `outs` disagree in length or any state
    /// vector does not have [`EvalPlan::num_unknowns`] entries.
    pub fn evaluate_lanes_into(
        &self,
        xs: &[&[f64]],
        ws: &mut EvalWorkspace,
        outs: &mut [Evaluation],
    ) -> NetlistResult<usize> {
        if xs.len() != outs.len() {
            return Err(NetlistError::Parse {
                line: 0,
                message: format!(
                    "{} lane states supplied for {} lane evaluations",
                    xs.len(),
                    outs.len()
                ),
            });
        }
        for (x, out) in xs.iter().zip(outs.iter_mut()) {
            self.evaluate_into(x, ws, out)?;
        }
        Ok(self.nl_slots)
    }

    /// Runs the per-device kernels: `f`/`q` accumulation in device order
    /// (matching the legacy stamp order exactly) and the nonlinear slot
    /// writes.
    fn run_kernels(&self, x: &[f64], f: &mut [f64], q: &mut [f64], slots: &mut [f64]) {
        let v = |idx: Option<usize>| idx.map_or(0.0, |i| x[i]);
        let add = |buf: &mut [f64], idx: Option<usize>, val: f64| {
            if let Some(i) = idx {
                buf[i] += val;
            }
        };
        let write = |slots: &mut [f64], slot: Option<u32>, val: f64| {
            if let Some(s) = slot {
                slots[s as usize] = val;
            }
        };
        for kernel in &self.kernels {
            match kernel {
                DeviceKernel::Resistor { a, b, conductance } => {
                    let i = conductance * (v(*a) - v(*b));
                    add(f, *a, i);
                    add(f, *b, -i);
                }
                DeviceKernel::Capacitor { a, b, capacitance } => {
                    let qc = capacitance * (v(*a) - v(*b));
                    add(q, *a, qc);
                    add(q, *b, -qc);
                }
                DeviceKernel::Inductor {
                    a,
                    b,
                    row,
                    inductance,
                } => {
                    let il = x[*row];
                    let (va, vb) = (v(*a), v(*b));
                    add(f, *a, il);
                    add(f, *b, -il);
                    q[*row] += inductance * il;
                    f[*row] += -(va - vb);
                }
                DeviceKernel::VoltageSource { pos, neg, row } => {
                    let i = x[*row];
                    let (vp, vn) = (v(*pos), v(*neg));
                    add(f, *pos, i);
                    add(f, *neg, -i);
                    f[*row] += vp - vn;
                }
                DeviceKernel::Inert => {}
                DeviceKernel::Diode {
                    anode,
                    cathode,
                    model,
                    slots: sl,
                } => {
                    let vd = v(*anode) - v(*cathode);
                    let op = model.evaluate(vd);
                    add(f, *anode, op.current);
                    add(f, *cathode, -op.current);
                    let g = op.conductance + self.gmin;
                    write(slots, sl[0], g);
                    write(slots, sl[1], g);
                    write(slots, sl[2], -g);
                    write(slots, sl[3], -g);
                    let qd = model.junction_capacitance * vd;
                    add(q, *anode, qd);
                    add(q, *cathode, -qd);
                }
                DeviceKernel::Mosfet {
                    drain,
                    gate,
                    source,
                    model,
                    slots: sl,
                } => {
                    let (vd, vg, vs) = (v(*drain), v(*gate), v(*source));
                    let op = model.evaluate(vg - vs, vd - vs);
                    add(f, *drain, op.ids);
                    add(f, *source, -op.ids);
                    let gm = op.gm;
                    let gds = op.gds;
                    write(slots, sl[0], gds);
                    write(slots, sl[1], gm);
                    write(slots, sl[2], -(gm + gds));
                    write(slots, sl[3], -gds);
                    write(slots, sl[4], -gm);
                    write(slots, sl[5], gm + gds);
                    let qgs = model.cgs * (vg - vs);
                    add(q, *gate, qgs);
                    add(q, *source, -qgs);
                    let qgd = model.cgd * (vg - vd);
                    add(q, *gate, qgd);
                    add(q, *drain, -qgd);
                }
            }
        }
    }
}

/// Partitions the recorded pushes of one matrix into the fixed baseline and
/// the per-row dynamic entry lists.
fn compile_matrix(n: usize, pushes: Vec<(usize, usize, Src)>) -> MatrixPlan {
    let mut dynamic = vec![false; n];
    for (r, _, src) in &pushes {
        if matches!(src, Src::Slot(_)) {
            dynamic[*r] = true;
        }
    }
    // Baseline rows go through the legacy COO→CSR pipeline at compile time
    // (same code, same data, same bits); dynamic rows keep their raw pushes
    // in global push order.
    let mut fixed = TripletMatrix::new(n, n);
    let mut dyn_lists: Vec<Vec<DynEntry>> = vec![Vec::new(); n];
    for (r, c, src) in pushes {
        if dynamic[r] {
            match src {
                Src::Const(v) => {
                    // `TripletMatrix::push` filters exact zeros; constants
                    // are filtered here, slot values at evaluation time.
                    if v != 0.0 {
                        dyn_lists[r].push(DynEntry {
                            col: c,
                            src: Src::Const(v),
                        });
                    }
                }
                src => dyn_lists[r].push(DynEntry { col: c, src }),
            }
        } else if let Src::Const(v) = src {
            fixed.push(r, c, v);
        }
    }
    let fixed = fixed.to_csr();
    let mut rows = Vec::with_capacity(n);
    let mut dyn_entries = Vec::new();
    let mut max_row_entries = 0usize;
    for (r, list) in dyn_lists.into_iter().enumerate() {
        if dynamic[r] {
            let start = dyn_entries.len() as u32;
            max_row_entries = max_row_entries.max(list.len());
            dyn_entries.extend(list);
            rows.push(RowPlan::Dynamic {
                start,
                end: dyn_entries.len() as u32,
            });
        } else {
            rows.push(RowPlan::Fixed);
        }
    }
    MatrixPlan {
        cols: n,
        max_nnz: fixed.nnz() + dyn_entries.len(),
        fixed,
        rows,
        dyn_entries,
        max_row_entries,
    }
}

/// An empty CSR holder whose buffers are pre-sized for `rows`/`nnz`.
fn csr_buffer(rows: usize, nnz: usize) -> CsrMatrix {
    let mut indptr = Vec::with_capacity(rows + 1);
    indptr.push(0);
    CsrMatrix::from_parts_unchecked(
        0,
        0,
        indptr,
        Vec::with_capacity(nnz),
        Vec::with_capacity(nnz),
    )
}

impl MatrixPlan {
    /// Rebuilds the matrix inside `out`'s buffers: baseline rows by flat
    /// copies, dynamic rows through the legacy zero-filter / sort / run-sum
    /// pipeline over `scratch`.
    fn assemble(
        &self,
        n: usize,
        slots: &[f64],
        scratch: &mut Vec<(usize, f64)>,
        out: &mut CsrMatrix,
        allocs: &mut usize,
    ) {
        let (mut indptr, mut indices, mut values) = out.take_parts();
        if indptr.capacity() < n + 1 {
            *allocs += 1;
        }
        if indices.capacity() < self.max_nnz || values.capacity() < self.max_nnz {
            *allocs += 1;
        }
        indptr.clear();
        indices.clear();
        indices.reserve(self.max_nnz);
        values.clear();
        values.reserve(self.max_nnz);
        if self.dyn_entries.is_empty() {
            // Fully linear matrix: three flat copies restore the baseline.
            indptr.extend_from_slice(self.fixed.indptr());
            indices.extend_from_slice(self.fixed.indices());
            values.extend_from_slice(self.fixed.values());
        } else {
            if scratch.capacity() < self.max_row_entries {
                *allocs += 1;
                scratch.reserve(self.max_row_entries);
            }
            indptr.reserve(n + 1);
            indptr.push(0);
            let fixed_indptr = self.fixed.indptr();
            for (r, plan) in self.rows.iter().enumerate() {
                match plan {
                    RowPlan::Fixed => {
                        let s = fixed_indptr[r];
                        let e = fixed_indptr[r + 1];
                        indices.extend_from_slice(&self.fixed.indices()[s..e]);
                        values.extend_from_slice(&self.fixed.values()[s..e]);
                    }
                    RowPlan::Dynamic { start, end } => {
                        scratch.clear();
                        for entry in &self.dyn_entries[*start as usize..*end as usize] {
                            let v = match entry.src {
                                Src::Const(v) => v,
                                Src::Slot(s) => slots[s as usize],
                            };
                            if v != 0.0 {
                                scratch.push((entry.col, v));
                            }
                        }
                        // The exact `CsrMatrix::from_triplets` row pipeline:
                        // same sort call on the same element type, then
                        // run-summation with exact-zero cell dropping.
                        scratch.sort_unstable_by_key(|&(c, _)| c);
                        let mut i = 0;
                        while i < scratch.len() {
                            let col = scratch[i].0;
                            let mut sum = 0.0;
                            while i < scratch.len() && scratch[i].0 == col {
                                sum += scratch[i].1;
                                i += 1;
                            }
                            if sum != 0.0 {
                                indices.push(col);
                                values.push(sum);
                            }
                        }
                    }
                }
                indptr.push(indices.len());
            }
        }
        *out = CsrMatrix::from_parts_unchecked(n, self.cols, indptr, indices, values);
    }
}

/// A structural+parametric fingerprint of a circuit, suitable as a cache key
/// for sharing compiled [`EvalPlan`]s across same-structure jobs (see
/// `exi_sim::PlanCache`).
///
/// Two circuits map to the same key exactly when they compile to
/// interchangeable plans: same unknown layout, same device sequence with the
/// same terminals and parameter values, same `gmin`. Device *names* and
/// source *waveforms* are deliberately excluded — neither enters the plan
/// (waveforms are evaluated separately via
/// [`Circuit::input_vector`](crate::Circuit::input_vector)).
pub fn circuit_fingerprint(circuit: &Circuit) -> Vec<u8> {
    let mut key = Vec::with_capacity(16 + 40 * circuit.num_devices());
    let push_u64 = |key: &mut Vec<u8>, v: u64| key.extend_from_slice(&v.to_le_bytes());
    push_u64(&mut key, circuit.num_unknowns() as u64);
    push_u64(&mut key, circuit.num_nodes() as u64);
    push_u64(&mut key, circuit.gmin().to_bits());
    let node = |n: &NodeId| n.unknown().map_or(u64::MAX, |u| u as u64);
    for device in circuit.devices() {
        match device {
            Device::Resistor {
                a, b, resistance, ..
            } => {
                key.push(1);
                push_u64(&mut key, node(a));
                push_u64(&mut key, node(b));
                push_u64(&mut key, resistance.to_bits());
            }
            Device::Capacitor {
                a, b, capacitance, ..
            } => {
                key.push(2);
                push_u64(&mut key, node(a));
                push_u64(&mut key, node(b));
                push_u64(&mut key, capacitance.to_bits());
            }
            Device::Inductor {
                a,
                b,
                inductance,
                branch,
                ..
            } => {
                key.push(3);
                push_u64(&mut key, node(a));
                push_u64(&mut key, node(b));
                push_u64(&mut key, *branch as u64);
                push_u64(&mut key, inductance.to_bits());
            }
            Device::VoltageSource {
                pos,
                neg,
                branch,
                source,
                ..
            } => {
                key.push(4);
                push_u64(&mut key, node(pos));
                push_u64(&mut key, node(neg));
                push_u64(&mut key, *branch as u64);
                push_u64(&mut key, *source as u64);
            }
            Device::CurrentSource {
                from, to, source, ..
            } => {
                key.push(5);
                push_u64(&mut key, node(from));
                push_u64(&mut key, node(to));
                push_u64(&mut key, *source as u64);
            }
            Device::Diode {
                anode,
                cathode,
                model,
                ..
            } => {
                key.push(6);
                push_u64(&mut key, node(anode));
                push_u64(&mut key, node(cathode));
                push_u64(&mut key, model.saturation_current.to_bits());
                push_u64(&mut key, model.emission_coefficient.to_bits());
                push_u64(&mut key, model.thermal_voltage.to_bits());
                push_u64(&mut key, model.junction_capacitance.to_bits());
            }
            Device::Mosfet {
                drain,
                gate,
                source,
                model,
                ..
            } => {
                key.push(7);
                push_u64(&mut key, node(drain));
                push_u64(&mut key, node(gate));
                push_u64(&mut key, node(source));
                key.push(match model.polarity {
                    crate::devices::MosfetPolarity::Nmos => 0,
                    crate::devices::MosfetPolarity::Pmos => 1,
                });
                push_u64(&mut key, model.threshold.to_bits());
                push_u64(&mut key, model.transconductance.to_bits());
                push_u64(&mut key, model.lambda.to_bits());
                push_u64(&mut key, model.width.to_bits());
                push_u64(&mut key, model.length.to_bits());
                push_u64(&mut key, model.cgs.to_bits());
                push_u64(&mut key, model.cgd.to_bits());
            }
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    fn mixed_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let mid = ckt.node("mid");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("Vdd", vdd, gnd, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_voltage_source("Vin", inp, gnd, Waveform::Dc(0.4))
            .unwrap();
        ckt.add_mosfet("MN", out, inp, gnd, MosfetModel::nmos())
            .unwrap();
        ckt.add_mosfet("MP", out, inp, vdd, MosfetModel::pmos())
            .unwrap();
        ckt.add_resistor("R1", out, mid, 2e3).unwrap();
        ckt.add_capacitor("C1", mid, gnd, 1e-13).unwrap();
        ckt.add_inductor("L1", mid, gnd, 1e-9).unwrap();
        ckt.add_diode("D1", mid, gnd, DiodeModel::default())
            .unwrap();
        ckt.add_current_source("I1", gnd, mid, Waveform::Dc(1e-4))
            .unwrap();
        ckt
    }

    fn assert_eval_bits_equal(a: &Evaluation, b: &Evaluation) {
        assert_eq!(a.g.indptr(), b.g.indptr());
        assert_eq!(a.g.indices(), b.g.indices());
        assert_eq!(a.c.indptr(), b.c.indptr());
        assert_eq!(a.c.indices(), b.c.indices());
        for (x, y) in a.g.values().iter().zip(b.g.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.c.values().iter().zip(b.c.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.f.iter().zip(&b.f) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.q.iter().zip(&b.q) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn plan_matches_legacy_on_a_mixed_circuit() {
        let ckt = mixed_circuit();
        let plan = ckt.compile_plan().unwrap();
        let n = ckt.num_unknowns();
        let mut ws = plan.new_workspace();
        let mut ev = plan.new_evaluation();
        // Several states, including ones that drive the MOSFETs through
        // cut-off (gm == gds == 0, the pattern-shrinking case).
        let states: Vec<Vec<f64>> = vec![
            vec![0.0; n],
            (0..n).map(|i| 0.1 * i as f64 - 0.2).collect(),
            (0..n)
                .map(|i| ((i * 7 + 3) % 5) as f64 * 0.3 - 0.6)
                .collect(),
        ];
        for x in &states {
            let restamped = plan.evaluate_into(x, &mut ws, &mut ev).unwrap();
            assert_eq!(restamped, plan.nonlinear_stamp_count());
            let legacy = ckt.evaluate_reference(x).unwrap();
            assert_eval_bits_equal(&ev, &legacy);
        }
        // Buffer reuse across different states leaves no stale entries and
        // never allocates after warm-up.
        assert_eq!(ws.allocations(), 0);
        assert_eq!(plan.input_matrix(), &ckt.input_matrix_reference().unwrap());
    }

    #[test]
    fn linear_circuit_is_fully_baseline() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let gnd = ckt.node("0");
        ckt.add_voltage_source("V", a, gnd, Waveform::Dc(1.0))
            .unwrap();
        ckt.add_resistor("R", a, b, 1e3).unwrap();
        ckt.add_capacitor("C", b, gnd, 1e-12).unwrap();
        let plan = ckt.compile_plan().unwrap();
        assert_eq!(plan.nonlinear_stamp_count(), 0);
        let x = vec![0.7, 0.3, -1e-4];
        let ev = plan.evaluate(&x).unwrap();
        let legacy = ckt.evaluate_reference(&x).unwrap();
        assert_eval_bits_equal(&ev, &legacy);
    }

    #[test]
    fn compile_rejects_empty_circuits() {
        let ckt = Circuit::new();
        assert!(matches!(
            EvalPlan::compile(&ckt),
            Err(NetlistError::EmptyCircuit)
        ));
    }

    #[test]
    fn evaluate_into_validates_state_length() {
        let ckt = mixed_circuit();
        let plan = ckt.compile_plan().unwrap();
        let mut ws = plan.new_workspace();
        let mut ev = plan.new_evaluation();
        assert!(matches!(
            plan.evaluate_into(&[0.0], &mut ws, &mut ev),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn evaluate_lanes_into_matches_per_lane_scalar_evaluations() {
        let ckt = mixed_circuit();
        let plan = ckt.compile_plan().unwrap();
        let n = plan.num_unknowns();
        let states: Vec<Vec<f64>> = (0..4)
            .map(|lane| (0..n).map(|i| 0.1 * (i + lane) as f64 - 0.15).collect())
            .collect();
        let refs: Vec<&[f64]> = states.iter().map(|s| s.as_slice()).collect();
        let mut ws = plan.new_workspace();
        let mut outs: Vec<_> = (0..4).map(|_| plan.new_evaluation()).collect();
        let stamped = plan.evaluate_lanes_into(&refs, &mut ws, &mut outs).unwrap();
        assert_eq!(stamped, plan.nonlinear_stamp_count());
        for (x, lane_ev) in states.iter().zip(outs.iter()) {
            let scalar = plan.evaluate(x).unwrap();
            assert_eq!(scalar.g.values(), lane_ev.g.values());
            assert_eq!(scalar.c.values(), lane_ev.c.values());
            assert_eq!(scalar.f, lane_ev.f);
            assert_eq!(scalar.q, lane_ev.q);
        }
        // Length disagreement is rejected.
        assert!(plan
            .evaluate_lanes_into(&refs[..2], &mut ws, &mut outs)
            .is_err());
    }

    #[test]
    fn fingerprints_ignore_names_and_waveforms_but_not_values() {
        let base = mixed_circuit();
        let mut renamed = Circuit::new();
        {
            let vdd = renamed.node("vdd");
            let inp = renamed.node("in");
            let out = renamed.node("out");
            let mid = renamed.node("mid");
            let gnd = renamed.node("0");
            renamed
                .add_voltage_source("Vsupply", vdd, gnd, Waveform::Dc(3.3))
                .unwrap();
            renamed
                .add_voltage_source("Vstim", inp, gnd, Waveform::Dc(0.0))
                .unwrap();
            renamed
                .add_mosfet("M_a", out, inp, gnd, MosfetModel::nmos())
                .unwrap();
            renamed
                .add_mosfet("M_b", out, inp, vdd, MosfetModel::pmos())
                .unwrap();
            renamed.add_resistor("Rx", out, mid, 2e3).unwrap();
            renamed.add_capacitor("Cx", mid, gnd, 1e-13).unwrap();
            renamed.add_inductor("Lx", mid, gnd, 1e-9).unwrap();
            renamed
                .add_diode("Dx", mid, gnd, DiodeModel::default())
                .unwrap();
            renamed
                .add_current_source("Ix", gnd, mid, Waveform::Dc(5.0))
                .unwrap();
        }
        assert_eq!(circuit_fingerprint(&base), circuit_fingerprint(&renamed));
        // A changed parameter value changes the key.
        let mut other = mixed_circuit();
        other.set_gmin(1e-9);
        assert_ne!(circuit_fingerprint(&base), circuit_fingerprint(&other));
    }
}
