//! The `serve` section: generated decks (`Deck::to_spice`) through an
//! `exi-serve` daemon over loopback, in an open loop at a fixed rate.
//!
//! The daemon is this executable in `--serve-daemon` mode: a separate
//! process running `exi_serve::Server` with two workers. The generator is
//! the section process: one connection, a sender thread (this one) that
//! writes each request when it is due, and a receiver thread that stamps
//! replies. Every time is measured from when the request was due.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use exi_netlist::deck::Analysis;
use exi_netlist::generators::{
    coupled_lines, power_grid, rc_ladder, rc_mesh, CoupledLinesSpec, PowerGridSpec, RcLadderSpec,
    RcMeshSpec,
};
use exi_netlist::{parse_deck, Circuit, Deck};
use exi_serve::{
    read_frame, write_frame, Client, Request, Response, RunRequest, ServeConfig, Server,
};
use exi_sim::{analysis_options, resolve_probes, CsvObserver, Method, Simulator};

use crate::util::{mean, median, peak_rss_mb, percentile, secs, setup_times, timed, Report, Rng};

/// Offered load in jobs per second: about a third of what the two workers
/// sustain on this mix on a 2-CPU host, so queues form only in bursts.
const RATE_PER_S: f64 = 40.0;

/// Distinct warm decks; requests draw from them so fingerprints repeat.
const TEMPLATES: usize = 8;

/// Share of requests that carry a never-seen circuit (cold caches).
const COLD_SHARE: f64 = 0.2;

/// Side of the power grid cold decks are built on: 570 bridge positions,
/// more cold decks than a 60-second window sends.
const COLD_SIDE: usize = 6;

/// Rows per `chunk` frame the generator asks for: more than any deck here
/// produces, so every job streams one chunk. With the daemon's default of
/// 64, a job's later frames wait on TCP acknowledgements (the daemon does
/// not set `TCP_NODELAY`), and its time jumps by whole request gaps.
const CHUNK_ROWS: usize = 4096;

const WORKERS: usize = 2;
const METHODS: [Method; 3] = [
    Method::BackwardEuler,
    Method::ExponentialRosenbrock,
    Method::ExponentialRosenbrockCorrected,
];

/// Runs the daemon: binds a free loopback port, announces it on standard
/// output, and serves until a client asks it to shut down.
pub fn daemon() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        queue_capacity: 256,
        ..ServeConfig::default()
    })
    .expect("the daemon binds a loopback port");
    let port = server.local_addr().expect("bound address").port();
    println!("port {port}");
    std::io::stdout().flush().expect("announce the port");
    server.run();
}

/// A running daemon process; dropping it shuts the daemon down and waits.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn() -> Daemon {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("--serve-daemon")
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn the serve daemon");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read the daemon's port");
        let port = line
            .trim()
            .strip_prefix("port ")
            .unwrap_or_default()
            .to_string();
        let daemon = Daemon {
            child,
            addr: format!("127.0.0.1:{port}"),
        };
        Client::connect(&daemon.addr)
            .and_then(|mut c| c.ping().map_err(|e| std::io::Error::other(e.to_string())))
            .expect("the daemon answers ping");
        daemon
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let stopped = Client::connect(&self.addr)
            .map(|mut c| c.shutdown().is_ok())
            .unwrap_or(false);
        let deadline = Instant::now() + Duration::from_secs(10);
        while stopped && Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request of the schedule: indices into the decks and `METHODS`.
struct Job {
    deck: usize,
    method: usize,
}

struct Load {
    decks: Vec<String>,
    warm: usize,
    jobs: Vec<Job>,
}

/// A small-to-mid circuit of kind `kind` and size index `size`, with its
/// probe node and `.tran` step and stop.
fn circuit(kind: usize, size: usize) -> (Circuit, String, f64, f64) {
    match kind % 4 {
        0 => {
            let segments = 10 + size;
            let c = rc_ladder(&RcLadderSpec {
                segments,
                ..RcLadderSpec::default()
            });
            (c.expect("ladder"), format!("n{segments}"), 1e-12, 2e-10)
        }
        1 => {
            let side = 4 + size % 4;
            let c = rc_mesh(&RcMeshSpec {
                rows: side,
                cols: side + size / 4,
                ..RcMeshSpec::default()
            });
            (c.expect("mesh"), "m_0_0".to_string(), 1e-12, 2e-10)
        }
        2 => {
            let side = 5 + size % 6;
            let c = power_grid(&PowerGridSpec {
                rows: side,
                cols: side + size / 6,
                num_sinks: 4,
                ..PowerGridSpec::default()
            });
            (c.expect("grid"), "g_1_1".to_string(), 1e-11, 1e-9)
        }
        _ => {
            let c = coupled_lines(&CoupledLinesSpec {
                lines: 2,
                segments: 4 + size,
                random_couplings: 6,
                mosfet_drivers: false,
                seed: size as u64,
                ..CoupledLinesSpec::default()
            });
            (c.expect("lines"), "l0_1".to_string(), 1e-12, 2e-10)
        }
    }
}

/// A cold circuit: a `COLD_SIDE`² power grid plus one bridge resistor
/// between the `index`-th pair of nodes that are not grid neighbours. Each
/// bridge adds a `G` entry of its own, so every cold deck misses both warm
/// caches, at the cost of a warm grid.
fn cold_circuit(index: usize) -> (Circuit, String, f64, f64) {
    let node = |k: usize| (k / COLD_SIDE, k % COLD_SIDE);
    let pairs: Vec<(usize, usize)> = (0..COLD_SIDE * COLD_SIDE)
        .flat_map(|a| (a + 1..COLD_SIDE * COLD_SIDE).map(move |b| (a, b)))
        .filter(|&(a, b)| {
            let ((ra, ca), (rb, cb)) = (node(a), node(b));
            ra.abs_diff(rb) + ca.abs_diff(cb) > 1
        })
        .collect();
    let (a, b) = pairs[index % pairs.len()];
    let (mut circuit, probe, step, stop) = circuit(2, COLD_SIDE - 5);
    let name = |(r, c): (usize, usize)| format!("g_{r}_{c}");
    let (na, nb) = (circuit.node(&name(node(a))), circuit.node(&name(node(b))));
    circuit
        .add_resistor("Rbridge", na, nb, 10.0)
        .expect("a bridge between two grid nodes");
    (circuit, probe, step, stop)
}

fn deck_text((circuit, probe, step, stop): (Circuit, String, f64, f64)) -> String {
    let mut deck = Deck::new(circuit);
    deck.analyses.push(Analysis::Tran {
        step,
        stop,
        h_max: None,
    });
    deck.prints.push(probe);
    deck.to_spice()
        .expect("generated decks have a SPICE spelling")
}

/// The schedule for `seed`: `TEMPLATES` warm decks of assorted kinds and
/// sizes, one fresh deck per cold request, and a drawn method per request.
fn generate(seed: u64, window_s: f64) -> Load {
    let mut rng = Rng::new(seed, 4);
    let mut decks: Vec<String> = (0..TEMPLATES)
        .map(|k| deck_text(circuit(k, rng.range(0, 5))))
        .collect();
    let warm = decks.len();
    let first_bridge = rng.range(0, 1000);
    let count = (window_s * RATE_PER_S).ceil() as usize;
    let mut jobs = Vec::with_capacity(count);
    for _ in 0..count {
        let deck = if rng.unit() < COLD_SHARE {
            decks.push(deck_text(cold_circuit(first_bridge + decks.len() - warm)));
            decks.len() - 1
        } else {
            rng.range(0, warm - 1)
        };
        jobs.push(Job {
            deck,
            method: rng.range(0, METHODS.len() - 1),
        });
    }
    Load { decks, warm, jobs }
}

/// What the receiver saw for one job.
#[derive(Default, Clone)]
struct Reply {
    accepted: Option<Instant>,
    first_chunk: Option<Instant>,
    done: Option<Instant>,
    csv: String,
    bytes: usize,
    symbolic_analyses: usize,
    shared_symbolic_hits: usize,
    plan_compilations: usize,
    accepted_steps: usize,
    error: Option<String>,
}

fn push_row(csv: &mut String, cells: &[String]) {
    csv.push_str(&cells.join(","));
    csv.push('\n');
}

/// Reads replies until every one of `count` jobs has a terminal frame.
fn receive(stream: TcpStream, count: usize) -> Vec<Reply> {
    let mut replies = vec![Reply::default(); count];
    let mut reader = BufReader::new(stream);
    let mut open = count;
    let index = |id: &str| id.strip_prefix('j').and_then(|k| k.parse::<usize>().ok());
    while open > 0 {
        let frame = match read_frame(&mut reader, 64 << 20) {
            Ok(Some(frame)) => frame,
            _ => break,
        };
        let now = Instant::now();
        let Ok(response) = Response::from_json(&frame) else {
            break;
        };
        let (id, terminal) = match &response {
            Response::Accepted { id, .. } | Response::Chunk { id, .. } => (id.clone(), false),
            Response::Done { id, .. }
            | Response::JobError { id, .. }
            | Response::Busy { id, .. }
            | Response::Rejected { id, .. }
            | Response::Cancelled { id, .. } => (id.clone(), true),
            _ => continue,
        };
        let Some(reply) = index(&id).and_then(|k| replies.get_mut(k)) else {
            continue;
        };
        reply.bytes += frame.len();
        match response {
            Response::Accepted { .. } => reply.accepted = Some(now),
            Response::Chunk { columns, rows, .. } => {
                reply.first_chunk.get_or_insert(now);
                if let Some(columns) = columns {
                    push_row(&mut reply.csv, &columns);
                }
                for row in &rows {
                    push_row(&mut reply.csv, row);
                }
            }
            Response::Done {
                accepted_steps,
                symbolic_analyses,
                shared_symbolic_hits,
                plan_compilations,
                ..
            } => {
                reply.done = Some(now);
                reply.accepted_steps = accepted_steps;
                reply.symbolic_analyses = symbolic_analyses;
                reply.shared_symbolic_hits = shared_symbolic_hits;
                reply.plan_compilations = plan_compilations;
            }
            other => reply.error = Some(other.to_json()),
        }
        if terminal {
            open -= 1;
        }
    }
    replies
}

/// Sends every job when it is due and collects the replies. Returns each
/// job's due and send instants and its reply.
fn drive(daemon: &Daemon, load: &Load) -> (Vec<Instant>, Vec<Instant>, Vec<Reply>) {
    let mut writer = TcpStream::connect(&daemon.addr).expect("connect to the daemon");
    writer.set_nodelay(true).expect("disable Nagle on loopback");
    let read_half = writer.try_clone().expect("clone the connection");
    read_half
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("bound a stalled read");
    let count = load.jobs.len();
    let receiver = std::thread::spawn(move || receive(read_half, count));
    let start = Instant::now() + Duration::from_millis(20);
    let mut due = Vec::with_capacity(count);
    let mut sent = Vec::with_capacity(count);
    for (k, job) in load.jobs.iter().enumerate() {
        let at = start + Duration::from_secs_f64(k as f64 / RATE_PER_S);
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        due.push(at);
        sent.push(Instant::now());
        let request = Request::Run(RunRequest {
            id: format!("j{k}"),
            deck: load.decks[job.deck].clone(),
            method: METHODS[job.method],
            probes: Vec::new(),
            decimate: 1,
            chunk_rows: Some(CHUNK_ROWS),
            deadline_ms: None,
        });
        write_frame(&mut writer, &request.to_json()).expect("send a request");
    }
    let replies = receiver.join().expect("the receiver thread finishes");
    (due, sent, replies)
}

/// The in-process reference for one deck and method: the CSV a `Simulator`
/// writes through `CsvObserver`, with parse and solve times.
struct Reference {
    csv: String,
    parse_s: f64,
    solve_s: f64,
}

fn reference(text: &str, method: Method) -> Reference {
    let start = Instant::now();
    let deck = parse_deck(text).expect("generated decks parse");
    let parse_s = secs(start);
    let start = Instant::now();
    let analysis = &deck.analyses[0];
    let options = analysis_options(&deck, analysis).expect("a .tran card");
    let names = deck.effective_probes(&[]);
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let probes = resolve_probes(&deck.circuit, &names).expect("probes resolve");
    let mut observer = CsvObserver::new(Vec::new(), probes);
    Simulator::new(&deck.circuit)
        .transient_observed(method, &options, &mut observer)
        .expect("the reference run completes");
    let bytes = observer.finish().expect("in-memory sink");
    Reference {
        csv: String::from_utf8(bytes).expect("CSV is UTF-8"),
        parse_s,
        solve_s: secs(start),
    }
}

fn ms(from: Instant, to: Option<Instant>) -> f64 {
    to.map_or(f64::NAN, |t| {
        t.saturating_duration_since(from).as_secs_f64() * 1e3
    })
}

/// Queue wait per job, reconstructed from client stamps: the daemon's queue
/// is FIFO over `WORKERS` workers, so a job starts when it was accepted or
/// when the earliest worker frees, whichever is later.
fn queue_waits(replies: &[Reply]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..replies.len())
        .filter(|&k| replies[k].accepted.is_some() && replies[k].done.is_some())
        .collect();
    order.sort_by_key(|&k| replies[k].accepted);
    let mut free: Vec<Option<Instant>> = vec![None; WORKERS];
    let mut waits = vec![0.0; replies.len()];
    for k in order {
        let accepted = replies[k].accepted.expect("filtered");
        let slot = (0..WORKERS).min_by_key(|&w| free[w]).expect("workers");
        let start = free[slot].map_or(accepted, |f| f.max(accepted));
        waits[k] = start.duration_since(accepted).as_secs_f64() * 1e3;
        free[slot] = replies[k].done;
    }
    waits
}

pub fn run(seed: u64, window: f64, trace: bool, setup_repeats: usize) -> Report {
    let mut report = Report::default();
    let set_up = || (generate(seed, window), Daemon::spawn());
    let ((load, daemon), setup_s) = timed(set_up);
    let (due, sent, replies) = drive(&daemon, &load);
    let daemon_rss = peak_rss_mb(daemon.child.id());
    drop(daemon);

    let mut references: HashMap<(usize, usize), Reference> = HashMap::new();
    for (k, job) in load.jobs.iter().enumerate() {
        let r = references
            .entry((job.deck, job.method))
            .or_insert_with(|| reference(&load.decks[job.deck], METHODS[job.method]));
        let reply = &replies[k];
        report.check(
            reply.done.is_some() && reply.csv == r.csv,
            || match &reply.error {
                Some(e) => format!("serve job {k}: {e}"),
                None if reply.done.is_none() => format!("serve job {k}: no reply"),
                None => format!("serve job {k}: CSV differs from the in-process Simulator run"),
            },
        );
    }

    let ttfc: Vec<f64> = (0..due.len())
        .map(|k| ms(due[k], replies[k].first_chunk))
        .collect();
    let job: Vec<f64> = (0..due.len())
        .map(|k| ms(due[k], replies[k].done))
        .collect();
    let late: Vec<f64> = (0..due.len()).map(|k| ms(due[k], Some(sent[k]))).collect();
    let finite = |v: &[f64]| {
        v.iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect::<Vec<_>>()
    };
    let (ttfc, job, late) = (finite(&ttfc), finite(&job), finite(&late));
    if ttfc.is_empty() || job.is_empty() {
        return report;
    }
    eprintln!(
        "serve: {} jobs at {RATE_PER_S}/s over {window:.1} s ({} warm decks, {} cold); \
         generator lateness p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
        due.len(),
        load.warm,
        load.decks.len() - load.warm,
        median(&late),
        percentile(&late, 95.0),
        late.iter().copied().fold(0.0, f64::max),
    );
    if !trace {
        for &t in &ttfc {
            report.sample("ttfc_ms", t);
        }
        for &j in &job {
            report.sample("job_ms", j);
        }
        for t in setup_times(setup_s, setup_repeats, set_up) {
            report.sample("setup_s", t);
        }
        report.sample("peak_rss_mb", daemon_rss);
        return report;
    }

    let done: Vec<usize> = (0..replies.len())
        .filter(|&k| replies[k].done.is_some())
        .collect();
    let admit: Vec<f64> = done
        .iter()
        .map(|&k| ms(sent[k], replies[k].accepted))
        .collect();
    let stream: Vec<f64> = done
        .iter()
        .map(|&k| {
            ms(
                replies[k].first_chunk.expect("done jobs streamed"),
                replies[k].done,
            )
        })
        .collect();
    let waits = queue_waits(&replies);
    let sum = |f: &dyn Fn(&Reply) -> usize| done.iter().map(|&k| f(&replies[k])).sum::<usize>();
    let warm_hits = done
        .iter()
        .filter(|&&k| replies[k].plan_compilations == 0)
        .count();
    let parse_us: Vec<f64> = references.values().map(|r| r.parse_s * 1e6).collect();
    let mut compile_ms = Vec::new();
    for text in &load.decks {
        let deck = parse_deck(text).expect("generated decks parse");
        let start = Instant::now();
        deck.circuit
            .compile_plan()
            .expect("generated decks compile");
        compile_ms.push(secs(start) * 1e3);
    }
    // The program's own work per job — parse plus an in-process solve of
    // the same deck — over the job's due-to-done time.
    let attributed_ms: f64 = (0..load.jobs.len())
        .filter(|&k| replies[k].done.is_some())
        .map(|k| {
            let r = &references[&(load.jobs[k].deck, load.jobs[k].method)];
            (r.parse_s + r.solve_s) * 1e3
        })
        .sum();
    report.metric("serve.admit_ms", median(&admit));
    report.metric("serve.queue_wait_ms", mean(&waits));
    report.metric("serve.stream_ms", median(&stream));
    report.metric(
        "serve.bytes_per_job",
        sum(&|r| r.bytes) as f64 / done.len().max(1) as f64,
    );
    report.metric(
        "serve.warm_hit_ratio",
        warm_hits as f64 / done.len().max(1) as f64,
    );
    report.metric("serve.generator_late_ms", percentile(&late, 95.0));
    report.metric("netlist.deck.parse_us", mean(&parse_us));
    report.metric("netlist.plan.compile_ms", mean(&compile_ms));
    report.metric(
        "sparse.lu.symbolic_analyses",
        sum(&|r| r.symbolic_analyses) as f64,
    );
    report.metric(
        "sparse.shared.hits",
        sum(&|r| r.shared_symbolic_hits) as f64,
    );
    report.metric(
        "core.session.accepted_steps",
        sum(&|r| r.accepted_steps) as f64,
    );
    report.metric("trace.coverage", attributed_ms / job.iter().sum::<f64>());
    report
}
