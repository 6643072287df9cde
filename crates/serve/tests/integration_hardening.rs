//! Hardening tests that need no fault-injection features: admission control
//! (per-job budget, server-wide in-flight budget, default deadline),
//! slow-loris/idle connection reaping, and the overload-shedding ladder —
//! all over real TCP sockets against an in-process daemon.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use exi_serve::{
    Client, JobBudget, OverloadConfig, Request, Response, RunEnd, RunRequest, ServeConfig, Server,
    ServerStats,
};
use exi_sim::Method;

/// The CLI golden-fixture RC lowpass: ~3 unknowns, finishes in milliseconds.
const RC_DECK: &str = "Vin in 0 PULSE(0 1 0 10p 10p 200p)\n\
                       R1 in out 1k\n\
                       C1 out 0 1f\n\
                       .tran 1p 500p\n\
                       .print v(out)\n";

/// A long run (the third `.tran` field clamps `h_max`, forcing 60000
/// declared steps) for deadline, in-flight and overload tests.
const SLOW_DECK: &str = "Vin in 0 PULSE(0 1 0 10p 10p 200p)\n\
                         R1 in out 1k\n\
                         C1 out 0 1f\n\
                         .tran 1p 60000p 1p\n\
                         .print v(out)\n";

fn boot(config: ServeConfig) -> (SocketAddr, JoinHandle<ServerStats>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local_addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn request(deck: &str, id: &str) -> RunRequest {
    RunRequest {
        id: id.to_string(),
        deck: deck.to_string(),
        method: Method::ExponentialRosenbrock,
        probes: Vec::new(),
        decimate: 1,
        chunk_rows: None,
        deadline_ms: None,
    }
}

/// Polls the daemon's stats until `pred` holds or `timeout` elapses; returns
/// the last snapshot either way.
fn poll_stats(
    addr: SocketAddr,
    timeout: Duration,
    pred: impl Fn(&ServerStats) -> bool,
) -> ServerStats {
    let deadline = Instant::now() + timeout;
    loop {
        let mut client = Client::connect(addr).expect("connect for stats");
        let stats = client.stats().expect("stats");
        if pred(&stats) || Instant::now() >= deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A declared-steps budget below `SLOW_DECK`'s 60000 steps refuses the job
/// at admission with `rejected{reason: "budget"}` — before it touches the
/// queue — and the refusal is attributed to `jobs_rejected_budget`, not
/// `jobs_failed` or `jobs_rejected`.
#[test]
fn oversized_decks_are_rejected_at_admission_with_attribution() {
    let (addr, daemon) = boot(ServeConfig {
        budget: JobBudget {
            max_declared_steps: 1000,
            ..JobBudget::default()
        },
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let mut sink = Vec::new();
    let end = client
        .run_streaming(request(SLOW_DECK, "too-long"), &mut sink, ',')
        .expect("run");
    let RunEnd::Rejected { reason, message } = end else {
        panic!("expected rejected, got {end:?}");
    };
    assert_eq!(reason, "budget");
    assert!(
        message.contains("60000") || message.contains("step"),
        "budget message should name the violated limit: {message}"
    );
    assert!(sink.is_empty(), "a rejected job must stream nothing");

    // A deck within the same budget still runs on the same connection.
    let end = client
        .run_streaming(request(RC_DECK, "fits"), &mut sink, ',')
        .expect("run");
    assert!(matches!(end, RunEnd::Done { .. }), "got {end:?}");

    client.shutdown().expect("shutdown");
    let stats = daemon.join().expect("join");
    assert_eq!(stats.jobs_rejected_budget, 1);
    assert_eq!(stats.jobs_rejected, 0, "budget refusals are not 'busy'");
    assert_eq!(stats.jobs_failed, 0, "budget refusals are not failures");
    assert_eq!(stats.jobs_completed, 1);
}

/// A tiny unknown-count budget refuses even the RC deck, proving the
/// footprint estimate covers unknowns, not just declared steps.
#[test]
fn unknown_count_budget_is_enforced() {
    let (addr, daemon) = boot(ServeConfig {
        budget: JobBudget {
            max_unknowns: 1,
            ..JobBudget::default()
        },
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let end = client
        .run_streaming(request(RC_DECK, "too-wide"), &mut Vec::new(), ',')
        .expect("run");
    let RunEnd::Rejected { reason, message } = end else {
        panic!("expected rejected, got {end:?}");
    };
    assert_eq!(reason, "budget");
    assert!(message.contains("unknown"), "message: {message}");
    client.shutdown().expect("shutdown");
    assert_eq!(daemon.join().expect("join").jobs_rejected_budget, 1);
}

/// A job that declares no deadline inherits the server default and is
/// cancelled with `reason: "deadline"` when it overruns.
#[test]
fn jobs_without_a_deadline_inherit_the_server_default() {
    let (addr, daemon) = boot(ServeConfig {
        default_deadline_ms: 40,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let mut sink = Vec::new();
    let end = client
        .run_streaming(request(SLOW_DECK, "capped"), &mut sink, ',')
        .expect("run");
    let RunEnd::Cancelled { reason, rows, .. } = end else {
        panic!("expected cancelled, got {end:?}");
    };
    assert_eq!(reason, "deadline");
    assert!(rows >= 1, "the DC point precedes the first deadline check");
    client.shutdown().expect("shutdown");
    assert_eq!(daemon.join().expect("join").jobs_cancelled, 1);
}

/// The server-wide in-flight unknown budget: while one job's unknowns fill
/// it, a second admission is refused with `rejected{reason: "inflight"}`;
/// once the first job releases its charge the same deck is admitted.
#[test]
fn inflight_unknown_budget_gates_concurrent_admissions() {
    // RC_DECK has 3 unknowns (two nodes + one source branch); a budget of 3
    // admits exactly one such job at a time.
    let (addr, daemon) = boot(ServeConfig {
        workers: 1,
        max_inflight_unknowns: 3,
        ..ServeConfig::default()
    });

    // Occupy the budget with a long job, reading only its acceptance.
    let mut holder = Client::connect(addr).expect("connect holder");
    holder
        .send(&Request::Run(request(SLOW_DECK, "holder")))
        .expect("send");
    match holder.recv().expect("recv") {
        Response::Accepted { id, .. } => assert_eq!(id, "holder"),
        other => panic!("expected accepted, got {other:?}"),
    }

    // A second job cannot fit 3 more unknowns into a 3-unknown budget.
    let mut second = Client::connect(addr).expect("connect second");
    let end = second
        .run_streaming(request(RC_DECK, "crowded-out"), &mut Vec::new(), ',')
        .expect("run");
    let RunEnd::Rejected { reason, .. } = end else {
        panic!("expected rejected, got {end:?}");
    };
    assert_eq!(reason, "inflight");

    // Release the charge by cancelling the holder, then the same deck fits.
    let mut canceller = Client::connect(addr).expect("connect canceller");
    assert!(canceller.cancel("holder").expect("cancel"), "holder known");
    let stats = poll_stats(addr, Duration::from_secs(10), |s| s.jobs_cancelled >= 1);
    assert_eq!(stats.jobs_cancelled, 1, "holder cancelled: {stats:?}");
    let end = second
        .run_streaming(request(RC_DECK, "fits-now"), &mut Vec::new(), ',')
        .expect("run");
    assert!(matches!(end, RunEnd::Done { .. }), "got {end:?}");

    canceller.shutdown().expect("shutdown");
    let stats = daemon.join().expect("join");
    assert_eq!(stats.jobs_rejected_budget, 1);
    assert_eq!(stats.jobs_completed, 1);
}

/// Slow-loris and silent connections are reaped by the read/idle timeouts
/// without ever occupying a worker: while both hostile sockets sit open the
/// lone worker still completes an honest job, and the reaps are counted.
#[test]
fn stalled_and_idle_connections_are_reaped_without_occupying_a_worker() {
    let (addr, daemon) = boot(ServeConfig {
        workers: 1,
        read_timeout_ms: 200,
        idle_timeout_ms: 400,
        ..ServeConfig::default()
    });

    // Slow loris: starts a length line, never finishes it.
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris.write_all(b"12").expect("partial len line");
    loris.flush().expect("flush");
    // Silent peer: connects and never writes; the idle timeout reaps it.
    let idle = TcpStream::connect(addr).expect("connect idle");

    // The honest job completes while both hostile sockets are still open.
    // The client connection is dropped right after so the idle reaper never
    // sees it linger.
    {
        let mut client = Client::connect(addr).expect("connect");
        let end = client
            .run_streaming(request(RC_DECK, "honest"), &mut Vec::new(), ',')
            .expect("run");
        assert!(matches!(end, RunEnd::Done { .. }), "got {end:?}");
    }

    let stats = poll_stats(addr, Duration::from_secs(10), |s| s.connections_reaped >= 2);
    assert_eq!(stats.connections_reaped, 2, "stats: {stats:?}");

    // Both reaped sockets observe EOF (or a reset), not a hang.
    for (label, mut stream) in [("loris", loris), ("idle", idle)] {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set_read_timeout");
        let mut buffer = [0u8; 64];
        match stream.read(&mut buffer) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("{label}: expected EOF, read {n} bytes"),
        }
    }

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    let stats = daemon.join().expect("join");
    assert_eq!(stats.connections_reaped, 2);
    assert_eq!(stats.jobs_completed, 1);
}

/// Sustained queue pressure climbs the overload ladder: once the queue has
/// been full past `shed_after_ms` the stage rises to 1 and new decks are
/// shed with `rejected{reason: "overload"}`; the transition is visible in
/// the stats snapshot.
#[test]
fn sustained_queue_pressure_sheds_new_decks() {
    let (addr, daemon) = boot(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        default_deadline_ms: 0,
        overload: OverloadConfig {
            shed_after_ms: 50,
            cancel_after_ms: 60_000,
            drain_after_ms: 120_000,
            ..OverloadConfig::default()
        },
        ..ServeConfig::default()
    });

    // One job running, one queued: the queue is now full.
    let mut running = Client::connect(addr).expect("connect running");
    running
        .send(&Request::Run(request(SLOW_DECK, "running")))
        .expect("send");
    match running.recv().expect("recv") {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }
    // Its first chunk proves the worker took it off the queue, so the next
    // job finds a free slot instead of racing the worker for it.
    match running.recv().expect("recv") {
        Response::Chunk { .. } => {}
        other => panic!("expected the first chunk, got {other:?}"),
    }
    let mut queued = Client::connect(addr).expect("connect queued");
    queued
        .send(&Request::Run(request(SLOW_DECK, "queued")))
        .expect("send");
    match queued.recv().expect("recv") {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }

    // The supervisor notices the sustained fullness and escalates.
    let stats = poll_stats(addr, Duration::from_secs(10), |s| s.overload_stage >= 1);
    assert!(stats.overload_stage >= 1, "stats: {stats:?}");
    assert!(stats.overload_transitions >= 1, "stats: {stats:?}");

    // New decks are now shed before touching the queue.
    let mut late = Client::connect(addr).expect("connect late");
    let end = late
        .run_streaming(request(RC_DECK, "shed"), &mut Vec::new(), ',')
        .expect("run");
    let RunEnd::Rejected { reason, .. } = end else {
        panic!("expected rejected, got {end:?}");
    };
    assert_eq!(reason, "overload");

    // Drain fast: cancel both slow jobs, then shut down.
    let mut canceller = Client::connect(addr).expect("connect canceller");
    assert!(canceller.cancel("running").expect("cancel"));
    assert!(canceller.cancel("queued").expect("cancel"));
    canceller.shutdown().expect("shutdown");
    let stats = daemon.join().expect("join");
    assert!(stats.jobs_shed_overload >= 1, "stats: {stats:?}");
    assert!(stats.overload_transitions >= 1, "stats: {stats:?}");
    assert_eq!(stats.jobs_completed, 0);
}
