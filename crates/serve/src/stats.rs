//! Server-wide observability: the [`ServerStats`] snapshot a `stats`
//! request returns.

use exi_sparse::CacheStats;

use crate::json::{n, obj, Json};

/// A consistent snapshot of the daemon's lifetime counters, queue state and
/// warm-cache residency, taken under the server's stats lock.
///
/// The solver counters (`accepted_steps` through `shared_plan_hits`) are the
/// server-wide merge of every finished job's
/// [`RunStats`](exi_sim::RunStats) — the fleet-amortization contract shows
/// up here as `symbolic_analyses == distinct patterns` and
/// `plan_compilations == distinct structures`, however many jobs ran.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Jobs admitted to the queue.
    pub jobs_accepted: u64,
    /// Jobs that finished with a complete waveform.
    pub jobs_completed: u64,
    /// Jobs that stopped with a simulation/parse/I/O error.
    pub jobs_failed: u64,
    /// Jobs cancelled over the wire or by their deadline.
    pub jobs_cancelled: u64,
    /// `run` requests bounced with `busy` because the queue was full.
    pub jobs_rejected: u64,
    /// `run` requests refused at admission by the per-job or in-flight
    /// footprint budget (`rejected{reason: "budget" | "inflight"}`).
    pub jobs_rejected_budget: u64,
    /// `run` requests shed by the overload ladder or refused while degraded
    /// (`rejected{reason: "overload" | "degraded"}`).
    pub jobs_shed_overload: u64,
    /// Running jobs cancelled by the overload ladder (stages 2–3).
    pub jobs_cancelled_overload: u64,
    /// Worker threads respawned by the supervisor after a panic.
    pub workers_respawned: u64,
    /// Connections closed by the read/idle timeout reaper.
    pub connections_reaped: u64,
    /// Frame writes abandoned because the client stalled past the
    /// write-stall deadline.
    pub write_stalls: u64,
    /// Overload-ladder stage changes since boot (escalations and
    /// de-escalations both count).
    pub overload_transitions: u64,
    /// Current overload-ladder stage: 0 normal, 1 shed, 2 cancel, 3 drain.
    pub overload_stage: usize,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// The queue's capacity (backpressure threshold).
    pub queue_capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Merged accepted time steps across all finished jobs.
    pub accepted_steps: usize,
    /// Merged symbolic LU analyses (fleet-wide: one per distinct pattern).
    pub symbolic_analyses: usize,
    /// Merged cross-session symbolic-cache hits.
    pub shared_symbolic_hits: usize,
    /// Merged stamping-plan compilations (one per distinct structure).
    pub plan_compilations: usize,
    /// Merged shared plan-cache hits.
    pub shared_plan_hits: usize,
    /// Residency counters of the warm symbolic cache.
    pub symbolic_cache: CacheStats,
    /// Residency counters of the warm plan cache.
    pub plan_cache: CacheStats,
}

/// Serializes one [`CacheStats`] as a JSON object (capacity `null` when
/// unbounded).
fn cache_json(c: &CacheStats) -> Json {
    obj(vec![
        ("entries", n(c.entries)),
        (
            "capacity",
            c.capacity.map_or(Json::Null, |v| Json::Num(v as f64)),
        ),
        ("hits", Json::Num(c.hits as f64)),
        ("misses", Json::Num(c.misses as f64)),
        ("evictions", Json::Num(c.evictions as f64)),
    ])
}

/// Reads one [`CacheStats`] back from its JSON object form.
fn cache_from_json(v: &Json) -> Option<CacheStats> {
    Some(CacheStats {
        entries: v.get("entries")?.as_u64()? as usize,
        capacity: match v.get("capacity")? {
            Json::Null => None,
            other => Some(other.as_u64()? as usize),
        },
        hits: v.get("hits")?.as_u64()?,
        misses: v.get("misses")?.as_u64()?,
        evictions: v.get("evictions")?.as_u64()?,
    })
}

/// A scalar counter of the snapshot: its wire name, how to read it, how to
/// set it.
pub type Counter = (
    &'static str,
    fn(&ServerStats) -> u64,
    fn(&mut ServerStats, u64),
);

/// Every scalar counter of [`ServerStats`], in wire order — the one list
/// behind the JSON form and `exi-cli client --stats`.
#[rustfmt::skip]
pub const COUNTERS: [Counter; 21] = [
    ("jobs_accepted", |s| s.jobs_accepted, |s, v| s.jobs_accepted = v),
    ("jobs_completed", |s| s.jobs_completed, |s, v| s.jobs_completed = v),
    ("jobs_failed", |s| s.jobs_failed, |s, v| s.jobs_failed = v),
    ("jobs_cancelled", |s| s.jobs_cancelled, |s, v| s.jobs_cancelled = v),
    ("jobs_rejected", |s| s.jobs_rejected, |s, v| s.jobs_rejected = v),
    ("jobs_rejected_budget", |s| s.jobs_rejected_budget, |s, v| s.jobs_rejected_budget = v),
    ("jobs_shed_overload", |s| s.jobs_shed_overload, |s, v| s.jobs_shed_overload = v),
    ("jobs_cancelled_overload", |s| s.jobs_cancelled_overload, |s, v| s.jobs_cancelled_overload = v),
    ("workers_respawned", |s| s.workers_respawned, |s, v| s.workers_respawned = v),
    ("connections_reaped", |s| s.connections_reaped, |s, v| s.connections_reaped = v),
    ("write_stalls", |s| s.write_stalls, |s, v| s.write_stalls = v),
    ("overload_transitions", |s| s.overload_transitions, |s, v| s.overload_transitions = v),
    ("overload_stage", |s| s.overload_stage as u64, |s, v| s.overload_stage = v as usize),
    ("queue_depth", |s| s.queue_depth as u64, |s, v| s.queue_depth = v as usize),
    ("queue_capacity", |s| s.queue_capacity as u64, |s, v| s.queue_capacity = v as usize),
    ("workers", |s| s.workers as u64, |s, v| s.workers = v as usize),
    ("accepted_steps", |s| s.accepted_steps as u64, |s, v| s.accepted_steps = v as usize),
    ("symbolic_analyses", |s| s.symbolic_analyses as u64, |s, v| s.symbolic_analyses = v as usize),
    ("shared_symbolic_hits", |s| s.shared_symbolic_hits as u64, |s, v| s.shared_symbolic_hits = v as usize),
    ("plan_compilations", |s| s.plan_compilations as u64, |s, v| s.plan_compilations = v as usize),
    ("shared_plan_hits", |s| s.shared_plan_hits as u64, |s, v| s.shared_plan_hits = v as usize),
];

impl ServerStats {
    /// Serializes the snapshot as the payload of a `stats` response.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = COUNTERS
            .iter()
            .map(|(name, get, _)| (*name, Json::Num(get(self) as f64)))
            .collect();
        pairs.push(("symbolic_cache", cache_json(&self.symbolic_cache)));
        pairs.push(("plan_cache", cache_json(&self.plan_cache)));
        obj(pairs)
    }

    /// Reads a snapshot back from its JSON form (the client side).
    pub fn from_json(v: &Json) -> Option<ServerStats> {
        let mut stats = ServerStats {
            symbolic_cache: cache_from_json(v.get("symbolic_cache")?)?,
            plan_cache: cache_from_json(v.get("plan_cache")?)?,
            ..ServerStats::default()
        };
        for (name, _, set) in &COUNTERS {
            set(&mut stats, v.get(name)?.as_u64()?);
        }
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let stats = ServerStats {
            jobs_accepted: 7,
            jobs_completed: 5,
            jobs_failed: 1,
            jobs_cancelled: 1,
            jobs_rejected: 2,
            jobs_rejected_budget: 3,
            jobs_shed_overload: 4,
            jobs_cancelled_overload: 1,
            workers_respawned: 2,
            connections_reaped: 5,
            write_stalls: 1,
            overload_transitions: 6,
            overload_stage: 1,
            queue_depth: 3,
            queue_capacity: 16,
            workers: 4,
            accepted_steps: 1234,
            symbolic_analyses: 1,
            shared_symbolic_hits: 6,
            plan_compilations: 1,
            shared_plan_hits: 6,
            symbolic_cache: CacheStats {
                entries: 1,
                capacity: Some(64),
                hits: 6,
                misses: 1,
                evictions: 0,
            },
            plan_cache: CacheStats {
                entries: 1,
                capacity: None,
                hits: 6,
                misses: 1,
                evictions: 0,
            },
        };
        let json = stats.to_json();
        let back = ServerStats::from_json(&Json::parse(&json.dump()).unwrap()).unwrap();
        assert_eq!(back, stats);
    }
}
