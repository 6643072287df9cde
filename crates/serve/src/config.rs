//! Daemon settings and the one flag table both front ends parse.
//!
//! `exi-serve` and `exi-cli serve` hand their argument lists to
//! [`ServeConfig::from_args`] and print [`ServeConfig::flag_help`], so the
//! two accept the same flags, with the same value rules, minimums, ladder
//! check and help text — all taken from [`SERVE_FLAGS`].

/// Per-job footprint limits, estimated at admission from the parsed deck —
/// before the job can queue, let alone touch a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobBudget {
    /// Largest admissible MNA system (nodes + branch currents).
    pub max_unknowns: usize,
    /// Largest admissible estimated `G`-pattern nonzero count.
    pub max_est_nnz: usize,
    /// Largest admissible declared step count, `ceil(stop / step)` from the
    /// `.tran` card — the adaptive control may take fewer or more, but the
    /// declaration bounds what the client *asked* for.
    pub max_declared_steps: usize,
}

impl Default for JobBudget {
    fn default() -> Self {
        JobBudget {
            max_unknowns: 200_000,
            max_est_nnz: 8_000_000,
            max_declared_steps: 10_000_000,
        }
    }
}

/// Overload-ladder thresholds. The ladder escalates while the queue sits at
/// capacity and de-escalates once it drains to half:
///
/// | stage | entered after       | behavior                                 |
/// |-------|---------------------|------------------------------------------|
/// | 0     | —                   | normal admission                         |
/// | 1     | `shed_after_ms`     | new decks rejected (`reason: overload`)  |
/// | 2     | `cancel_after_ms`   | + cancel one running job per tick that is |
/// |       |                     |   past `soft_deadline_ms` (deadline-less  |
/// |       |                     |   jobs first, oldest first)               |
/// | 3     | `drain_after_ms`    | + cancel every running job               |
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Sustained-full time before stage 1 (shed new work).
    pub shed_after_ms: u64,
    /// Sustained-full time before stage 2 (cancel past-soft-deadline jobs).
    pub cancel_after_ms: u64,
    /// Sustained-full time before stage 3 (cancel all running jobs).
    pub drain_after_ms: u64,
    /// Minimum runtime before a job is a stage-2 cancellation victim.
    pub soft_deadline_ms: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            shed_after_ms: 30_000,
            cancel_after_ms: 60_000,
            drain_after_ms: 120_000,
            soft_deadline_ms: 10_000,
        }
    }
}

/// Settings of one daemon instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Job-queue capacity; a full queue bounces `run` requests with `busy`.
    pub queue_capacity: usize,
    /// Maximum accepted frame payload in bytes (a larger declared length is
    /// a protocol error and closes the connection).
    pub max_frame_bytes: usize,
    /// Maximum accepted deck text in bytes (a larger deck is rejected with a
    /// `usage`-class error; the connection stays open).
    pub max_deck_bytes: usize,
    /// Warm symbolic-cache capacity (`None` = unbounded).
    pub symbolic_cache_capacity: Option<usize>,
    /// Warm plan-cache capacity (`None` = unbounded).
    pub plan_cache_capacity: Option<usize>,
    /// Rows per `chunk` frame when the request does not choose its own.
    pub default_chunk_rows: usize,
    /// Per-job footprint budget enforced at admission.
    pub budget: JobBudget,
    /// Server-wide cap on the summed unknown counts of active (queued or
    /// running) jobs; 0 disables the check. Keep it at least
    /// `budget.max_unknowns` or a lone maximal job can never run.
    pub max_inflight_unknowns: usize,
    /// Deadline applied to jobs that declare none, in milliseconds;
    /// 0 leaves undeclared jobs uncapped.
    pub default_deadline_ms: u64,
    /// How long a started frame may stall mid-read before the connection is
    /// reaped (the slow-loris bound); 0 disables.
    pub read_timeout_ms: u64,
    /// How long a connection may sit idle between frames before it is
    /// reaped; 0 disables.
    pub idle_timeout_ms: u64,
    /// How long one frame write may block on a stalled client before the
    /// write fails (and a streaming job is cancelled at the next step
    /// boundary); 0 disables.
    pub write_stall_ms: u64,
    /// Worker respawns allowed per `respawn_window_ms` before the server
    /// enters degraded mode.
    pub respawn_limit: usize,
    /// The sliding window over which `respawn_limit` is enforced.
    pub respawn_window_ms: u64,
    /// Overload-ladder thresholds.
    pub overload: OverloadConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            max_frame_bytes: crate::protocol::DEFAULT_MAX_FRAME_BYTES,
            max_deck_bytes: 256 * 1024,
            symbolic_cache_capacity: Some(64),
            plan_cache_capacity: Some(64),
            default_chunk_rows: 64,
            budget: JobBudget::default(),
            max_inflight_unknowns: 1_000_000,
            default_deadline_ms: 600_000,
            read_timeout_ms: 10_000,
            idle_timeout_ms: 300_000,
            write_stall_ms: 30_000,
            respawn_limit: 8,
            respawn_window_ms: 60_000,
            overload: OverloadConfig::default(),
        }
    }
}

/// Where a flag's value lands in a [`ServeConfig`], and how it is parsed.
#[derive(Clone, Copy)]
enum Slot {
    /// Taken verbatim.
    Text(fn(&mut ServeConfig) -> &mut String),
    /// A non-negative count.
    Count(fn(&mut ServeConfig) -> &mut usize),
    /// A non-negative millisecond count.
    Millis(fn(&mut ServeConfig) -> &mut u64),
    /// A cache capacity; 0 means unbounded (`None`).
    Capacity(fn(&mut ServeConfig) -> &mut Option<usize>),
}

/// One daemon flag, `--name VALUE`, and the [`ServeConfig`] value it sets.
pub struct ServeFlag {
    /// The flag, leading dashes included.
    pub name: &'static str,
    /// Smallest accepted value; anything below is a usage error.
    pub min: u64,
    /// One-line description for the help text.
    pub help: &'static str,
    slot: Slot,
}

/// A table row of [`SERVE_FLAGS`].
const fn flag(name: &'static str, min: u64, slot: Slot, help: &'static str) -> ServeFlag {
    ServeFlag {
        name,
        min,
        help,
        slot,
    }
}

impl ServeFlag {
    /// Parses `text` into this flag's slot of `config`.
    fn apply(&self, config: &mut ServeConfig, text: &str) -> Result<(), String> {
        let number = || -> Result<u64, String> {
            let n: u64 = text
                .parse()
                .map_err(|_| format!("{}: '{text}' is not a non-negative integer", self.name))?;
            if n < self.min {
                return Err(format!("{} must be at least {}", self.name, self.min));
            }
            Ok(n)
        };
        let count = || -> Result<usize, String> {
            usize::try_from(number()?).map_err(|_| format!("{}: '{text}' is too large", self.name))
        };
        match self.slot {
            Slot::Text(field) => *field(config) = text.to_string(),
            Slot::Count(field) => *field(config) = count()?,
            Slot::Millis(field) => *field(config) = number()?,
            Slot::Capacity(field) => *field(config) = Some(count()?).filter(|&n| n > 0),
        }
        Ok(())
    }

    /// The flag's value in `config`, as the help text shows it.
    fn show(&self, config: &mut ServeConfig) -> String {
        match self.slot {
            Slot::Text(field) => field(config).clone(),
            Slot::Count(field) => field(config).to_string(),
            Slot::Millis(field) => field(config).to_string(),
            Slot::Capacity(field) => field(config).unwrap_or(0).to_string(),
        }
    }
}

/// Every daemon flag, one per settable [`ServeConfig`] value.
#[rustfmt::skip]
pub const SERVE_FLAGS: &[ServeFlag] = &[
    flag("--addr", 0, Slot::Text(|c| &mut c.addr),
         "listen address; port 0 picks a free one"),
    flag("--workers", 1, Slot::Count(|c| &mut c.workers),
         "worker threads draining the job queue"),
    flag("--queue", 1, Slot::Count(|c| &mut c.queue_capacity),
         "job-queue capacity; a full queue replies `busy`"),
    flag("--chunk-rows", 1, Slot::Count(|c| &mut c.default_chunk_rows),
         "waveform rows per chunk frame when a job sets none"),
    flag("--max-frame-bytes", 1024, Slot::Count(|c| &mut c.max_frame_bytes),
         "largest accepted frame payload"),
    flag("--max-deck-bytes", 1, Slot::Count(|c| &mut c.max_deck_bytes),
         "largest accepted deck text"),
    flag("--symbolic-cache", 0, Slot::Capacity(|c| &mut c.symbolic_cache_capacity),
         "warm symbolic-cache capacity; 0 = unbounded"),
    flag("--plan-cache", 0, Slot::Capacity(|c| &mut c.plan_cache_capacity),
         "warm plan-cache capacity; 0 = unbounded"),
    flag("--max-unknowns", 1, Slot::Count(|c| &mut c.budget.max_unknowns),
         "per-job unknown-count budget"),
    flag("--max-est-nnz", 1, Slot::Count(|c| &mut c.budget.max_est_nnz),
         "per-job estimated-nonzeros budget"),
    flag("--max-declared-steps", 1, Slot::Count(|c| &mut c.budget.max_declared_steps),
         "per-job declared .tran step budget"),
    flag("--max-inflight-unknowns", 0, Slot::Count(|c| &mut c.max_inflight_unknowns),
         "server-wide active-unknowns budget; 0 = off"),
    flag("--default-deadline-ms", 0, Slot::Millis(|c| &mut c.default_deadline_ms),
         "deadline for jobs that declare none; 0 = off"),
    flag("--read-timeout-ms", 0, Slot::Millis(|c| &mut c.read_timeout_ms),
         "reap a connection whose started frame stalls; 0 = off"),
    flag("--idle-timeout-ms", 0, Slot::Millis(|c| &mut c.idle_timeout_ms),
         "reap a connection idle between frames; 0 = off"),
    flag("--write-stall-ms", 0, Slot::Millis(|c| &mut c.write_stall_ms),
         "abandon a write blocked on a stalled client; 0 = off"),
    flag("--respawn-limit", 1, Slot::Count(|c| &mut c.respawn_limit),
         "worker respawns per window before degraded mode"),
    flag("--respawn-window-ms", 1, Slot::Millis(|c| &mut c.respawn_window_ms),
         "the sliding respawn window"),
    flag("--shed-after-ms", 1, Slot::Millis(|c| &mut c.overload.shed_after_ms),
         "queue-full time before new decks are shed"),
    flag("--cancel-after-ms", 1, Slot::Millis(|c| &mut c.overload.cancel_after_ms),
         "queue-full time before overdue jobs are cancelled"),
    flag("--drain-after-ms", 1, Slot::Millis(|c| &mut c.overload.drain_after_ms),
         "queue-full time before all running jobs are cancelled"),
    flag("--soft-deadline-ms", 0, Slot::Millis(|c| &mut c.overload.soft_deadline_ms),
         "runtime before a job can be an overload victim"),
];

impl ServeConfig {
    /// Parses a daemon command line through [`SERVE_FLAGS`], starting from
    /// the defaults. Returns `Ok(None)` when `-h`/`--help` is given.
    ///
    /// `extra` is offered each `--flag VALUE` pair the table does not
    /// define — a front end's own flags — and returns `Ok(false)` for a
    /// flag it does not know either.
    ///
    /// # Errors
    ///
    /// A usage message: an unknown flag, a missing or malformed value, a
    /// value below the flag's minimum, or overload thresholds out of order.
    pub fn from_args(
        args: &[String],
        extra: &mut dyn FnMut(&str, &str) -> Result<bool, String>,
    ) -> Result<Option<ServeConfig>, String> {
        let mut config = ServeConfig::default();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            if name == "-h" || name == "--help" {
                return Ok(None);
            }
            let flag = SERVE_FLAGS.iter().find(|flag| flag.name == name);
            let Some(value) = it.next() else {
                return Err(match flag {
                    Some(_) => format!("{name} requires a value"),
                    None => format!("unknown option '{name}'"),
                });
            };
            match flag {
                Some(flag) => flag.apply(&mut config, value)?,
                None if extra(name, value)? => {}
                None => return Err(format!("unknown option '{name}'")),
            }
        }
        let overload = &config.overload;
        if overload.shed_after_ms > overload.cancel_after_ms
            || overload.cancel_after_ms > overload.drain_after_ms
        {
            return Err(
                "overload thresholds must be ordered: shed-after <= cancel-after <= drain-after"
                    .to_string(),
            );
        }
        Ok(Some(config))
    }

    /// One help line per entry of [`SERVE_FLAGS`], with its default and
    /// minimum.
    pub fn flag_help() -> String {
        let mut defaults = ServeConfig::default();
        let mut text = String::new();
        for flag in SERVE_FLAGS {
            let value = match flag.slot {
                Slot::Text(_) => "HOST:PORT",
                _ => "N",
            };
            let mut notes = format!("default {}", flag.show(&mut defaults));
            if flag.min > 0 {
                notes.push_str(&format!(", min {}", flag.min));
            }
            text.push_str(&format!(
                "    {:<26}{} ({notes})\n",
                format!("{} {value}", flag.name),
                flag.help
            ));
        }
        text
    }
}
