//! The `exi-serve` binary: parse the shared flag table, then hand the
//! daemon's whole life to [`exi_serve::serve`].

use std::process::ExitCode;

use exi_serve::{serve, ServeConfig};

/// The help text: the shared flag table plus this binary's test-build flag.
fn usage() -> String {
    format!(
        "\
exi-serve - resident simulation service for exi-sim

USAGE:
    exi-serve [OPTIONS]

OPTIONS (the same as `exi-cli serve`; see docs/SERVICE.md):
{}    --arm-fault LABEL=KIND:ARGS
                              (builds with --features fault-injection only)
                              arm a deterministic solver fault for the job
                              with id LABEL; KIND:ARGS is one of
                                panic_at_step:N  panic before accepted step N
                                singular:EVAL,U  zero row/col U at evaluation EVAL
                                nan:EVAL,I       NaN into f[I] at evaluation EVAL
                                krylov:N         basis breakdown at build N
                              (repeatable; counters are 1-based)
    -h, --help                print this help

The daemon exits after a client sends a `shutdown` request (see
docs/SERVICE.md for the wire protocol; `exi-cli client` is the reference
client).
",
        ServeConfig::flag_help()
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--arm-fault` arms its fault as a side effect: the armed map is
    // process-global and the server reads it per job id.
    let mut arm = |flag: &str, value: &str| match flag {
        "--arm-fault" => arm_fault(value).map(|()| true),
        _ => Ok(false),
    };
    let config = match ServeConfig::from_args(&args, &mut arm) {
        Ok(Some(config)) => config,
        Ok(None) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("exi-serve: {message}");
            eprintln!("Try 'exi-serve --help'.");
            return ExitCode::from(2);
        }
    };
    match serve(config, &mut std::io::stdout()) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("exi-serve: {e}");
            ExitCode::from(5)
        }
    }
}

/// Arms one `--arm-fault LABEL=KIND:ARGS` solver fault.
#[cfg(feature = "fault-injection")]
fn arm_fault(text: &str) -> Result<(), String> {
    use exi_sim::fault::{self, FaultSpec};
    let bad = || format!("--arm-fault: '{text}' is not LABEL=KIND:ARGS");
    let (label, kind_args) = text.split_once('=').ok_or_else(bad)?;
    let (kind, args) = kind_args.split_once(':').ok_or_else(bad)?;
    let one = |s: &str| s.parse::<usize>().map_err(|_| bad());
    let two = |s: &str| -> Result<(usize, usize), String> {
        let (a, b) = s.split_once(',').ok_or_else(bad)?;
        Ok((one(a)?, one(b)?))
    };
    let spec = match kind {
        "panic_at_step" => FaultSpec {
            panic_at_step: Some(one(args)?),
            ..FaultSpec::default()
        },
        "singular" => FaultSpec {
            singular_unknown: Some(two(args)?),
            ..FaultSpec::default()
        },
        "nan" => FaultSpec {
            nan_f: Some(two(args)?),
            ..FaultSpec::default()
        },
        "krylov" => FaultSpec {
            krylov_breakdown: Some(one(args)?),
            ..FaultSpec::default()
        },
        _ => return Err(bad()),
    };
    fault::arm(label, spec);
    Ok(())
}

#[cfg(not(feature = "fault-injection"))]
fn arm_fault(_text: &str) -> Result<(), String> {
    Err("--arm-fault requires a build with --features fault-injection".to_string())
}
