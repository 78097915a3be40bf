//! `cadbench --workload <browse|release|checkout> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric as `<name> <value> <unit>`, then, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use cadbench::workload::Workload;
use cadbench::{run, Args, SETUP_REPS};

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Browse,
        seed: 1,
        seconds: 10.0,
        trace: false,
        objects: None,
        setup_reps: SETUP_REPS,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad("browse|release|checkout"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cadbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!(
                "workload {} seed {} trace {}",
                args.workload.name(),
                args.seed,
                u8::from(args.trace)
            );
            let extra = out
                .extra
                .0
                .iter()
                .filter(|m| out.metrics.get(m.name).is_none());
            for m in extra.chain(&out.metrics.0) {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cadbench: {e}");
            ExitCode::FAILURE
        }
    }
}
