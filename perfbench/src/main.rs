//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet|trace|fuzz --seed N --seconds S --trace 0|1 [--jobs N]
//! ```
//!
//! Prints notes (the `sim_digest`, sample counts, the input mix, the
//! host) and, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 0 when the
//! run completed (`correct` says whether its checks passed), 2 on bad
//! arguments or a failed set-up.

use audo_perfbench::{run, RunConfig, Workload};

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut jobs = 1usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let value = it.next().ok_or(format!("{arg} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{arg}: not a number: {value:?}"))
        };
        match arg.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => traced = number()? != 0,
            "--jobs" => {
                jobs = usize::try_from(number()?)
                    .map_err(|_| "--jobs out of range")?
                    .max(1)
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        traced,
        jobs,
    })
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
