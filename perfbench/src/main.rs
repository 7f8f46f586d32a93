//! `yinyang-perfbench --workload <campaign|generate|triage> --seed <n>
//! --seconds <s> --trace <0|1> [--input-seed <n>]`: runs one workload and
//! prints a table of its metrics, then one JSON result line. Exits
//! non-zero when an output check fails. `--input-seed` (default 53710,
//! the CLI's) seeds the campaign and the triage findings.

use std::process::ExitCode;
use yinyang_perfbench::report::{END_TO_END, PER_LAYER};
use yinyang_perfbench::{campaign, generate, triage, Run, Size, HOLDOUT_SEED, MAIN_SEED};

fn usage() -> String {
    format!(
        "usage: yinyang-perfbench --workload <campaign|generate|triage> --seed <n> \
         --seconds <s> --trace <0|1> [--input-seed <n>]\n\
         --input-seed defaults to the main seed {MAIN_SEED}; the hold-out seed is {HOLDOUT_SEED}"
    )
}

fn main() -> ExitCode {
    // Injected crash bugs panic by design and the harness catches them;
    // the default hook would print a backtrace per crash inside the timed
    // region. YINYANG_PANIC_TRACE=1 restores it, as for the CLI.
    if std::env::var_os("YINYANG_PANIC_TRACE").is_none() {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        value("--workload"),
        value("--seed").and_then(|s| s.parse::<u64>().ok()),
        value("--seconds").and_then(|s| s.parse::<f64>().ok()).filter(|s| *s > 0.0),
        value("--trace").and_then(|t| match t.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let input_seed = match value("--input-seed").map(|s| s.parse::<u64>()) {
        None => MAIN_SEED,
        Some(Ok(seed)) => seed,
        Some(Err(_)) => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let run = Run { seed, input_seed, seconds, trace, size: Size::FULL };
    let report = match workload.as_str() {
        "campaign" => campaign::run(&run),
        "generate" => generate::run(&run),
        "triage" => triage::run(&run),
        _ => {
            eprintln!("unknown workload {workload}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render(if trace { PER_LAYER } else { END_TO_END }));
    for problem in report.problems() {
        eprintln!("output check failed: {problem}");
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
