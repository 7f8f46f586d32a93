//! The `yinyang` command-line tool.
//!
//! Run `yinyang help` for the full command and option reference. Each
//! command is declared once in [`COMMANDS`] and each option once in
//! [`FLAGS`]; parsing, `help`, usage errors and the check that a command
//! reads every option it is given all come from those two tables.

use std::fmt;
use std::process::ExitCode;
use yinyang_campaign::config::CampaignConfig;
use yinyang_campaign::{experiments, FleetOptions, RegressConfig};
use yinyang_core::{Fuser, Oracle};
use yinyang_rt::json::ToJson;
use yinyang_rt::trace;
use yinyang_solver::SmtSolver;
use Slot::{Count, Name, Seed, Switch, Text};

/// One command. `args` spells its positionals: `<x>` is required, `[x]`
/// optional, `<a|b>` one of the listed words, and a trailing `...`
/// repeats the last one.
struct Cmd {
    name: &'static str,
    args: &'static str,
    run: fn(&[String], &Cli) -> Result<(), String>,
    help: &'static str,
}

#[rustfmt::skip]
const COMMANDS: &[Cmd] = &[
    Cmd { name: "exp", args: "[which]", run: run_exp, help: "regenerate an evaluation figure: \
        fig7 fig8 fig9 fig10 fig11 fig12 rq4 throughput fp or all [default all]" },
    Cmd { name: "fuzz", args: "", run: run_fuzz,
        help: "run the bug-finding campaign, print findings" },
    Cmd { name: "fleet", args: "", run: run_fleet_cmd, help: "run fuzz sharded over --shards \
        worker processes; the report and --trace file are byte-identical to a single-process \
        fuzz, and --status-addr federates every worker's /metrics and /status" },
    Cmd { name: "regress", args: "<bundle-dir>...", run: run_regress_cmd, help: "replay fuzz \
        --bundle-dir bundles against a --release build and classify each as still-broken, \
        fixed, flaky or stale; identical reduced test cases dedup across dirs" },
    Cmd { name: "profile", args: "<file.jsonl>", run: run_profile, help: "fold a --trace file \
        into a span-tree profile (inclusive/exclusive time, calls, p50/p95/p99)" },
    Cmd { name: "export", args: "<file.jsonl>", run: run_export, help: "convert a --trace file \
        to Chrome Trace Event JSON (Perfetto, chrome://tracing) and/or collapsed flamegraph \
        stacks weighted by exclusive ticks (inferno, flamegraph.pl)" },
    Cmd { name: "fetch", args: "<host:port> <path>", run: run_fetch, help: "plain-TcpStream \
        HTTP GET against a --status-addr server (no curl needed); prints the body" },
    Cmd { name: "experiments-md", args: "[file]", run: run_experiments_md, help: "regenerate \
        the generated blocks of EXPERIMENTS.md, or of [file], from a pinned demo campaign" },
    Cmd { name: "solve", args: "<file.smt2>", run: run_solve,
        help: "run the reference solver on a script" },
    Cmd { name: "fuse", args: "<sat|unsat> <a.smt2> <b.smt2>", run: run_fuse,
        help: "fuse two seed files, print the fused test" },
    Cmd { name: "trace-check", args: "<file.jsonl>", run: trace_check, help: "validate a \
        --trace file: JSON lines, balanced begin/end, monotone nested durations" },
    Cmd { name: "help", args: "", run: |_, _| { print!("{}", help()); Ok(()) },
        help: "print this reference" },
];

impl Cmd {
    /// Whether `args` fit [`Cmd::args`]: how many, and `<a|b>` choices.
    fn admits(&self, args: &[String]) -> bool {
        let spec: Vec<&str> = self.args.split_whitespace().collect();
        let required = spec.iter().filter(|w| w.starts_with('<')).count();
        let most = if self.args.ends_with("...") { usize::MAX } else { spec.len() };
        let chosen = spec.iter().zip(args).all(|(word, arg)| {
            let choices = word.trim_matches(['<', '>', '[', ']']);
            !choices.contains('|') || choices.split('|').any(|c| c == arg)
        });
        (required..=most).contains(&args.len()) && chosen
    }
}

/// One option. `value` is the metavariable of its argument, `""` for a
/// switch; `commands` lists the commands whose code reads it; `field` is
/// where it lands in [`Cli`]. `refused` names a command that refuses it,
/// and why; `requires` names the option it only works with, and tells
/// whether that one was given.
struct Flag {
    name: &'static str,
    value: &'static str,
    commands: &'static str,
    field: fn(&mut Cli) -> Slot,
    help: &'static str,
    refused: Option<(&'static str, &'static str)>,
    requires: Option<(&'static str, Given)>,
}

/// Tells whether the option a [`Flag`] requires was given.
type Given = fn(&Cli) -> bool;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--scale", "N", "exp fuzz fleet", |c| Count(&mut c.config.scale),
        "Fig. 7 seed inventory scale, 1:N"),
    flag("--iterations", "N", "exp fuzz fleet", |c| Count(&mut c.config.iterations),
        "fused tests per (benchmark, oracle) round"),
    flag("--rounds", "N", "exp fuzz fleet", |c| Count(&mut c.config.rounds),
        "fix-and-retest rounds"),
    flag("--seed", "N", "exp fuzz fleet regress fuse", |c| Seed(&mut c.config.rng_seed),
        "RNG seed; the same seed replays byte-identically"),
    flag("--threads", "N", "exp fuzz fleet regress", |c| Count(&mut c.config.threads),
        "worker threads, replay-safe at any count; 0 sizes the pool to the machine"),
    flag("--cache", "", "exp fuzz regress", |c| Switch(&mut c.config.cache), "reuse solve \
        results across identical canonical scripts; reports stay byte-identical with the cache \
        on or off, hit/miss stats go to stderr")
        .refused("fleet", "per-worker caches would skip solves (and their coverage probes) \
            differently than one shared cache; run fuzz --cache single-process instead"),
    flag("--cache-capacity", "N", "exp fuzz regress", |c| Count(&mut c.config.cache_capacity),
        "solve-cache entry bound, oldest evicted first"),
    flag("--json", "", "exp fuzz fleet regress profile", |c| Switch(&mut c.json),
        "print reports as JSON (fuzz adds telemetry; profile prints the span tree)"),
    flag("--release", "NAME", "regress", |c| Name(&mut c.regress.release), "target build: a \
        registry release such as trunk, 4.8.5 (zirkon) or 1.5 (corvus), or `reference` (bug-free)"),
    flag("--trace", "FILE", "exp fuzz fleet regress", |c| Text(&mut c.trace),
        "write one JSON line per span (seedgen/fusion/solve/...) to FILE"),
    flag("--bundle-dir", "DIR", "fuzz fleet", |c| Text(&mut c.bundle_dir), "write a \
        reproduction bundle per deduplicated finding: seeds, fused and ddmin-reduced scripts, \
        verdict/bug/metrics JSON and the finding job's trace slice"),
    flag("--metrics-out", "FILE", "fuzz fleet regress", |c| Text(&mut c.metrics_out),
        "dump the run's final merged metrics snapshot as JSON"),
    flag("--status-addr", "HOST:PORT", "fuzz fleet regress", |c| Text(&mut c.status_addr),
        "serve /metrics (Prometheus), /status (JSON progress) and /healthz over HTTP during \
        the run, leaving reports and traces byte-identical (:0 picks an ephemeral port)"),
    flag("--chrome-trace", "FILE", "export", |c| Text(&mut c.chrome_trace),
        "write Chrome Trace Event JSON"),
    flag("--flamegraph", "FILE", "export", |c| Text(&mut c.flamegraph),
        "write collapsed flamegraph stacks"),
    flag("--lanes", "N", "export", |c| Count(&mut c.lanes),
        "virtual worker lanes --chrome-trace spreads root spans over (0 is one lane)"),
    flag("--shards", "N", "fleet", |c| Count(&mut c.fleet.shards), "worker process count"),
    flag("--partial-dir", "DIR", "fleet", |c| Text(&mut c.fleet.partial_dir), "exchange \
        directory for worker partials and round barriers [default: a per-run temp dir]"),
    flag("--shard", "I/N", "fuzz", |c| Text(&mut c.shard), "internal: run as fleet worker I \
        of N, executing only jobs whose global index i % N == I and writing partials")
        .requires("--partial-out DIR", |c| c.partial_out.is_some()),
    flag("--partial-out", "DIR", "fuzz", |c| Text(&mut c.partial_out),
        "internal: where a --shard worker writes its partials")
        .requires("--shard I/N", |c| c.shard.is_some()),
    flag("--capture-events", "", "fuzz", |c| Switch(&mut c.capture_events),
        "internal: carry a --shard worker's trace events in its partials")
        .requires("--shard I/N", |c| c.shard.is_some()),
    flag("--bench-report", "FILE", "experiments-md", |c| Text(&mut c.bench_report),
        "also regenerate the bench block from an rt::bench report.json (never CI-diffed)"),
    flag("--check", "", "experiments-md", |c| Switch(&mut c.check),
        "fail if the file is stale instead of rewriting it"),
    flag("--verbose", "", "exp fuzz fleet", |c| Switch(&mut c.verbose),
        "per-round campaign heartbeat on stderr"),
    flag("--quiet", "", "exp fuzz fleet regress", |c| Switch(&mut c.quiet),
        "suppress heartbeat, per-finding listings and cache stats"),
    flag("--wallclock", "", "exp fuzz regress", |c| Switch(&mut c.wallclock), "time spans in \
        real microseconds instead of deterministic ticks (traced durations stop replaying)")
        .refused("fleet", "wall-clock durations are not comparable across processes, so the \
            merged report would not replay"),
];

const fn flag(
    name: &'static str,
    value: &'static str,
    commands: &'static str,
    field: fn(&mut Cli) -> Slot,
    help: &'static str,
) -> Flag {
    Flag { name, value, commands, field, help, refused: None, requires: None }
}

impl Flag {
    const fn refused(self, command: &'static str, reason: &'static str) -> Flag {
        Flag { refused: Some((command, reason)), ..self }
    }

    const fn requires(self, other: &'static str, given: Given) -> Flag {
        Flag { requires: Some((other, given)), ..self }
    }

    fn reads(&self, cmd: &Cmd) -> bool {
        self.commands.split(' ').any(|c| c == cmd.name)
    }
}

/// Everything the flags set. `Default` is the libraries' defaults, which
/// is also what `help` prints, so no default is typed twice.
#[derive(Default)]
struct Cli {
    config: CampaignConfig,
    /// Only `release` comes from a flag; `regress` takes its threads,
    /// seed and cache settings from `config`.
    regress: RegressConfig,
    /// Only `shards` and `partial_dir` come from flags; `fleet` derives
    /// the rest from `trace` and `status_addr`.
    fleet: FleetOptions,
    json: bool,
    verbose: bool,
    quiet: bool,
    check: bool,
    wallclock: bool,
    capture_events: bool,
    lanes: usize,
    trace: Option<String>,
    bundle_dir: Option<String>,
    metrics_out: Option<String>,
    bench_report: Option<String>,
    status_addr: Option<String>,
    chrome_trace: Option<String>,
    flamegraph: Option<String>,
    shard: Option<String>,
    partial_out: Option<String>,
}

/// The [`Cli`] field a flag writes, by kind.
enum Slot<'a> {
    Switch(&'a mut bool),
    Count(&'a mut usize),
    Seed(&'a mut u64),
    Text(&'a mut Option<String>),
    Name(&'a mut String),
}

impl Slot<'_> {
    /// Stores the flag's argument (`""` for a switch); `Err` means a
    /// number was expected.
    fn set(self, arg: &str) -> Result<(), ()> {
        match self {
            Slot::Switch(on) => *on = true,
            Slot::Count(n) => *n = arg.parse().map_err(drop)?,
            Slot::Seed(n) => *n = arg.parse().map_err(drop)?,
            Slot::Text(text) => *text = Some(arg.to_owned()),
            Slot::Name(name) => *name = arg.to_owned(),
        }
        Ok(())
    }

    /// The default `help` prints, for the kinds whose default is a value.
    fn show(self) -> Option<String> {
        match self {
            Slot::Count(n) => Some(n.to_string()),
            Slot::Seed(n) => Some(n.to_string()),
            Slot::Name(name) => Some(name.clone()),
            Slot::Switch(_) | Slot::Text(_) => None,
        }
    }
}

/// Why a command line was refused; each is reported before any work and
/// exits 1.
enum CliError {
    Unknown(String),
    Missing(&'static Flag),
    NotNumber(&'static Flag, String),
    NotFor(&'static Flag, &'static Cmd),
    Requires(&'static Flag),
    Usage(&'static Cmd),
    NoCommand,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match self {
            CliError::Unknown(arg) => write!(f, "unknown option {arg}"),
            CliError::Missing(flag) => write!(f, "{} expects {}", flag.name, flag.value),
            CliError::NotNumber(flag, got) => write!(f, "{} needs a number, got {got}", flag.name),
            CliError::NotFor(flag, cmd) => match flag.refused {
                Some((refuser, why)) if refuser == cmd.name => {
                    write!(f, "{} does not support {}: {why}", cmd.name, flag.name)
                }
                _ => write!(f, "option {} does not apply to {}", flag.name, cmd.name),
            },
            CliError::Requires(flag) => {
                write!(f, "{} needs {}", flag.name, flag.requires.map_or("", |(other, _)| other))
            }
            CliError::Usage(cmd) => write!(f, "{}", usage(cmd)),
            CliError::NoCommand => write!(f, "{}", help().trim_end()),
        }
    }
}

/// Parses `argv` against the tables: the first positional word names the
/// command, and every `--flag` must be one that command reads. Nothing
/// runs and no file is touched until this returns.
fn parse(argv: &[String]) -> Result<(&'static Cmd, Vec<String>, Cli), CliError> {
    let mut given: Vec<(&'static Flag, &str)> = Vec::new();
    let mut words = Vec::new();
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        // `--help` names a command, like `help`.
        if !arg.starts_with("--") || arg == "--help" {
            words.push(arg.clone());
            continue;
        }
        let flag =
            FLAGS.iter().find(|f| f.name == arg).ok_or_else(|| CliError::Unknown(arg.clone()))?;
        let value = match flag.value {
            "" => "",
            _ => argv.next().ok_or(CliError::Missing(flag))?,
        };
        given.push((flag, value));
    }
    let name = match words.first().map(String::as_str) {
        Some("--help" | "-h") => "help",
        name => name.unwrap_or_default(),
    };
    let cmd = COMMANDS.iter().find(|c| c.name == name).ok_or(CliError::NoCommand)?;
    let args = words.split_off(1);
    if !cmd.admits(&args) {
        return Err(CliError::Usage(cmd));
    }
    let mut cli = Cli::default();
    for &(flag, value) in &given {
        if !flag.reads(cmd) {
            return Err(CliError::NotFor(flag, cmd));
        }
        (flag.field)(&mut cli)
            .set(value)
            .map_err(|()| CliError::NotNumber(flag, value.to_owned()))?;
    }
    if let Some(&(flag, _)) =
        given.iter().find(|(f, _)| f.requires.is_some_and(|(_, ok)| !ok(&cli)))
    {
        return Err(CliError::Requires(flag));
    }
    Ok((cmd, args, cli))
}

/// `name` followed by its metavariable or positionals, if any.
fn head(name: &str, rest: &str) -> String {
    format!("{name} {rest}").trim_end().to_owned()
}

/// The usage line of one command: its positionals and every flag it reads.
fn usage(cmd: &Cmd) -> String {
    let flags: String = FLAGS
        .iter()
        .filter(|f| f.reads(cmd))
        .map(|f| format!(" [{}]", head(f.name, f.value)))
        .collect();
    format!("usage: yinyang {}{flags}", head(cmd.name, cmd.args))
}

/// The full reference, rendered from the tables; flag defaults are read
/// off `Cli::default()`.
fn help() -> String {
    let mut out = String::from(
        "yinyang — semantic-fusion SMT solver fuzzer (PLDI 2020 reproduction)\n\n\
         usage: yinyang <command> [options]\n\ncommands:\n",
    );
    for cmd in COMMANDS {
        help_entry(&mut out, &head(cmd.name, cmd.args), cmd.help);
    }
    out.push_str("\noptions, each with the commands that read it:\n");
    let mut defaults = Cli::default();
    for flag in FLAGS {
        let mut text = format!("({}) {}", flag.commands, flag.help);
        if let Some(default) = (flag.field)(&mut defaults).show() {
            text += &format!(" [default {default}]");
        }
        if let Some((cmd, why)) = flag.refused {
            text += &format!("; {cmd} refuses it: {why}");
        }
        help_entry(&mut out, &head(flag.name, flag.value), &text);
    }
    out
}

/// Appends `head` with `text` word-wrapped beside it in a 28-column
/// gutter; a `head` too wide for the gutter gets a line of its own.
fn help_entry(out: &mut String, head: &str, text: &str) {
    let mut line = format!("  {head:25}");
    if line.len() > 27 {
        out.push_str(&line);
        out.push('\n');
        line = " ".repeat(27);
    }
    for word in text.split_whitespace() {
        if line.len() + 1 + word.len() > 80 {
            out.push_str(line.trim_end());
            out.push('\n');
            line = " ".repeat(27);
        }
        line.push(' ');
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

fn main() -> ExitCode {
    // Crash bugs in the solvers under test panic by design and are caught
    // by the harness; keep the default hook from spamming stderr. Set
    // YINYANG_PANIC_TRACE=1 to restore backtraces while debugging.
    if std::env::var_os("YINYANG_PANIC_TRACE").is_none() {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `argv`, applies the process-wide settings and runs the command.
/// Every failure, of the command line or of the command, ends up here as
/// one message for stderr.
fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, args, mut cli) = parse(argv).map_err(|e| e.to_string())?;
    if cli.config.threads == 0 {
        // `--threads 0`: size the pool to the machine. The count feeds
        // nothing byte-compared — reports are identical at any width.
        cli.config.threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    }
    cli.config.heartbeat = cli.verbose && !cli.quiet;
    if cli.wallclock {
        trace::set_time_mode(yinyang_rt::TimeMode::Wall);
    }
    if let Some(path) = &cli.trace {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        trace::set_writer(Some(Box::new(std::io::BufWriter::new(file))));
        trace::set_capture(true);
    }
    let result = (cmd.run)(&args, &cli);
    // Flush and close the trace sink before exiting.
    trace::set_writer(None);
    result
}

/// Reads a file named on the command line.
fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|_| format!("cannot read {path}"))
}

/// The `fetch` command: one HTTP GET, body to stdout.
fn run_fetch(args: &[String], _: &Cli) -> Result<(), String> {
    let (addr, path) = (&args[0], &args[1]);
    // Bounded connect retry: a just-announced server may not be
    // accepting yet, and CI polls this command in a tight loop.
    match yinyang_rt::serve::http_get_retry(addr, path, 10, std::time::Duration::from_millis(50)) {
        Ok((200, body)) => {
            print!("{body}");
            Ok(())
        }
        // An HTTP error status is a failed scrape: keep the body off
        // stdout so scripts can't mistake an error page for metrics.
        Ok((code, body)) => {
            Err(format!("fetch http://{addr}{path}: HTTP {code}\n{}", body.trim_end()))
        }
        Err(e) => Err(format!("fetch failed: {e}")),
    }
}

/// The `solve` command: the reference solver's answer and model.
fn run_solve(args: &[String], _: &Cli) -> Result<(), String> {
    let out =
        SmtSolver::new().solve_str(&read(&args[0])?).map_err(|e| format!("parse error: {e}"))?;
    println!("{}", out.result);
    if let Some(m) = out.model {
        println!("{}", m.to_smtlib());
    }
    Ok(())
}

/// The `fuse` command: one fused test from two seed files.
fn run_fuse(args: &[String], cli: &Cli) -> Result<(), String> {
    // `parse` admits only `sat` or `unsat` here.
    let oracle = if args[0] == "sat" { Oracle::Sat } else { Oracle::Unsat };
    let (Ok(ta), Ok(tb)) = (read(&args[1]), read(&args[2])) else {
        return Err("cannot read input files".to_owned());
    };
    let (Ok(sa), Ok(sb)) = (yinyang_smtlib::parse_script(&ta), yinyang_smtlib::parse_script(&tb))
    else {
        return Err("parse error in seed files".to_owned());
    };
    let mut rng = yinyang_rt::StdRng::seed_from_u64(cli.config.rng_seed);
    let fused =
        Fuser::new().fuse(&mut rng, oracle, &sa, &sb).map_err(|e| format!("fusion failed: {e}"))?;
    println!("; oracle: {}", fused.oracle);
    print!("{}", fused.script);
    Ok(())
}

/// Validates a `--trace` output file: every line must parse as one JSON
/// object carrying at least `span` and `dur`, and the stream must obey
/// the span-stack invariants the exporters depend on — balanced
/// begin/end (every child event gets its enclosing parent event) and
/// monotone nested durations (children fit inside their parent). Prints
/// a per-span census; the first violation fails with its line number.
fn trace_check(args: &[String], _: &Cli) -> Result<(), String> {
    let path = &args[0];
    let report = yinyang_rt::export::check(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: {} events OK", report.events);
    for (name, (count, total)) in &report.census {
        println!("  {name:<12} {count:>7} events {total:>10} total dur");
    }
    println!(
        "  span stack OK: balanced, nested durations monotone \
         ({} roots, max depth {}, unit {})",
        report.roots, report.max_depth, report.unit
    );
    Ok(())
}

/// The `export` command: convert a `--trace` JSONL file to Chrome Trace
/// Event JSON and/or collapsed flamegraph stacks. Pure functions of the
/// trace text — rerunning on the same file rewrites identical bytes.
fn run_export(args: &[String], opts: &Cli) -> Result<(), String> {
    let path = &args[0];
    if opts.chrome_trace.is_none() && opts.flamegraph.is_none() {
        return Err(
            "export: nothing to do; pass --chrome-trace FILE and/or --flamegraph FILE".to_owned()
        );
    }
    let text = read(path)?;
    let in_trace = |e: String| format!("{path}: {e}");
    let report = yinyang_rt::export::check(&text).map_err(in_trace)?;
    if let Some(out) = &opts.chrome_trace {
        let rendered = yinyang_rt::export::chrome_trace(&text, opts.lanes).map_err(in_trace)?;
        std::fs::write(out, rendered).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "{out}: chrome trace, {} events on {} lane(s) ({})",
            report.events,
            opts.lanes.max(1),
            report.unit
        );
    }
    if let Some(out) = &opts.flamegraph {
        let folded = yinyang_rt::export::flamegraph(&text).map_err(in_trace)?;
        let frames = folded.lines().count();
        std::fs::write(out, folded).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("{out}: folded flamegraph, {frames} frame(s) ({})", report.unit);
    }
    Ok(())
}

/// Starts the `--status-addr` server (when requested) and announces the
/// bound address on stderr — the CI smoke gate parses this line to learn
/// ephemeral ports. Returns `Err` only on a bind failure.
fn start_status_server(
    opts: &Cli,
    phase: &str,
) -> Result<Option<yinyang_rt::StatusServer>, String> {
    let Some(addr) = &opts.status_addr else {
        return Ok(None);
    };
    yinyang_rt::serve::progress().begin(phase);
    let server = yinyang_rt::StatusServer::start(addr)
        .map_err(|e| format!("cannot bind status server on {addr}: {e}"))?;
    eprintln!(
        "[yinyang] status server listening on http://{} (/metrics /status /healthz)",
        server.local_addr()
    );
    Ok(Some(server))
}

/// Shuts the status server down after the run. `YINYANG_STATUS_HOLD_MS`
/// keeps it up that much longer first — the report is already printed
/// (stdout is line-buffered), so CI can probe the endpoints of a
/// finished run without racing the campaign.
fn finish_status_server(server: Option<yinyang_rt::StatusServer>) {
    let Some(server) = server else {
        return;
    };
    if let Some(ms) =
        std::env::var("YINYANG_STATUS_HOLD_MS").ok().and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    server.shutdown();
}

/// The `fuzz` command: full campaign with coverage trajectory (the CLI
/// process owns the global coverage state, so trajectories are sound
/// here), plus the forensic outputs behind `--bundle-dir` /
/// `--metrics-out`.
fn run_fuzz(_: &[String], opts: &Cli) -> Result<(), String> {
    if let Some(spec) = &opts.shard {
        return run_fuzz_worker(spec, opts);
    }
    let server = start_status_server(opts, "fuzz")?;
    let mut config = opts.config.clone();
    config.coverage_trajectory = true;
    let run = experiments::fig8_campaign_full(&config);
    // Coverage gauges live outside the replay-safe per-job deltas
    // (coverage state is process-global); attach them here, at the
    // report boundary. Totals are scheduling-independent.
    yinyang_coverage::export_metrics(&yinyang_coverage::snapshot());
    emit_fuzz_run(run, opts)?;
    finish_status_server(server);
    Ok(())
}

/// The report tail shared by `fuzz` and `fleet`: telemetry gauges from
/// the (already exported) global registry, `--metrics-out`, bundles, the
/// stdout report, and stderr cache stats. Everything here is a pure
/// function of the [`experiments::Fig8Run`], which is why the fleet
/// supervisor's output is byte-identical to a single-process run's.
fn emit_fuzz_run(run: experiments::Fig8Run, opts: &Cli) -> Result<(), String> {
    let cache_stats = run.cache_stats;
    let mut result = run.result;
    result.telemetry.gauges.extend(yinyang_rt::metrics::snapshot().gauges);
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, run.metrics.to_json().pretty() + "\n")
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    }
    let mut bundles = Vec::new();
    if let Some(dir) = &opts.bundle_dir {
        let mut findings = result.zirkon.findings.clone();
        findings.extend(result.corvus.findings.clone());
        let mut forensics = run.zirkon_forensics;
        forensics.extend(run.corvus_forensics);
        bundles = yinyang_campaign::write_bundles(std::path::Path::new(dir), &findings, &forensics)
            .map_err(|e| format!("cannot write bundles to {dir}: {e}"))?;
    }
    if opts.json {
        println!("{}", result.to_json().pretty());
    } else {
        println!("{}", experiments::render_fig8(&result));
        if !opts.quiet {
            for f in result.zirkon.findings.iter().chain(&result.corvus.findings) {
                println!(
                    "[{}] bug {:?} on {} ({}): {:?}",
                    f.solver, f.bug_id, f.benchmark, f.logic, f.behavior
                );
            }
        }
    }
    if !opts.quiet {
        if let Some(dir) = &opts.bundle_dir {
            for b in &bundles {
                println!(
                    "bundle {dir}/{}: fused {} B -> reduced {} B{}",
                    b.fingerprint,
                    b.fused_bytes,
                    b.reduced_bytes,
                    if b.reproduced { "" } else { " (oracle not rebuilt; kept fused)" },
                );
            }
        }
    }
    // Cache stats are scheduling-dependent, so they go to stderr and never
    // into the (byte-compared) report on stdout.
    if let Some(stats) = cache_stats {
        if !opts.quiet {
            eprintln!("solve cache: {}", stats.render());
        }
    }
    Ok(())
}

/// A fleet worker (`fuzz --shard I/N --partial-out DIR`): runs the shard's
/// share of the campaign, writes per-round partials, and prints no report
/// — the supervisor owns stdout. The worker still serves its own
/// `--status-addr`, which is what the supervisor federates.
fn run_fuzz_worker(spec: &str, opts: &Cli) -> Result<(), String> {
    let (shard, shards) = parse_shard_spec(spec)?;
    let dir = opts.partial_out.as_ref().expect("parse pairs a worker's shard with its partial dir");
    if opts.capture_events {
        // The supervisor wants a merged --trace file; buffer this shard's
        // span events into the partials (there is no local writer, so
        // nothing is emitted here).
        trace::set_capture(true);
    }
    let server = start_status_server(opts, "fuzz")?;
    // Test hook: stall before the campaign so a harness can kill this
    // worker mid-run deterministically (degraded-health coverage).
    if let Some(ms) =
        std::env::var("YINYANG_FLEET_STALL_MS").ok().and_then(|v| v.parse::<u64>().ok())
    {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    let worker =
        yinyang_campaign::ShardWorker::new(shard, shards, dir.clone(), opts.config.rng_seed);
    experiments::fig8_campaign_full_exec(
        &opts.config,
        &yinyang_campaign::Execution::Worker(&worker),
    )
    .map_err(|e| format!("fleet worker {shard}/{shards}: {e}"))?;
    finish_status_server(server);
    Ok(())
}

/// The `fleet` command: spawn `--shards` worker processes, run the
/// supervisor merge loop over their partials, and serve the federated
/// observability endpoints. The merged report and `--trace` file are
/// byte-identical to a single-process `fuzz` with the same seed.
fn run_fleet_cmd(_: &[String], opts: &Cli) -> Result<(), String> {
    if opts.fleet.shards == 0 {
        return Err("--shards must be at least 1".to_owned());
    }
    let fleet_opts = FleetOptions {
        capture_events: opts.trace.is_some(),
        status_addr: opts.status_addr.clone(),
        ..opts.fleet.clone()
    };
    let mut fleet = yinyang_campaign::Fleet::launch(&opts.config, &fleet_opts)
        .map_err(|e| format!("fleet: {e}"))?;
    let collector = fleet.collector();
    let mut config = opts.config.clone();
    config.coverage_trajectory = true;
    let outcome = experiments::fig8_campaign_full_exec(
        &config,
        &yinyang_campaign::Execution::Supervisor(&collector),
    );
    let result = outcome.map_err(|e| format!("fleet: {e}")).and_then(|run| {
        // The single-process run exports its own process-global coverage
        // here; the supervisor's equivalent is its own probes (seedgen,
        // triage) plus every worker's job deltas.
        let mut coverage =
            yinyang_coverage::CoverageMap::from_snapshot(&yinyang_coverage::snapshot());
        coverage.merge(&collector.worker_coverage());
        coverage.export_metrics();
        emit_fuzz_run(run, opts)
    });
    // Keep the federated endpoints probeable through the hold window even
    // on failure — a degraded /healthz is exactly what a harness wants to
    // observe after killing a shard.
    finish_status_server(fleet.take_server());
    fleet.shutdown();
    result
}

/// Parses a `--shard I/N` spec.
fn parse_shard_spec(spec: &str) -> Result<(usize, usize), String> {
    let parsed = spec.split_once('/').and_then(|(i, n)| {
        let shard: usize = i.parse().ok()?;
        let shards: usize = n.parse().ok()?;
        (shards >= 1 && shard < shards).then_some((shard, shards))
    });
    parsed.ok_or_else(|| format!("--shard expects I/N with I < N (e.g. 0/2), got {spec}"))
}

/// The `regress` command: replay reproduction bundles from one or more
/// campaign `--bundle-dir` outputs against a target solver build.
fn run_regress_cmd(dirs: &[String], opts: &Cli) -> Result<(), String> {
    let server = start_status_server(opts, "regress")?;
    let roots: Vec<std::path::PathBuf> = dirs.iter().map(std::path::PathBuf::from).collect();
    let config = &opts.config;
    let regress_config = RegressConfig {
        threads: config.threads,
        rng_seed: config.rng_seed,
        cache: config.cache,
        cache_capacity: config.cache_capacity,
        ..opts.regress.clone()
    };
    let run = yinyang_campaign::run_regress_full(&roots, &regress_config)
        .map_err(|e| format!("regress failed: {e}"))?;
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, run.metrics.to_json().pretty() + "\n")
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
    }
    if opts.json {
        println!("{}", run.report.to_json().pretty());
    } else {
        print!("{}", yinyang_campaign::render_markdown(&run.report));
    }
    if let Some(stats) = run.cache_stats {
        if !opts.quiet {
            eprintln!("solve cache: {}", stats.render());
        }
    }
    finish_status_server(server);
    Ok(())
}

/// The `profile` command: fold a `--trace` JSONL file into a span tree.
fn run_profile(args: &[String], opts: &Cli) -> Result<(), String> {
    let path = &args[0];
    let profile =
        yinyang_rt::Profile::from_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    if opts.json {
        println!("{}", profile.to_json().pretty());
    } else {
        print!("{}", profile.render_text());
    }
    Ok(())
}

/// The `experiments-md` command: regenerate the generated blocks of
/// EXPERIMENTS.md. The campaign block reruns the pinned demo campaign
/// (deterministic); the bench block only changes under `--bench-report`.
fn run_experiments_md(args: &[String], opts: &Cli) -> Result<(), String> {
    use yinyang_campaign::experiments_md::{
        bench_block, campaign_block, patch_block, pinned_config,
    };
    let path = args.first().map(String::as_str).unwrap_or("EXPERIMENTS.md");
    let doc = read(path)?;
    let in_doc = |e: String| format!("{path}: {e}");
    let block = campaign_block(&experiments::fig8_campaign(&pinned_config()));
    let mut patched = patch_block(&doc, "campaign", &block).map_err(in_doc)?;
    if let Some(report_path) = &opts.bench_report {
        let block = yinyang_rt::json::Json::parse(&read(report_path)?)
            .map_err(|e| e.to_string())
            .and_then(|j| bench_block(&j))
            .map_err(|e| format!("{report_path}: {e}"))?;
        patched = patch_block(&patched, "bench", &block).map_err(in_doc)?;
    }
    if opts.check {
        if patched != doc {
            return Err(format!(
                "{path}: generated blocks are stale; rerun `yinyang experiments-md`"
            ));
        }
        println!("{path}: generated blocks up to date");
    } else if patched == doc {
        println!("{path}: already up to date");
    } else {
        std::fs::write(path, &patched).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("{path}: regenerated");
    }
    Ok(())
}

fn run_exp(args: &[String], opts: &Cli) -> Result<(), String> {
    let config = &opts.config;
    let coverage_tests = config.iterations;
    match args.first().map(String::as_str) {
        Some("fig7") => print!("{}", experiments::fig7(config.scale)),
        Some("fig8") => {
            let r = experiments::fig8_campaign(config);
            if opts.json {
                println!("{}", r.triage.to_json().pretty());
            } else {
                print!("{}", experiments::render_fig8(&r));
            }
        }
        Some("fig9") => {
            let r = experiments::fig8_campaign(config);
            print!("{}", experiments::fig9(&r));
        }
        Some("fig10") => {
            let r = experiments::fig8_campaign(config);
            print!("{}", experiments::fig10(&r));
        }
        Some("fig11") => {
            print!("{}", experiments::fig11(config.scale, coverage_tests, config.rng_seed))
        }
        Some("fig12") => {
            print!("{}", experiments::fig12(config.scale, coverage_tests, config.rng_seed))
        }
        Some("rq4") => {
            let r = experiments::fig8_campaign(config);
            print!("{}", experiments::rq4(&r, config));
        }
        Some("throughput") => print!("{}", experiments::throughput(2.0)),
        Some("fp") => print!("{}", experiments::false_positive_check(10, config.rng_seed)),
        Some("all") | None => {
            print!("{}", experiments::fig7(config.scale));
            println!();
            let r = experiments::fig8_campaign(config);
            print!("{}", experiments::render_fig8(&r));
            println!();
            print!("{}", experiments::fig9(&r));
            println!();
            print!("{}", experiments::fig10(&r));
            println!();
            print!("{}", experiments::fig11(config.scale, coverage_tests, config.rng_seed));
            println!();
            print!("{}", experiments::fig12(config.scale, coverage_tests, config.rng_seed));
            println!();
            print!("{}", experiments::rq4(&r, config));
            println!();
            print!("{}", experiments::throughput(2.0));
            println!();
            print!("{}", experiments::false_positive_check(6, config.rng_seed));
        }
        Some(other) => return Err(format!("unknown experiment: {other}")),
    }
    Ok(())
}
