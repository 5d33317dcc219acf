//! perfbench — the end-to-end and per-layer benchmark of the Sunflow
//! offline replay and the pipelined daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fb_sunflow|fb_hybrid|stream_offline|stream_daemon|all> \
//!     [--seed N | --held-out] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run first pins itself to one CPU (see `proc::pin_to_one_cpu`). With
//! `--trace 0` it sets the workload up several times, then sets it up
//! again and replays it through the program's own entry point until
//! `--seconds` have passed (longer while the hypervisor steals the CPU),
//! checking every replay, and prints the end-to-end metrics. With `--trace 1` it alternates an untraced replay
//! with a traced one (a span around every call into a layer) and prints
//! the per-layer metrics; the spans of the last traced replay are written
//! to `perfbench/spans/<workload>.tsv`. The last line of standard output
//! is the JSON result; a human-readable table goes to standard error.
//! `--workload all` runs each workload in its own process, one at a time,
//! each printing its own result line.
//!
//! `schedule_diverged`: the pipelined daemon's schedule depends on where
//! its admission loop happens to cut the stream into batches — a batch
//! that ends inside a millisecond advances the clock before the rest of
//! that millisecond's arrivals are submitted, and they are planned in a
//! second event at the same instant (`daemon_path_equals_offline_replay`
//! pins the equivalence the program claims and fails on it). The
//! benchmark counts such replays in `ingest.schedule_diverged` instead of
//! failing them; every check the daemon path does promise still gates.

mod check;
mod e2e;
mod openloop;
mod proc;
mod report;
mod spans;
mod traced;
mod workloads;

use check::{mean, median, quantile};
use e2e::Inputs;
use report::{in_catalogue_order, RunResult, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::Workload;

/// The seed runs use unless told otherwise.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking a claimed gain (`--held-out`).
const HELD_OUT_SEED: u64 = 0x5EED_2016;
/// Set-ups per untraced run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Cheap set-ups repeat until this much time has gone into them.
const SETUP_BUDGET: Duration = Duration::from_millis(300);
/// A replay during which the hypervisor stole more than this share of
/// the pinned CPU's time measures the host, not the program. Such replays
/// are left out of `coflows_per_s`.
const STEAL_LIMIT: f64 = 0.05;
/// To collect clean replays a run may go on past `--seconds` by at most
/// this share of them.
const STEAL_GRACE: f64 = 0.25;

const USAGE: &str =
    "usage: perfbench --workload <fb_sunflow|fb_hybrid|stream_offline|stream_daemon|all> \
[--seed N | --held-out] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--held-out" => args.seed = HELD_OUT_SEED,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or("--seconds takes a whole number of at least 1")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let pinned = proc::pin_to_one_cpu();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | pinned to cpu {} | usable cores {} \
         | replan threads {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinned.map_or("none".to_string(), |c| c.to_string()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads::resolved_replan_threads(),
    );
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        traced_run(workload, args.seed, budget)
    } else {
        untraced_run(workload, args.seed, budget)
    };
    for (name, value) in &result.metrics {
        eprintln!("  {name:<32} {value:>16.6} {}", report::unit(name));
    }
    println!("{}", result.json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} Coflows failed their checks",
            result.failed, result.attempted
        );
        ExitCode::FAILURE
    }
}

/// The end-to-end run: repeated set-up, then untraced replays of freshly
/// set-up inputs until the budget is spent and at least half of them ran
/// without stolen time, or the budget and its grace are spent (at least
/// one replay).
fn untraced_run(workload: Workload, seed: u64, budget: Duration) -> RunResult {
    // Set-up runs several times up front and once more before every
    // replay, so its median samples the whole run, not one moment of it.
    let mut setup = Vec::new();
    let timed_set_up = |setup: &mut Vec<f64>| {
        let start = Instant::now();
        let made = Inputs::set_up(workload, seed);
        setup.push(start.elapsed().as_secs_f64());
        made
    };
    let began = Instant::now();
    while setup.len() < SETUP_REPS || began.elapsed() < SETUP_BUDGET {
        timed_set_up(&mut setup);
    }

    let deadline = Instant::now() + budget;
    let hard_deadline = deadline + budget.mul_f64(STEAL_GRACE);
    let mut rates = Vec::new();
    let mut clean_rates = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first: Option<check::Checked> = None;
    let mut diverged = 0usize;
    let mut peak_rss_mb = 0.0;
    loop {
        let inputs = timed_set_up(&mut setup);
        let pass = e2e::pass(&inputs);
        attempted += inputs.coflows.len() as u64;
        failed += pass.all_failed();
        let stolen = pass.usage.steal_share(pass.wall);
        eprintln!(
            "perfbench: replay {}: {:.1} Coflows/s, {:.3} s wall, {:.3} s CPU, {:.3} sys, {:.1}% stolen, \
             fingerprint {:#018x}",
            rates.len() + 1,
            pass.coflows_per_s(),
            pass.wall.as_secs_f64(),
            pass.usage.cpu().as_secs_f64(),
            pass.usage.system.as_secs_f64(),
            stolen * 100.0,
            pass.checked.fingerprint
        );
        rates.push(pass.coflows_per_s());
        if stolen <= STEAL_LIMIT {
            clean_rates.push(pass.coflows_per_s());
        }
        match &first {
            None => {
                first = Some(pass.checked.clone());
                // Later replays only add the allocator's drift.
                peak_rss_mb = proc::peak_rss_mb();
            }
            // Every replay of the same inputs must schedule identically,
            // except on the daemon path (see `schedule_diverged`).
            Some(f) if f.fingerprint != pass.checked.fingerprint => {
                if inputs.jsonl.is_some() {
                    diverged += 1;
                } else {
                    failed += inputs.coflows.len() as u64;
                }
            }
            Some(_) => {}
        }
        drop(pass);
        let now = Instant::now();
        if now >= deadline && (2 * clean_rates.len() >= rates.len() || now >= hard_deadline) {
            break;
        }
    }
    let first = first.expect("at least one pass");
    if diverged > 0 {
        eprintln!(
            "perfbench: {diverged} of {} daemon replays scheduled differently from the first",
            rates.len()
        );
    }
    eprintln!(
        "perfbench: {} replays, {} with over {}% of the CPU stolen",
        rates.len(),
        rates.len() - clean_rates.len(),
        STEAL_LIMIT * 100.0,
    );
    let rates = if clean_rates.is_empty() {
        rates
    } else {
        clean_rates
    };
    let measured = [
        ("coflows_per_s", median(&rates)),
        ("cct_avg_s", mean(&first.ccts)),
        ("cct_p98_s", quantile(&first.ccts, 0.98)),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", peak_rss_mb),
    ];
    RunResult {
        attempted,
        failed: failed.min(attempted),
        metrics: in_catalogue_order(END_TO_END, &measured),
    }
}

/// The traced run: pairs of an untraced and a traced replay until the
/// budget is spent (at least one pair), each layer metric the median over
/// pairs; then the planning and open-loop probes.
fn traced_run(workload: Workload, seed: u64, budget: Duration) -> RunResult {
    let inputs = Inputs::set_up(workload, seed);
    let deadline = Instant::now() + budget;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut diverged = 0usize;
    let mut per_pair: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let last_spans = loop {
        let untraced = e2e::pass(&inputs);
        let traced = traced::traced_pass(&inputs);
        attempted += 2 * inputs.coflows.len() as u64;
        failed += untraced.all_failed() + traced.refused + inputs.check(&traced.outcomes).failed;
        // The traced drivers must replay what the program's own entry
        // point replays, except on the daemon path (see
        // `schedule_diverged`).
        if check::fingerprint(&traced.outcomes) != untraced.checked.fingerprint {
            if inputs.jsonl.is_some() {
                diverged += 1;
            } else {
                failed += inputs.coflows.len() as u64;
            }
        }
        let mut m = traced.metrics.clone();
        m.push((
            "trace_overhead",
            traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0,
        ));
        m.push(("proc.cpu_s", untraced.usage.cpu().as_secs_f64()));
        m.push(("proc.ctx_switches", untraced.usage.switches() as f64));
        m.push((
            "proc.steal_share",
            untraced.usage.steal_share(untraced.wall),
        ));
        if let Some(r) = untraced.report {
            let u = &untraced.usage;
            m.extend([
                ("ingest.batches", r.batches as f64),
                (
                    "ingest.mean_batch",
                    (r.accepted + r.rejected) as f64 / r.batches.max(1) as f64,
                ),
                ("ingest.backpressure_waits", r.backpressure_waits as f64),
                ("ingest.cpu_s", u.cpu().as_secs_f64()),
                ("ingest.sys_s", u.system.as_secs_f64()),
                ("ingest.ctx_switches", u.switches() as f64),
                (
                    "ingest.overhead_s",
                    untraced.wall.as_secs_f64() - traced.layers_s,
                ),
            ]);
        }
        per_pair.push(m);
        if Instant::now() >= deadline {
            break traced.spans;
        }
    };
    let mut measured: Vec<(&'static str, f64)> = per_pair[0]
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = per_pair
                .iter()
                .filter_map(|m| m.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            (name, median(&values))
        })
        .collect();
    measured.extend(traced::intra_metrics(&inputs));
    if let Some(jsonl) = &inputs.jsonl {
        measured.push((
            "ingest.schedule_diverged",
            diverged as f64 / per_pair.len() as f64,
        ));
        let (open, lost) = openloop::open_loop(jsonl);
        measured.extend(open);
        failed += lost;
    }
    let failed = failed.min(attempted);
    measured.push(("failed_frac", failed as f64 / attempted as f64));
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/spans"))
        .join(format!("{}.tsv", workload.name()));
    if let Err(e) = last_spans.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    eprintln!(
        "perfbench: {} traced pairs, spans in {}",
        per_pair.len(),
        path.display()
    );
    RunResult {
        attempted,
        failed,
        metrics: in_catalogue_order(PER_LAYER, &measured),
    }
}

/// Run every workload in its own process, one after another, passing
/// their output through; fails if any of them fails.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut all_ok = true;
    for w in Workload::ALL {
        let mut args = argv.to_vec();
        let at = args.iter().position(|a| a == "--workload").expect("parsed") + 1;
        args[at] = w.name().to_string();
        let status = Command::new(&exe)
            .args(&args)
            .status()
            .expect("spawn one workload");
        all_ok &= status.success();
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let a = args("--workload fb_sunflow --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fb_sunflow", 9, 3, true)
        );
        assert_eq!(args("--workload all").unwrap().seed, DEFAULT_SEED);
        assert_eq!(
            args("--workload all --held-out").unwrap().seed,
            HELD_OUT_SEED
        );
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--workload x --bogus").is_err());
    }
}
