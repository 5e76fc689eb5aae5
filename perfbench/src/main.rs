//! End-to-end and per-layer benchmark of the Slingshot simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload shift_1024 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process runs one workload. It repeats set-up and run while the
//! next repetition fits into `--seconds`, samples set-up alone after
//! each repetition, checks every repetition's outputs, and prints one
//! JSON object as the last line of standard output:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. A human-readable summary goes to standard error.
//! `--check-seeds` instead runs the workload once at the default and at
//! the held-out seed and checks that both pass and that their simulated
//! outputs differ. See `README.md` for the workloads and the layer map.

mod cells;
mod layers;
mod raw;
mod report;

use report::{Metrics, Outcome};
use std::process::ExitCode;
use std::time::Instant;

/// Seed the benchmark is tuned and documented with.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 7919;
/// Input seed of the timed runs, whatever `--seed` says. Host cost swings
/// between input sets of one shape: several-fold per round on the
/// raw-network workloads (the event queue's rebuild storms strike some
/// rounds and spare others), and by up to 1.9x in the events of the Aries
/// incast cell across `congestion_128` placements. Seeded inputs would
/// make `run_s` vary by seed rather than by code. `--check-seeds` still
/// runs every workload at the held-out seed.
const INPUT_SEED: u64 = DEFAULT_SEED;
/// Set-up is sampled at least this often per run, so `setup_s` is a median.
const MIN_SETUPS: usize = 5;
/// Share of each repetition's time spent after it sampling set-up alone.
/// Samples spread over the whole run follow the host's speed as the
/// repetitions do; taken in one block they would catch a single phase
/// of it (set-up times here came in streaks 1.4× apart).
const SETUP_SHARE: f64 = 0.05;

/// The benchmark's workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Shift1024,
    Congestion128,
    HyperscaleRandom,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Shift1024,
        Workload::Congestion128,
        Workload::HyperscaleRandom,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Shift1024 => "shift_1024",
            Workload::Congestion128 => "congestion_128",
            Workload::HyperscaleRandom => "hyperscale_random",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_seeds: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut check_seeds = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check-seeds" {
            check_seeds = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        check_seeds,
    })
}

/// One workload's set-up and run, behind a common interface so the
/// repetition loop, checks and accounting are shared.
pub trait Bench {
    /// Prepared state: the built network(s) and generated inputs.
    type Prepared;
    /// Build the topology and network and generate and register the
    /// workload.
    fn setup(&self) -> Self::Prepared;
    /// Run to quiescence, check every output, and report the outcome.
    fn run(&self, prepared: Self::Prepared) -> Outcome;
    /// A traced repetition: per-layer metrics plus its outcome.
    fn traced(&self, untraced_run_s: f64) -> (Outcome, Metrics);
}

/// What the untraced repetitions measured.
struct Measured {
    setups: Vec<f64>,
    outcomes: Vec<Outcome>,
    /// `VmHWM` after the first set-up and run, so neither the number of
    /// repetitions nor the extra set-up samples move it.
    peak_rss_mb: f64,
}

/// Untraced repetitions: at least one, more while the next one fits into
/// `seconds`. After each, set-ups alone (dropped unrun) for
/// [`SETUP_SHARE`] of its time; then more if needed to reach
/// [`MIN_SETUPS`] samples.
fn measure<B: Bench>(bench: &B, seconds: f64) -> Measured {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut outcomes = Vec::new();
    let mut peak_rss_mb = None;
    let sample_setup = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let prepared = bench.setup();
        setups.push(t.elapsed().as_secs_f64());
        drop(prepared);
    };
    loop {
        let t = Instant::now();
        let prepared = bench.setup();
        let setup_s = t.elapsed().as_secs_f64();
        setups.push(setup_s);
        outcomes.push(bench.run(prepared));
        peak_rss_mb.get_or_insert_with(report::peak_rss_mb);
        let slice = t.elapsed().as_secs_f64() * SETUP_SHARE;
        let s = Instant::now();
        while s.elapsed().as_secs_f64() + setup_s <= slice {
            sample_setup(&mut setups);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (outcomes.len() + 1) as f64 / outcomes.len() as f64 > seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        sample_setup(&mut setups);
    }
    Measured {
        setups,
        outcomes,
        peak_rss_mb: peak_rss_mb.expect("at least one repetition ran"),
    }
}

fn run_workload<B: Bench>(bench: &B, args: &Args) -> report::Result {
    if args.trace {
        // One untraced repetition, then the traced one on the same input.
        let untraced = bench.run(bench.setup());
        let (traced, metrics) = bench.traced(untraced.run_s);
        // `from_outcomes` fails the run unless both digests agree.
        return report::Result::from_outcomes(&[untraced, traced], metrics);
    }
    let Measured {
        setups,
        outcomes,
        peak_rss_mb,
    } = measure(bench, args.seconds);
    let run_s: Vec<f64> = outcomes.iter().map(|o| o.run_s).collect();
    let mut metrics = Metrics::default();
    metrics.set("run_s", report::median(&run_s), "s");
    metrics.set("setup_s", report::median(&setups), "s");
    metrics.set("peak_rss_mb", peak_rss_mb, "MB");
    eprintln!(
        "{}: {} repetition(s), run_s {:?}, {} set-ups, median setup_s {}",
        args.workload.name(),
        outcomes.len(),
        run_s,
        setups.len(),
        report::median(&setups)
    );
    report::Result::from_outcomes(&outcomes, metrics)
}

/// Run once at the default and at the held-out seed: both must pass
/// every check, and their simulated outputs must differ.
fn check_seeds<B: Bench>(make: impl Fn(u64) -> B) -> bool {
    let mut digests = Vec::new();
    let mut ok = true;
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        let bench = make(seed);
        let outcome = bench.run(bench.setup());
        eprintln!(
            "seed {seed}: sim_digest {:016x}, {} attempted, {} failed",
            outcome.digest, outcome.attempted, outcome.failed
        );
        ok &= outcome.correct && outcome.failed == 0;
        digests.push(outcome.digest);
    }
    ok && digests[0] != digests[1]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check_seeds {
        let ok = match args.workload {
            Workload::Shift1024 => check_seeds(raw::shift_1024),
            Workload::Congestion128 => check_seeds(cells::Congestion128::new),
            Workload::HyperscaleRandom => check_seeds(raw::hyperscale_random),
        };
        eprintln!(
            "check-seeds {}: {}",
            args.workload.name(),
            if ok { "pass" } else { "FAIL" }
        );
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut result = match args.workload {
        Workload::Shift1024 => run_workload(&raw::shift_1024(INPUT_SEED), &args),
        Workload::Congestion128 => run_workload(&cells::Congestion128::new(INPUT_SEED), &args),
        Workload::HyperscaleRandom => run_workload(&raw::hyperscale_random(INPUT_SEED), &args),
    };
    result.correct &=
        report::digest_agrees_with_earlier_runs(args.workload.name(), args.seed, result.digest);
    if !args.trace {
        let failed_share = result.failed as f64 / result.attempted as f64;
        eprintln!(
            "{}: failed_ops {failed_share} ({} of {}), sim_digest {:016x}",
            args.workload.name(),
            result.failed,
            result.attempted,
            result.digest
        );
    }
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
