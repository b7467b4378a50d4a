//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path tcbench/Cargo.toml -- \
//!     --workload hot-read|cold-mixed|batch-closure|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run builds the seeded transportation network (16 countries ×
//! 100 cities, one site per country), drives one workload through the
//! public `discset` API, checks every answer against a Dijkstra oracle
//! and prints its metrics, one per line with unit and sample count, and
//! last one JSON object (`all` runs the three workloads in turn, each
//! printing its own). `--trace 0` measures the end-to-end metrics;
//! `--trace 1` replays the workload through each layer's public
//! functions and reports per-layer metrics. `spec.json` (printed by
//! `--describe`) lists every metric, its unit, direction, workloads and
//! the end-to-end metric each layer metric should move.

mod load;
mod oracle;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use load::Env;
use workload::Workload;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?],
                });
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of a git checkout in the working directory, read from
/// `.git` directly.
fn git_commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type `dir` lives on, from the mount table.
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    std::fs::read_to_string("/proc/self/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(point)
                        .then(|| (point.len(), fstype.to_string()))
                })
                .max()
                .map(|(_, fstype)| fstype)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--describe") {
        print!("{}", spec::describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcbench: {e}\nusage: tcbench --workload <hot-read|cold-mixed|batch-closure|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("tcbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let env = Env {
        clients,
        seconds: args.seconds,
        work,
    };
    println!(
        "env: nproc={clients} rustc=\"{}\" profile={} commit={} wal_dir_fs={} fsync=on",
        env!("TCBENCH_RUSTC"),
        env!("TCBENCH_PROFILE"),
        git_commit(),
        filesystem_of(&env.work),
    );
    let mut failed = 0;
    for &w in &args.workloads {
        println!(
            "workload: {} seed={} seconds={} trace={} clients={clients} workers={clients}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let outcome = if args.trace {
            trace::run(w, args.seed, &env)
        } else {
            load::run(w, args.seed, &env)
        };
        // Each workload prints its own result object as it finishes.
        outcome
            .report
            .print(outcome.failed == 0, outcome.attempted, outcome.failed);
        if outcome.failed > 0 {
            eprintln!(
                "tcbench: {}: {} of {} checked answers were wrong or failed",
                w.name(),
                outcome.failed,
                outcome.attempted
            );
        }
        failed += outcome.failed;
    }
    let _ = std::fs::remove_dir_all(&env.work);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
