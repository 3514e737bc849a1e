//! The repository benchmark: four workloads over the composed serve/train
//! stack, one process per run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <head_retrieve|tail_decode|live_session|train_cycle> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is a separate pass that attributes time to layers. Every line but the
//! last is for people; the last line is the JSON result. See NOTES.md for
//! why each workload exists and which layers it stresses.

mod layers;
mod measure;
mod serving;
mod traffic;
mod train;

use std::process::ExitCode;

use measure::{CountingAlloc, Metric, Report};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Every end-to-end metric, printed by every untraced run. train_cycle
/// reports per training step what the serving workloads report per
/// request.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lat_p50_us", "us"),
    ("slo_permille", "permille"),
    ("throughput_rps", "1/cpu-s"),
    ("cpu_us_per_req", "us"),
    ("allocs_per_req", "count"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, printed by every traced run; a layer the
/// workload does not run reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.admit_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.batch_size", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.steals", "count"),
    ("kv.hit_ratio", "ratio"),
    ("kv.lookup_us", "us"),
    ("retrieve.us", "us"),
    ("retrieve.postings", "count"),
    ("retrieve.candidates", "count"),
    ("rank.us", "us"),
    ("rank.scored", "count"),
    ("scatter.us", "us"),
    ("scatter.shards_ok_ratio", "ratio"),
    ("catalog.pin_us", "us"),
    ("catalog.apply_ms", "ms"),
    ("catalog.pin_retries", "count"),
    ("models.pin_us", "us"),
    ("models.publish_us", "us"),
    ("student.decode_us", "us"),
    ("student.tokens", "count"),
    ("student.us_per_token", "us"),
    ("student.allocs", "count"),
    ("teacher.decode_us", "us"),
    ("teacher.tokens", "count"),
    ("teacher.us_per_token", "us"),
    ("teacher.allocs", "count"),
    ("train.warmup_step_ms", "ms"),
    ("train.joint_step_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.opt_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Puts the report's metrics in the declared order, filling metrics of
/// layers the workload does not run with 0; an undeclared or missing
/// end-to-end metric is a benchmark bug.
fn normalise(mut report: Report, declared: &[(&'static str, &'static str)], fill: bool) -> Report {
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        match report.metrics.iter().position(|m| m.name == name) {
            Some(i) => metrics.push(report.metrics.swap_remove(i)),
            None if fill => metrics.push(Metric {
                name,
                value: 0.0,
                unit,
            }),
            None => report.errors.push(format!("metric {name} not measured")),
        }
    }
    for m in &report.metrics {
        report
            .errors
            .push(format!("metric {} is not declared", m.name));
    }
    for m in &metrics {
        if !m.value.is_finite() {
            report
                .errors
                .push(format!("metric {} is not finite", m.name));
        }
    }
    report.metrics = metrics;
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match args.workload.as_str() {
        "head_retrieve" => Some(&serving::HEAD_RETRIEVE),
        "tail_decode" => Some(&serving::TAIL_DECODE),
        "live_session" => Some(&serving::LIVE_SESSION),
        "train_cycle" => None,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let report = match (spec, args.trace) {
        (Some(spec), false) => serving::run(spec, args.seed, args.seconds),
        (Some(spec), true) => serving::run_traced(spec, args.seed, args.seconds),
        (None, false) => train::run(args.seed, args.seconds),
        (None, true) => train::run_traced(args.seed, args.seconds),
    };
    let report = if args.trace {
        normalise(report, PER_LAYER, true)
    } else {
        normalise(report, END_TO_END, false)
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
