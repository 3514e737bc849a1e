//! A tiny manual benchmark harness (no external deps, works offline).
//!
//! Criterion replacement for hermetic builds: warm up, sample the closure
//! wall-clock a fixed number of times, report median / min / max. The
//! numbers are not statistically rigorous — they exist so `cargo bench`
//! still surfaces the paper's latency ladders without crates.io access.

use std::time::{Duration, Instant};

/// One benchmark's timing summary (nanoseconds per iteration).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub median_ns: u128,
    pub min_ns: u128,
    pub max_ns: u128,
}

/// Times `f` for `samples` runs after `warmup` unrecorded runs and prints a
/// one-line summary. Returns the summary for programmatic assertions.
pub fn bench(name: &str, warmup: usize, samples: usize, mut f: impl FnMut()) -> Sample {
    for _ in 0..warmup {
        f();
    }
    let mut times: Vec<u128> = Vec::with_capacity(samples.max(1));
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_nanos());
    }
    times.sort_unstable();
    let s = Sample {
        median_ns: times[times.len() / 2],
        min_ns: times[0],
        max_ns: times[times.len() - 1],
    };
    println!(
        "{name:<40} median {:>12}   min {:>12}   max {:>12}",
        fmt_ns(s.median_ns),
        fmt_ns(s.min_ns),
        fmt_ns(s.max_ns)
    );
    s
}

/// Prints a group header, mirroring Criterion's visual grouping.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

/// Optional per-entry derived metrics alongside the raw nanosecond
/// [`Sample`]: decode throughput, and a throughput ratio against another
/// entry in the same record (the distilled-student speedup bar).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Derived {
    /// Decode throughput in tokens per second (from the median).
    pub tokens_per_s: Option<f64>,
    /// `(reference entry name, ratio)` — how many times faster this entry
    /// is than the named reference, which must exist in the same record.
    pub speedup_vs: Option<(String, f64)>,
}

/// A machine-readable benchmark trajectory: one named [`Sample`] per
/// entry, persisted as `BENCH_<name>.json` so successive optimisation PRs
/// leave comparable numbers behind.
///
/// The on-disk schema (hand-rolled, no external JSON crate):
///
/// ```json
/// {"bench": "decode", "unit": "ns",
///  "entries": [{"name": "...", "median_ns": 1, "min_ns": 1, "max_ns": 2,
///               "tokens_per_s": 15750.5,
///               "speedup_vs": {"name": "...", "ratio": 2.5}}]}
/// ```
///
/// `tokens_per_s` and `speedup_vs` are optional per entry; when present
/// they must be finite and positive, and `speedup_vs.name` must reference
/// another entry of the same record.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    pub bench: String,
    entries: Vec<(String, Sample, Derived)>,
}

impl BenchRecord {
    pub fn new(bench: impl Into<String>) -> Self {
        BenchRecord { bench: bench.into(), entries: Vec::new() }
    }

    /// Records one named sample (names must be unique within a record).
    pub fn push(&mut self, name: impl Into<String>, sample: Sample) {
        self.push_derived(name, sample, Derived::default());
    }

    /// Records one named sample with derived metrics attached.
    pub fn push_derived(&mut self, name: impl Into<String>, sample: Sample, derived: Derived) {
        let name = name.into();
        assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "duplicate bench entry name: {name}"
        );
        self.entries.push((name, sample, derived));
    }

    /// The recorded sample for `name`, if present.
    pub fn entry(&self, name: &str) -> Option<Sample> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|(_, s, _)| *s)
    }

    /// The derived metrics for `name`, if the entry exists.
    pub fn derived(&self, name: &str) -> Option<&Derived> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|(_, _, d)| d)
    }

    /// Serializes the record to the `BENCH_*.json` schema.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_string(&self.bench)));
        out.push_str("  \"unit\": \"ns\",\n");
        out.push_str("  \"entries\": [\n");
        for (i, (name, s, d)) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {}",
                json_string(name),
                s.median_ns,
                s.min_ns,
                s.max_ns,
            ));
            if let Some(t) = d.tokens_per_s {
                out.push_str(&format!(", \"tokens_per_s\": {t}"));
            }
            if let Some((vs, ratio)) = &d.speedup_vs {
                out.push_str(&format!(
                    ", \"speedup_vs\": {{\"name\": {}, \"ratio\": {ratio}}}",
                    json_string(vs)
                ));
            }
            out.push_str(&format!("}}{}\n", if i + 1 < self.entries.len() { "," } else { "" }));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `to_json` to `path`, then re-reads and re-validates it so a
    /// truncated or garbled write fails loudly at the producer.
    pub fn write_validated(&self, path: &std::path::Path) -> std::io::Result<BenchRecord> {
        std::fs::write(path, self.to_json())?;
        let text = std::fs::read_to_string(path)?;
        validate_bench_json(&text).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{} failed validation after write: {e}", path.display()),
            )
        })
    }
}

/// Serializes a [`TrainingCurve`](qrw_core::TrainingCurve) — including the sentinel counters
/// (`skipped_steps`, `rollbacks`, `nan_grad_events`) — to a
/// `CURVE_<name>.json` document:
///
/// ```json
/// {"curve": "train_resume", "points": [
///   {"step": 3, "ppl_q2t": 12.5, "ppl_t2q": 11.25, "log_prob": -4.5,
///    "accuracy": 0.25, "skipped_steps": 0, "rollbacks": 0,
///    "nan_grad_events": 0}]}
/// ```
///
/// Floats are written with Rust's shortest-round-trip formatting, so
/// [`validate_curve_json`] recovers them bit-for-bit; non-finite values
/// (a divergent run's eval can legitimately produce them) are written as
/// `null` and read back as NaN.
pub fn curve_to_json(name: &str, curve: &qrw_core::TrainingCurve) -> String {
    let f = |x: f32| -> String {
        if x.is_finite() { format!("{x}") } else { "null".into() }
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"curve\": {},\n", json_string(name)));
    out.push_str("  \"points\": [\n");
    for (i, p) in curve.points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"step\": {}, \"ppl_q2t\": {}, \"ppl_t2q\": {}, \"log_prob\": {}, \
             \"accuracy\": {}, \"skipped_steps\": {}, \"rollbacks\": {}, \
             \"nan_grad_events\": {}}}{}\n",
            p.step,
            f(p.ppl_q2t),
            f(p.ppl_t2q),
            f(p.log_prob),
            f(p.accuracy),
            p.skipped_steps,
            p.rollbacks,
            p.nan_grad_events,
            if i + 1 < curve.points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses and schema-checks a `CURVE_*.json` document, returning the
/// curve name and the decoded [`TrainingCurve`](qrw_core::TrainingCurve). Every field of every
/// point is required — in particular the sentinel counters, so a producer
/// that drops them fails here rather than in a downstream plot.
pub fn validate_curve_json(
    text: &str,
) -> Result<(String, qrw_core::TrainingCurve), String> {
    let value = json::parse(text)?;
    if value.as_object().is_none() {
        return Err("top level is not an object".into());
    }
    let name = value
        .get("curve")
        .and_then(Json::as_str)
        .ok_or("missing string field \"curve\"")?
        .to_string();
    if name.is_empty() {
        return Err("\"curve\" must be non-empty".into());
    }
    let points = value
        .get("points")
        .and_then(Json::as_array)
        .ok_or("missing array field \"points\"")?;
    let mut curve = qrw_core::TrainingCurve::default();
    for (i, p) in points.iter().enumerate() {
        if p.as_object().is_none() {
            return Err(format!("points[{i}] is not an object"));
        }
        let int = |field: &str| -> Result<u64, String> {
            p.get(field)
                .and_then(Json::as_u128)
                .and_then(|x| u64::try_from(x).ok())
                .ok_or_else(|| format!("points[{i}] missing integer \"{field}\""))
        };
        let float = |field: &str| -> Result<f32, String> {
            match p.get(field) {
                Some(Json::Null) => Ok(f32::NAN),
                Some(v) => v
                    .as_f64()
                    .map(|x| x as f32)
                    .ok_or_else(|| format!("points[{i}] \"{field}\" is not a number")),
                None => Err(format!("points[{i}] missing number \"{field}\"")),
            }
        };
        curve.points.push(qrw_core::CurvePoint {
            step: int("step")?,
            ppl_q2t: float("ppl_q2t")?,
            ppl_t2q: float("ppl_t2q")?,
            log_prob: float("log_prob")?,
            accuracy: float("accuracy")?,
            skipped_steps: int("skipped_steps")?,
            rollbacks: int("rollbacks")?,
            nan_grad_events: int("nan_grad_events")?,
        });
    }
    Ok((name, curve))
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses and schema-checks a `BENCH_*.json` document, returning the
/// decoded record. Errors describe the first violation found: not JSON,
/// wrong field types, a non-`ns` unit, empty or duplicate entries, or an
/// entry whose stats are not ordered `min <= median <= max`.
pub fn validate_bench_json(text: &str) -> Result<BenchRecord, String> {
    let value = json::parse(text)?;
    if value.as_object().is_none() {
        return Err("top level is not an object".into());
    }
    let bench = value
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing string field \"bench\"")?
        .to_string();
    if bench.is_empty() {
        return Err("\"bench\" must be non-empty".into());
    }
    match value.get("unit").and_then(Json::as_str) {
        Some("ns") => {}
        Some(other) => return Err(format!("unsupported unit {other:?} (expected \"ns\")")),
        None => return Err("missing string field \"unit\"".into()),
    }
    let entries = value
        .get("entries")
        .and_then(Json::as_array)
        .ok_or("missing array field \"entries\"")?;
    if entries.is_empty() {
        return Err("\"entries\" must be non-empty".into());
    }
    let mut record = BenchRecord::new(bench);
    for (i, e) in entries.iter().enumerate() {
        if e.as_object().is_none() {
            return Err(format!("entries[{i}] is not an object"));
        }
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("entries[{i}] missing string \"name\""))?;
        if name.is_empty() {
            return Err(format!("entries[{i}] has an empty name"));
        }
        if record.entry(name).is_some() {
            return Err(format!("duplicate entry name {name:?}"));
        }
        let stat = |field: &str| -> Result<u128, String> {
            e.get(field)
                .and_then(Json::as_u128)
                .ok_or_else(|| format!("entries[{i}] ({name}) missing integer \"{field}\""))
        };
        let sample = Sample {
            median_ns: stat("median_ns")?,
            min_ns: stat("min_ns")?,
            max_ns: stat("max_ns")?,
        };
        if !(sample.min_ns <= sample.median_ns && sample.median_ns <= sample.max_ns) {
            return Err(format!(
                "entries[{i}] ({name}) stats not ordered: min {} <= median {} <= max {} violated",
                sample.min_ns, sample.median_ns, sample.max_ns
            ));
        }
        let mut derived = Derived::default();
        if let Some(v) = e.get("tokens_per_s") {
            let t = v
                .as_f64()
                .ok_or_else(|| format!("entries[{i}] ({name}) \"tokens_per_s\" is not a number"))?;
            if !t.is_finite() || t <= 0.0 {
                return Err(format!(
                    "entries[{i}] ({name}) \"tokens_per_s\" must be finite and positive, got {t}"
                ));
            }
            derived.tokens_per_s = Some(t);
        }
        if let Some(v) = e.get("speedup_vs") {
            if v.as_object().is_none() {
                return Err(format!("entries[{i}] ({name}) \"speedup_vs\" is not an object"));
            }
            let vs = v.get("name").and_then(Json::as_str).ok_or_else(|| {
                format!("entries[{i}] ({name}) \"speedup_vs\" missing string \"name\"")
            })?;
            if vs.is_empty() {
                return Err(format!("entries[{i}] ({name}) \"speedup_vs\" has an empty name"));
            }
            let ratio = v.get("ratio").and_then(Json::as_f64).ok_or_else(|| {
                format!("entries[{i}] ({name}) \"speedup_vs\" missing number \"ratio\"")
            })?;
            if !ratio.is_finite() || ratio <= 0.0 {
                return Err(format!(
                    "entries[{i}] ({name}) \"speedup_vs\" ratio must be finite and positive, \
                     got {ratio}"
                ));
            }
            derived.speedup_vs = Some((vs.to_string(), ratio));
        }
        record.entries.push((name.to_string(), sample, derived));
    }
    // Speedup references must resolve within the record: a ratio against
    // a missing baseline is meaningless.
    for (name, _, d) in &record.entries {
        if let Some((vs, _)) = &d.speedup_vs {
            if record.entry(vs).is_none() {
                return Err(format!(
                    "entry {name:?} \"speedup_vs\" references unknown entry {vs:?}"
                ));
            }
        }
    }
    Ok(record)
}

/// The prologue every record-specific validator shares: the general bench
/// schema ([`validate_bench_json`]), the record named `bench`, and every
/// entry in `required` present (`what` names the section in the error).
fn validate_named(
    text: &str,
    bench: &str,
    what: &str,
    required: &[&str],
) -> Result<BenchRecord, String> {
    let record = validate_bench_json(text)?;
    if record.bench != bench {
        return Err(format!("\"bench\" is {:?}, expected {bench:?}", record.bench));
    }
    if let Some(name) = required.iter().find(|name| record.entry(name).is_none()) {
        return Err(format!("missing required {what} entry {name:?}"));
    }
    Ok(record)
}

/// Entry names a `BENCH_mutate.json` record must carry: serve latency
/// with a frozen vs an epoch-pinned live catalog, tail latency and epoch
/// lifecycle counters under writer churn, and the time to recover the
/// last sealed epoch after a mid-commit kill.
pub const MUTATE_REQUIRED_ENTRIES: [&str; 8] = [
    "frozen/serve_ns_per_req",
    "pinned/serve_ns_per_req",
    "churn/latency_p50",
    "churn/latency_p95",
    "churn/latency_p99",
    "churn/epochs_published",
    "churn/epochs_reclaimed",
    "recovery/after_kill_ns",
];

/// Parses and schema-checks a `BENCH_mutate.json` document: the general
/// bench schema ([`validate_bench_json`]) plus the mutate-specific
/// contract — the record must be named `mutate` and carry every entry in
/// [`MUTATE_REQUIRED_ENTRIES`] (extra entries are allowed).
pub fn validate_mutate_json(text: &str) -> Result<BenchRecord, String> {
    validate_named(text, "mutate", "mutate", &MUTATE_REQUIRED_ENTRIES)
}

/// Entry names the shard-scaling section of `BENCH_serve.json` must
/// carry: per-request serve latency at shard counts 1 and 4 (the quick
/// sweep; `QRW_VERIFY_BUDGET=full` adds counts 2 and 8 as extra entries)
/// and the partial-results rate under 100% single-shard fault injection
/// (per mille of served requests; 1000 means every response degraded to
/// `shards_ok = N-1` partial results, the expected value with a
/// permanently poisoned shard).
pub const SHARD_REQUIRED_ENTRIES: [&str; 4] = [
    "shard_scaling/s1_ns_per_req",
    "shard_scaling/s4_ns_per_req",
    "shard_scaling/partial_ns_per_req",
    "shard_scaling/partial_rate_permille",
];

/// Parses and schema-checks a `BENCH_serve.json` document for its
/// shard-scaling contract: the general bench schema
/// ([`validate_bench_json`]) plus the record being named `serve` and
/// carrying every entry in [`SHARD_REQUIRED_ENTRIES`] (extra entries —
/// the load-generation sections, the full-sweep shard counts — are
/// allowed).
pub fn validate_shard_json(text: &str) -> Result<BenchRecord, String> {
    validate_named(text, "serve", "shard-scaling", &SHARD_REQUIRED_ENTRIES)
}

/// Entry names the mailbox-scheduler scaling section of
/// `BENCH_serve.json` must carry: wall-clock per-request serve time at
/// scheduler shard counts {1, 2, 4} (informational — it depends on host
/// core count) and the **virtual-cost p99** at the same counts. The
/// virtual p99 is computed from the scheduler's own minted `batch_form`
/// spans under the logical clock: each worker's completion cost
/// accumulates `batch size + DECODE weight × decodes` per batch (a
/// batch's decodes are the requests among its `ids` whose own trace holds
/// a `rung_online` span), every request completes at its worker's
/// cumulative cost, and the p99 is taken over requests. It measures
/// scheduling *structure* (how evenly work spreads across workers) and
/// needs no parallel hardware, so the bar also runs on single-core CI.
/// It is not deterministic: batch composition and the worker each batch
/// lands on depend on worker start timing (the `max_wait_ticks` fill
/// window, steals), so identical code gives 144–384 at 4 shards run to
/// run, and each committed row is one sample.
pub const SCHED_REQUIRED_ENTRIES: [&str; 6] = [
    "sched_scaling/s1_ns_per_req",
    "sched_scaling/s2_ns_per_req",
    "sched_scaling/s4_ns_per_req",
    "sched_scaling/s1_p99_vcost",
    "sched_scaling/s2_p99_vcost",
    "sched_scaling/s4_p99_vcost",
];

/// Parses and schema-checks a `BENCH_serve.json` document for its
/// scheduler-scaling contract: the general bench schema
/// ([`validate_bench_json`]) plus the record being named `serve`,
/// carrying every entry in [`SCHED_REQUIRED_ENTRIES`], and the scaling
/// bar itself — **virtual p99 at 4 shards must not exceed virtual p99 at
/// 1 shard** on the burst mix. The bar is re-enforced at read time (the
/// `validate_online_json` trajectory discipline) so a regenerated record
/// cannot silently regress the scheduler's scaling behaviour.
pub fn validate_sched_json(text: &str) -> Result<BenchRecord, String> {
    let record = validate_named(text, "serve", "sched-scaling", &SCHED_REQUIRED_ENTRIES)?;
    let p99_1 = record.entry("sched_scaling/s1_p99_vcost").expect("presence checked above");
    let p99_4 = record.entry("sched_scaling/s4_p99_vcost").expect("presence checked above");
    if p99_4.median_ns > p99_1.median_ns {
        return Err(format!(
            "scheduler scaling regressed: virtual p99 at 4 shards ({}) exceeds 1 shard ({})",
            p99_4.median_ns, p99_1.median_ns
        ));
    }
    Ok(record)
}

/// Entry names a `BENCH_distill.json` record must carry: teacher and
/// student max-length decode latency and the held-out oracle
/// win/tie/lose verdict of the student against the teacher.
pub const DISTILL_REQUIRED_ENTRIES: [&str; 5] = [
    "teacher/decode_maxlen",
    "student/decode_maxlen",
    "oracle/win",
    "oracle/tie",
    "oracle/lose",
];

/// Parses and schema-checks a `BENCH_distill.json` document: the general
/// bench schema ([`validate_bench_json`]) plus the distill-specific
/// contract — the record must be named `distill`, carry every entry in
/// [`DISTILL_REQUIRED_ENTRIES`] (extras allowed), and the student decode
/// entry must carry `tokens_per_s` and its `speedup_vs` ratio against the
/// teacher decode entry (the PR's ≥2x acceptance bar lives in that field).
pub fn validate_distill_json(text: &str) -> Result<BenchRecord, String> {
    let record = validate_named(text, "distill", "distill", &DISTILL_REQUIRED_ENTRIES)?;
    let student = record.derived("student/decode_maxlen").expect("entry checked above");
    if student.tokens_per_s.is_none() {
        return Err("\"student/decode_maxlen\" must carry \"tokens_per_s\"".into());
    }
    match &student.speedup_vs {
        Some((vs, _)) if vs == "teacher/decode_maxlen" => {}
        _ => {
            return Err(
                "\"student/decode_maxlen\" must carry \"speedup_vs\" against \
                 \"teacher/decode_maxlen\""
                    .into(),
            )
        }
    }
    Ok(record)
}

/// Entry names a `BENCH_online.json` record must carry: the held-out
/// session-oracle relevance trajectory over the simulated days (day 0 is
/// the cold pre-training eval; `QRW_VERIFY_BUDGET=full` adds later days
/// as extra entries), plus the closed loop's serving and swap accounting.
pub const ONLINE_REQUIRED_ENTRIES: [&str; 8] = [
    "day0/oracle_permille",
    "day1/oracle_permille",
    "day2/oracle_permille",
    "day3/oracle_permille",
    "serve/requests_total",
    "serve/harvested_total",
    "swap/epochs_published",
    "swap/swap_failures",
];

/// Parses and schema-checks a `BENCH_online.json` document: the general
/// bench schema ([`validate_bench_json`]) plus the online-loop contract —
/// the record must be named `online`, carry every entry in
/// [`ONLINE_REQUIRED_ENTRIES`] (extra days are allowed), and the
/// day-by-day oracle trajectory must never regress below day 0 (the
/// ISSUE's monotone-or-flat acceptance bar, re-checked at read time so a
/// regenerated trajectory cannot silently degrade).
pub fn validate_online_json(text: &str) -> Result<BenchRecord, String> {
    let record = validate_named(text, "online", "online", &ONLINE_REQUIRED_ENTRIES)?;
    let day0 = record.entry("day0/oracle_permille").expect("presence checked above");
    for (name, s, _) in &record.entries {
        let is_day = name.starts_with("day") && name.ends_with("/oracle_permille");
        if is_day && s.median_ns < day0.median_ns {
            return Err(format!(
                "oracle trajectory regressed: {name} median {} below day0 median {}",
                s.median_ns, day0.median_ns
            ));
        }
    }
    Ok(record)
}

/// Compares a fresh record against the committed baseline it is about to
/// replace: any entry present in both whose fresh median exceeds the
/// committed median by more than `tolerance` (0.20 = 20%) is a
/// regression, and so is an entry that disappeared from the fresh run.
/// New entries are allowed — that is how the trajectory grows.
pub fn median_regressions(
    committed: &BenchRecord,
    fresh: &BenchRecord,
    tolerance: f64,
) -> Result<(), String> {
    let mut problems = Vec::new();
    for (name, old, _) in &committed.entries {
        match fresh.entry(name) {
            None => problems.push(format!("entry {name:?} disappeared from the fresh run")),
            Some(new) => {
                if new.median_ns as f64 > old.median_ns as f64 * (1.0 + tolerance) {
                    problems.push(format!(
                        "{name}: median {} ns vs committed {} ns \
                         (+{:.0}%, tolerance {:.0}%)",
                        new.median_ns,
                        old.median_ns,
                        100.0 * (new.median_ns as f64 / old.median_ns.max(1) as f64 - 1.0),
                        100.0 * tolerance
                    ));
                }
            }
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// One validated line of a span-trace JSONL export (the `qrw-obs`
/// `Tracer::export_jsonl` schema).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpanLine {
    pub trace: u64,
    pub span: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// Parses and schema-checks a span-trace JSONL document (one JSON object
/// per non-empty line):
///
/// ```json
/// {"trace":1,"span":2,"parent":null,"name":"serve",
///  "start_us":10,"end_us":42,"attrs":{"source":"cache"}}
/// ```
///
/// Every line must carry integer `trace`/`span`, `parent` as integer or
/// null, a non-empty string `name`, ordered `start_us <= end_us`, and an
/// object `attrs`. Span ids must be unique across the document. Returns
/// the decoded lines (attributes are validated but not retained).
pub fn validate_trace_jsonl(text: &str) -> Result<Vec<TraceSpanLine>, String> {
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let n = lineno + 1;
        let value = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        if value.as_object().is_none() {
            return Err(format!("line {n}: not an object"));
        }
        let int = |field: &str| -> Result<u64, String> {
            value
                .get(field)
                .and_then(Json::as_u128)
                .and_then(|x| u64::try_from(x).ok())
                .ok_or_else(|| format!("line {n}: missing integer \"{field}\""))
        };
        let parent = match value.get("parent") {
            Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u128()
                    .and_then(|x| u64::try_from(x).ok())
                    .ok_or_else(|| format!("line {n}: \"parent\" is not an integer or null"))?,
            ),
            None => return Err(format!("line {n}: missing \"parent\"")),
        };
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {n}: missing string \"name\""))?;
        if name.is_empty() {
            return Err(format!("line {n}: \"name\" must be non-empty"));
        }
        if value.get("attrs").and_then(Json::as_object).is_none() {
            return Err(format!("line {n}: missing object \"attrs\""));
        }
        let line = TraceSpanLine {
            trace: int("trace")?,
            span: int("span")?,
            parent,
            name: name.to_string(),
            start_us: int("start_us")?,
            end_us: int("end_us")?,
        };
        if line.end_us < line.start_us {
            return Err(format!("line {n}: end_us {} < start_us {}", line.end_us, line.start_us));
        }
        if !seen.insert(line.span) {
            return Err(format!("line {n}: duplicate span id {}", line.span));
        }
        out.push(line);
    }
    Ok(out)
}

use json::Json;

/// A dependency-free JSON subset parser — just enough for the
/// `BENCH_*.json` schema (objects, arrays, strings, unsigned integers,
/// literals), so validation does not need serde.
mod json {
    #[derive(Clone, Debug, PartialEq)]
    pub enum Json {
        Object(Vec<(String, Json)>),
        Array(Vec<Json>),
        String(String),
        Number(f64),
        Bool(bool),
        Null,
    }

    impl Json {
        pub fn as_object(&self) -> Option<&[(String, Json)]> {
            match self {
                Json::Object(o) => Some(o),
                _ => None,
            }
        }

        /// Field lookup on an object value; `None` for non-objects.
        pub fn get(&self, key: &str) -> Option<&Json> {
            self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }

        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Array(a) => Some(a),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::String(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Number(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a non-negative integer, rejecting fractions and
        /// negatives (bench stats are nanosecond counts).
        pub fn as_u128(&self) -> Option<u128> {
            match self {
                Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u128),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => parse_string(b, pos).map(Json::String),
            Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
            Some(c) => Err(format!("unexpected {:?} at byte {}", *c as char, *pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let value = parse_value(b, pos)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    let esc = b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = b
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            *pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("unsupported escape \\{}", *other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&b[*pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len()
            && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

fn fmt_ns(ns: u128) -> String {
    let d = Duration::from_nanos(ns as u64);
    if ns >= 1_000_000_000 {
        format!("{:.3}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_stats() {
        let s = bench("noop", 1, 5, || {
            std::hint::black_box(2 + 2);
        });
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.500us");
        assert_eq!(fmt_ns(2_000_000), "2.000ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }

    fn sample(median: u128, min: u128, max: u128) -> Sample {
        Sample { median_ns: median, min_ns: min, max_ns: max }
    }

    #[test]
    fn bench_record_round_trips_through_json() {
        let mut rec = BenchRecord::new("decode");
        rec.push("kv_cache", sample(120, 100, 150));
        rec.push("with \"quotes\" and \\slash", sample(7, 7, 7));
        let parsed = validate_bench_json(&rec.to_json()).expect("round trip validates");
        assert_eq!(parsed.bench, "decode");
        let s = parsed.entry("kv_cache").unwrap();
        assert_eq!((s.median_ns, s.min_ns, s.max_ns), (120, 100, 150));
        assert!(parsed.entry("with \"quotes\" and \\slash").is_some());
        assert!(parsed.entry("missing").is_none());
    }

    #[test]
    fn validator_rejects_schema_violations() {
        let bad = [
            ("not json at all", "literal"),
            ("[1, 2]", "not an object"),
            ("{\"unit\": \"ns\", \"entries\": []}", "\"bench\""),
            ("{\"bench\": \"m\", \"unit\": \"ms\", \"entries\": []}", "unsupported unit"),
            ("{\"bench\": \"m\", \"unit\": \"ns\", \"entries\": []}", "non-empty"),
            ("{\"bench\": \"m\", \"unit\": \"ns\", \"entries\": [{}]}", "\"name\""),
            (
                "{\"bench\": \"m\", \"unit\": \"ns\", \"entries\": [\
                 {\"name\": \"a\", \"median_ns\": 5, \"min_ns\": 9, \"max_ns\": 10}]}",
                "not ordered",
            ),
            (
                "{\"bench\": \"m\", \"unit\": \"ns\", \"entries\": [\
                 {\"name\": \"a\", \"median_ns\": 1.5, \"min_ns\": 1, \"max_ns\": 2}]}",
                "integer",
            ),
            (
                "{\"bench\": \"m\", \"unit\": \"ns\", \"entries\": [\
                 {\"name\": \"a\", \"median_ns\": 1, \"min_ns\": 1, \"max_ns\": 2},\
                 {\"name\": \"a\", \"median_ns\": 1, \"min_ns\": 1, \"max_ns\": 2}]}",
                "duplicate",
            ),
        ];
        for (text, want) in bad {
            let err = validate_bench_json(text).expect_err(text);
            assert!(err.contains(want), "{text}: error {err:?} should mention {want:?}");
        }
    }

    #[test]
    fn derived_metrics_round_trip_and_validate() {
        let mut rec = BenchRecord::new("decode");
        rec.push("kv_cache", sample(1000, 900, 1100));
        rec.push_derived(
            "student_quantized",
            sample(400, 380, 450),
            Derived {
                tokens_per_s: Some(37_500.25),
                speedup_vs: Some(("kv_cache".into(), 2.5)),
            },
        );
        let parsed = validate_bench_json(&rec.to_json()).expect("round trip validates");
        let d = parsed.derived("student_quantized").unwrap();
        assert_eq!(d.tokens_per_s, Some(37_500.25));
        assert_eq!(d.speedup_vs, Some(("kv_cache".to_string(), 2.5)));
        // Plain entries parse back with empty derived metrics.
        assert_eq!(parsed.derived("kv_cache"), Some(&Derived::default()));
    }

    #[test]
    fn derived_metric_violations_are_rejected() {
        let entry = |extra: &str| {
            format!(
                "{{\"bench\": \"d\", \"unit\": \"ns\", \"entries\": [\
                 {{\"name\": \"base\", \"median_ns\": 1, \"min_ns\": 1, \"max_ns\": 2}},\
                 {{\"name\": \"a\", \"median_ns\": 1, \"min_ns\": 1, \"max_ns\": 2{extra}}}]}}"
            )
        };
        let bad = [
            (entry(", \"tokens_per_s\": -5"), "finite and positive"),
            (entry(", \"tokens_per_s\": \"fast\""), "not a number"),
            (entry(", \"speedup_vs\": 3"), "not an object"),
            (entry(", \"speedup_vs\": {\"ratio\": 2}"), "\"name\""),
            (entry(", \"speedup_vs\": {\"name\": \"base\"}"), "\"ratio\""),
            (entry(", \"speedup_vs\": {\"name\": \"base\", \"ratio\": 0}"), "finite and positive"),
            (entry(", \"speedup_vs\": {\"name\": \"ghost\", \"ratio\": 2}"), "unknown entry"),
        ];
        for (text, want) in bad {
            let err = validate_bench_json(&text).expect_err(&text);
            assert!(err.contains(want), "{text}: error {err:?} should mention {want:?}");
        }
    }

    #[test]
    fn distill_validator_enforces_entries_and_student_derived_fields() {
        let full = || {
            let mut rec = BenchRecord::new("distill");
            rec.push("teacher/decode_maxlen", sample(1000, 900, 1100));
            rec.push_derived(
                "student/decode_maxlen",
                sample(400, 380, 450),
                Derived {
                    tokens_per_s: Some(37_500.0),
                    speedup_vs: Some(("teacher/decode_maxlen".into(), 2.5)),
                },
            );
            for name in ["oracle/win", "oracle/tie", "oracle/lose"] {
                rec.push(name, sample(3, 3, 3));
            }
            rec
        };
        assert_eq!(validate_distill_json(&full().to_json()).unwrap().bench, "distill");

        // Dropping any required entry fails, naming the entry.
        for missing in DISTILL_REQUIRED_ENTRIES {
            let mut partial = BenchRecord::new("distill");
            for (name, s, d) in &full().entries {
                if name != missing {
                    partial.push_derived(name.clone(), *s, d.clone());
                }
            }
            // Dropping the teacher entry also invalidates the student's
            // speedup reference — either error is acceptable, but it must
            // not validate.
            assert!(validate_distill_json(&partial.to_json()).is_err(), "{missing}");
        }

        // A student entry without the derived fields is rejected.
        let mut plain = BenchRecord::new("distill");
        for (name, s, _) in &full().entries {
            plain.push(name.clone(), *s);
        }
        let err = validate_distill_json(&plain.to_json()).unwrap_err();
        assert!(err.contains("tokens_per_s"), "{err}");

        // The wrong record name is rejected.
        let mut wrong = full();
        wrong.bench = "decode".into();
        assert!(validate_distill_json(&wrong.to_json()).unwrap_err().contains("distill"));
    }

    #[test]
    fn online_validator_enforces_entries_and_the_trajectory_bar() {
        let full = || {
            let mut rec = BenchRecord::new("online");
            for (day, permille) in [(0u64, 0u128), (1, 120), (2, 180), (3, 180)] {
                rec.push(format!("day{day}/oracle_permille"), sample(permille, permille, permille));
            }
            rec.push("serve/requests_total", sample(96, 96, 96));
            rec.push("serve/harvested_total", sample(40, 40, 40));
            rec.push("swap/epochs_published", sample(3, 3, 3));
            rec.push("swap/swap_failures", sample(0, 0, 0));
            rec
        };
        assert_eq!(validate_online_json(&full().to_json()).unwrap().bench, "online");

        // Dropping any required entry fails, naming the entry.
        for missing in ONLINE_REQUIRED_ENTRIES {
            let mut partial = BenchRecord::new("online");
            for (name, s, _) in &full().entries {
                if name != missing {
                    partial.push(name.clone(), *s);
                }
            }
            let err = validate_online_json(&partial.to_json()).unwrap_err();
            assert!(err.contains(missing), "{missing}: {err}");
        }

        // A day below day 0 is a trajectory regression — even an *extra*
        // day beyond the required four.
        let mut dipped = full();
        dipped.push("day4/oracle_permille", sample(0, 0, 0));
        let mut day0_high = BenchRecord::new("online");
        for (name, s, _) in &dipped.entries {
            let s = if name == "day0/oracle_permille" { sample(50, 50, 50) } else { *s };
            day0_high.push(name.clone(), s);
        }
        let err = validate_online_json(&day0_high.to_json()).unwrap_err();
        assert!(err.contains("day4") && err.contains("regressed"), "{err}");

        // The wrong record name is rejected.
        let mut wrong = full();
        wrong.bench = "serve".into();
        assert!(validate_online_json(&wrong.to_json()).unwrap_err().contains("online"));
    }

    #[test]
    fn median_regression_guard_flags_slowdowns_and_dropped_entries() {
        let mut committed = BenchRecord::new("decode");
        committed.push("kv_cache", sample(1000, 900, 1100));
        committed.push("hybrid", sample(2000, 1900, 2100));

        // Within tolerance (+20% exactly) and a brand-new entry: fine.
        let mut ok = BenchRecord::new("decode");
        ok.push("kv_cache", sample(1200, 1100, 1300));
        ok.push("hybrid", sample(1500, 1400, 1600));
        ok.push("student_quantized", sample(400, 380, 450));
        assert!(median_regressions(&committed, &ok, 0.20).is_ok());

        // A >20% slowdown on a shared entry is named in the error.
        let mut slow = BenchRecord::new("decode");
        slow.push("kv_cache", sample(1201, 1100, 1300));
        slow.push("hybrid", sample(2000, 1900, 2100));
        let err = median_regressions(&committed, &slow, 0.20).unwrap_err();
        assert!(err.contains("kv_cache"), "{err}");
        assert!(!err.contains("hybrid"), "{err}");

        // An entry missing from the fresh run is a regression too.
        let mut dropped = BenchRecord::new("decode");
        dropped.push("kv_cache", sample(1000, 900, 1100));
        let err = median_regressions(&committed, &dropped, 0.20).unwrap_err();
        assert!(err.contains("disappeared"), "{err}");
    }

    #[test]
    fn mutate_validator_enforces_the_required_entry_set() {
        let mut rec = BenchRecord::new("mutate");
        for name in MUTATE_REQUIRED_ENTRIES {
            rec.push(name, sample(2, 1, 3));
        }
        rec.push("extra/allowed", sample(1, 1, 1));
        let parsed = validate_mutate_json(&rec.to_json()).expect("full record validates");
        assert_eq!(parsed.bench, "mutate");

        // Dropping any required entry fails, naming the entry.
        for missing in MUTATE_REQUIRED_ENTRIES {
            let mut partial = BenchRecord::new("mutate");
            for name in MUTATE_REQUIRED_ENTRIES.iter().filter(|n| **n != missing) {
                partial.push(*name, sample(1, 1, 1));
            }
            let err = validate_mutate_json(&partial.to_json()).expect_err(missing);
            assert!(err.contains(missing), "error {err:?} should name {missing:?}");
        }

        // A valid bench record under the wrong name is rejected.
        let mut wrong = BenchRecord::new("serve");
        wrong.push("frozen/serve_ns_per_req", sample(1, 1, 1));
        assert!(validate_mutate_json(&wrong.to_json()).unwrap_err().contains("mutate"));
    }

    #[test]
    fn shard_validator_enforces_the_required_entry_set() {
        let mut rec = BenchRecord::new("serve");
        for name in SHARD_REQUIRED_ENTRIES {
            rec.push(name, sample(2, 1, 3));
        }
        // The load-generation sections and the full-sweep shard counts
        // ride along as extras.
        rec.push("tail/sequential_ns_per_req", sample(5, 4, 6));
        rec.push("shard_scaling/s8_ns_per_req", sample(2, 1, 3));
        let parsed = validate_shard_json(&rec.to_json()).expect("full record validates");
        assert_eq!(parsed.bench, "serve");

        for missing in SHARD_REQUIRED_ENTRIES {
            let mut partial = BenchRecord::new("serve");
            for name in SHARD_REQUIRED_ENTRIES.iter().filter(|n| **n != missing) {
                partial.push(*name, sample(1, 1, 1));
            }
            let err = validate_shard_json(&partial.to_json()).expect_err(missing);
            assert!(err.contains(missing), "error {err:?} should name {missing:?}");
        }

        let mut wrong = BenchRecord::new("mutate");
        for name in SHARD_REQUIRED_ENTRIES {
            wrong.push(name, sample(1, 1, 1));
        }
        assert!(validate_shard_json(&wrong.to_json()).unwrap_err().contains("serve"));
    }

    #[test]
    fn sched_validator_enforces_entries_and_the_virtual_p99_bar() {
        let full = || {
            let mut rec = BenchRecord::new("serve");
            for (name, v) in [
                ("sched_scaling/s1_ns_per_req", 900u128),
                ("sched_scaling/s2_ns_per_req", 700),
                ("sched_scaling/s4_ns_per_req", 600),
                ("sched_scaling/s1_p99_vcost", 400),
                ("sched_scaling/s2_p99_vcost", 220),
                ("sched_scaling/s4_p99_vcost", 130),
            ] {
                rec.push(name, sample(v, v, v));
            }
            rec.push("tail/sequential_ns_per_req", sample(5, 4, 6));
            rec
        };
        assert_eq!(validate_sched_json(&full().to_json()).unwrap().bench, "serve");

        // Dropping any required entry fails, naming the entry.
        for missing in SCHED_REQUIRED_ENTRIES {
            let mut partial = BenchRecord::new("serve");
            for (name, s, _) in &full().entries {
                if name != missing {
                    partial.push(name.clone(), *s);
                }
            }
            let err = validate_sched_json(&partial.to_json()).expect_err(missing);
            assert!(err.contains(missing), "error {err:?} should name {missing:?}");
        }

        // The scaling bar is re-enforced at read time: virtual p99 at 4
        // shards above 1 shard rejects even a schema-complete record.
        let mut regressed = BenchRecord::new("serve");
        for (name, s, _) in &full().entries {
            let s = if name == "sched_scaling/s4_p99_vcost" { sample(401, 401, 401) } else { *s };
            regressed.push(name.clone(), s);
        }
        let err = validate_sched_json(&regressed.to_json()).unwrap_err();
        assert!(err.contains("regressed"), "{err}");

        // The wrong record name is rejected.
        let mut wrong = full();
        wrong.bench = "sched".into();
        assert!(validate_sched_json(&wrong.to_json()).unwrap_err().contains("serve"));
    }

    #[test]
    fn curve_json_round_trips_sentinel_counters_bitwise() {
        use qrw_core::{CurvePoint, TrainingCurve};
        let curve = TrainingCurve {
            points: vec![
                CurvePoint {
                    step: 3,
                    ppl_q2t: 12.062_513,
                    ppl_t2q: 9.875_001,
                    log_prob: -4.331_7,
                    accuracy: 0.25,
                    skipped_steps: 0,
                    rollbacks: 0,
                    nan_grad_events: 0,
                },
                CurvePoint {
                    step: 6,
                    ppl_q2t: 7.5,
                    ppl_t2q: f32::NAN, // a divergent eval: emitted as null
                    log_prob: -3.0,
                    accuracy: 0.5,
                    skipped_steps: 2,
                    rollbacks: 1,
                    nan_grad_events: 3,
                },
            ],
        };
        let text = curve_to_json("train_resume", &curve);
        let (name, parsed) = validate_curve_json(&text).expect("round trip validates");
        assert_eq!(name, "train_resume");
        assert_eq!(parsed.points.len(), 2);
        // Finite floats survive bit-for-bit (shortest-round-trip format).
        let (a, b) = (&curve.points[0], &parsed.points[0]);
        assert_eq!(a.ppl_q2t.to_bits(), b.ppl_q2t.to_bits());
        assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
        // The sentinel counters are required fields and survive exactly.
        let p6 = &parsed.points[1];
        assert_eq!(
            (p6.skipped_steps, p6.rollbacks, p6.nan_grad_events),
            (2, 1, 3)
        );
        assert!(p6.ppl_t2q.is_nan());
    }

    #[test]
    fn curve_validator_rejects_missing_sentinel_counters() {
        // A point without the counters must not validate: downstream
        // tooling relies on their presence.
        let text = "{\"curve\": \"c\", \"points\": [\
                    {\"step\": 1, \"ppl_q2t\": 1, \"ppl_t2q\": 1, \
                     \"log_prob\": -1, \"accuracy\": 0}]}";
        let err = validate_curve_json(text).unwrap_err();
        assert!(err.contains("skipped_steps"), "{err}");
    }

    #[test]
    fn trace_jsonl_from_a_real_tracer_validates() {
        let t = qrw_obs::Tracer::logical();
        let root = t.span(7, None, "serve");
        let mut rung = t.span(7, Some(root.id()), "rung_cache");
        rung.attr("outcome", "served");
        rung.finish();
        root.finish();
        t.span(7, None, "served").finish();
        let lines = validate_trace_jsonl(&t.export_jsonl()).expect("export validates");
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].name, "serve");
        assert_eq!(lines[1].parent, Some(lines[0].span));
        assert!(lines.iter().all(|l| l.trace == 7 && l.start_us <= l.end_us));
    }

    #[test]
    fn trace_jsonl_validator_rejects_malformed_lines() {
        let ok = "{\"trace\":1,\"span\":2,\"parent\":null,\"name\":\"a\",\
                  \"start_us\":1,\"end_us\":2,\"attrs\":{}}";
        assert_eq!(validate_trace_jsonl(ok).unwrap().len(), 1);
        // Blank lines are tolerated; each error names its line.
        assert_eq!(validate_trace_jsonl(&format!("\n{ok}\n\n")).unwrap().len(), 1);
        let bad = [
            ("not json", "line 1"),
            ("[1]", "not an object"),
            (
                "{\"trace\":1,\"span\":2,\"parent\":null,\
                 \"start_us\":1,\"end_us\":2,\"attrs\":{}}",
                "\"name\"",
            ),
            (
                "{\"trace\":1,\"span\":2,\"parent\":null,\"name\":\"\",\
                 \"start_us\":1,\"end_us\":2,\"attrs\":{}}",
                "non-empty",
            ),
            (
                "{\"trace\":1,\"span\":2,\"name\":\"a\",\
                 \"start_us\":1,\"end_us\":2,\"attrs\":{}}",
                "\"parent\"",
            ),
            (
                "{\"trace\":1,\"span\":2,\"parent\":null,\"name\":\"a\",\
                 \"start_us\":5,\"end_us\":2,\"attrs\":{}}",
                "end_us",
            ),
            (
                "{\"trace\":1,\"span\":2,\"parent\":null,\"name\":\"a\",\
                 \"start_us\":1,\"end_us\":2}",
                "\"attrs\"",
            ),
        ];
        for (text, want) in bad {
            let err = validate_trace_jsonl(text).expect_err(text);
            assert!(err.contains(want), "{text}: error {err:?} should mention {want:?}");
        }
        let dup = format!(
            "{ok}\n{}",
            ok.replace("\"trace\":1", "\"trace\":9")
        );
        assert!(validate_trace_jsonl(&dup).unwrap_err().contains("duplicate span id"));
    }

    #[test]
    fn write_validated_persists_and_rereads() {
        let mut rec = BenchRecord::new("matmul");
        rec.push("blocked_64", sample(10, 9, 12));
        let dir = std::env::temp_dir().join(format!("qrw_bench_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_matmul.json");
        let reread = rec.write_validated(&path).expect("write + validate");
        assert_eq!(reread.entry("blocked_64").unwrap().median_ns, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_push_panics() {
        let result = std::panic::catch_unwind(|| {
            let mut rec = BenchRecord::new("x");
            rec.push("a", sample(1, 1, 1));
            rec.push("a", sample(2, 2, 2));
        });
        assert!(result.is_err());
    }
}
