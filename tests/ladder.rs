//! Characterization of the degradation ladder's three model rungs
//! (student, online, baseline), one table row per rung × outcome.
//!
//! Each row serves one request on a fresh engine and pins everything the
//! rung routine may touch: the response's `rewrite_source` and
//! `degradations` sequence, the `outcome` attribute of every `rung_*`
//! span, the online breaker's state and open count, and the health
//! counters — per-rung serves, degradation causes, and which decode block
//! (the online model's `decode_*` or the student's `student_*`) the
//! rung's decode work lands in. Budgets run on the synthetic clock, so the
//! decode blocks' `*_micros` are exactly zero and every counter is
//! deterministic.

use std::sync::Arc;
use std::time::Duration;

use cycle_rewrite::core::{thread_decode_stats, DecodeStats};
use cycle_rewrite::obs::Tracer;
use cycle_rewrite::prelude::*;
use cycle_rewrite::search::{Clock, HealthReport, RewriteSource, Stage};

fn toks(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

/// The four-doc corpus of `tests/resilience.rs`, traced on a logical
/// clock.
fn engine() -> SearchEngine {
    SearchEngine::new(InvertedIndex::build(vec![
        toks("senior smartphone black official"),
        toks("smartphone golden new"),
        toks("sneaker red sale"),
        toks("senior handset classic"),
    ]))
    .with_tracer(Tracer::logical())
}

/// A tiny real q2q model: calling it moves this thread's decode counters,
/// which is what the rung routine snapshots around each call.
fn decoder() -> Q2QRewriter<Seq2Seq> {
    let mut vocab = Vocab::new();
    for i in 0..12 {
        vocab.insert(&format!("t{i}"));
    }
    let model = Seq2Seq::new(ModelConfig::tiny_transformer(16), 33);
    Q2QRewriter::new(Arc::new(model), Arc::new(vocab), 6, 9)
}

#[derive(Clone, Copy)]
enum Answer {
    Served,
    Empty,
    Panic,
}

/// A rewriter with a scripted answer. With `decode`, it first runs the
/// tiny model on the query (and reports decode telemetry), so the rung's
/// decode block moves by one known delta.
struct Probe {
    name: &'static str,
    decode: Option<Q2QRewriter<Seq2Seq>>,
    answer: Answer,
}

impl Probe {
    fn new(name: &'static str, answer: Answer) -> Self {
        Probe { name, decode: Some(decoder()), answer }
    }
}

impl QueryRewriter for Probe {
    fn rewrite(&self, query: &[String], k: usize) -> Vec<Vec<String>> {
        if let Some(d) = &self.decode {
            d.rewrite(query, k);
        }
        match self.answer {
            Answer::Served => vec![toks("senior smartphone")],
            Answer::Empty => Vec::new(),
            Answer::Panic => panic!("probe rewriter panic"),
        }
    }
    fn name(&self) -> &str {
        self.name
    }
    fn decode_stats(&self) -> Option<DecodeStats> {
        self.decode.as_ref().and_then(|d| d.decode_stats())
    }
}

/// The decode work one probe call does on `query`.
fn probe_delta(query: &[String]) -> DecodeStats {
    let d = decoder();
    let before = thread_decode_stats();
    d.rewrite(query, ServingConfig::default().max_rewrites);
    thread_decode_stats().since(&before)
}

/// The health counters a rung may move, as a difference of two reports.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counters {
    served: [u64; 5],
    empty_outputs: u64,
    panics_caught: u64,
    model_errors: u64,
    deadline_exceeded: u64,
    breaker_rejections: u64,
    /// `decode_{steps, tokens, cache_hits, micros}`.
    decode: [u64; 4],
    /// `student_{steps, tokens, cache_hits, micros}`.
    student: [u64; 4],
}

impl Counters {
    fn of(r: &HealthReport) -> [u64; 19] {
        [
            r.served_cache,
            r.served_student,
            r.served_online,
            r.served_baseline,
            r.served_raw,
            r.empty_outputs,
            r.panics_caught,
            r.model_errors,
            r.deadline_exceeded,
            r.breaker_rejections,
            r.decode_steps,
            r.decode_tokens,
            r.decode_cache_hits,
            r.decode_micros,
            r.student_steps,
            r.student_tokens,
            r.student_cache_hits,
            r.student_micros,
            r.requests,
        ]
    }

    fn delta(before: &HealthReport, after: &HealthReport) -> Self {
        let (b, a) = (Self::of(before), Self::of(after));
        let d: Vec<u64> = a.iter().zip(b).map(|(a, b)| a - b).collect();
        assert_eq!(d[18], 1, "one request per case");
        Counters {
            served: [d[0], d[1], d[2], d[3], d[4]],
            empty_outputs: d[5],
            panics_caught: d[6],
            model_errors: d[7],
            deadline_exceeded: d[8],
            breaker_rejections: d[9],
            decode: [d[10], d[11], d[12], d[13]],
            student: [d[14], d[15], d[16], d[17]],
        }
    }
}

/// Which rung of the ladder a probe sits on.
#[derive(Clone, Copy, Debug)]
enum Rung {
    Student,
    Online,
    Baseline,
}

/// How the case's budget and faults are set up.
#[derive(Clone, Copy, Debug)]
enum Setup {
    Healthy,
    /// The budget is spent before the ladder starts.
    ExpiredBudget,
    /// Every online call draws this fault; the budget is 1 s.
    Fault(Fault),
    /// Three failing online requests open the breaker first.
    BreakerOpened,
}

struct Case {
    label: &'static str,
    rung: Rung,
    answer: Answer,
    setup: Setup,
    source: RewriteSource,
    degradations: Vec<ServeError>,
    /// `(span name, outcome)` of every `rung_*` span, in order.
    spans: Vec<(&'static str, &'static str)>,
    breaker: (BreakerState, u64),
    /// Expected counters, with the decode blocks filled in by `run`.
    counters: Counters,
    /// Which decode block the probe's work lands in, if any.
    decode_block: Option<Rung>,
}

const PROBE: &str = "probe";
const BASELINE: &str = "fixed-baseline";

fn served(source: RewriteSource) -> [u64; 5] {
    let mut s = [0; 5];
    let i = match source {
        RewriteSource::Cache => 0,
        RewriteSource::Student => 1,
        RewriteSource::Fallback => 2,
        RewriteSource::Baseline => 3,
        RewriteSource::None => 4,
    };
    s[i] = 1;
    s
}

fn run(case: Case) {
    let query = toks("phone for grandpa");
    let cfg = ServingConfig::default();
    let e = engine();
    let probe = Probe::new(PROBE, case.answer);
    let fixed_baseline = FixedRewriter(vec![toks("senior handset")]);
    // A healthy fixed baseline sits below a student or online probe.
    let mut ladder = RewriteLadder { baseline: Some(&fixed_baseline), ..Default::default() };
    match case.rung {
        Rung::Student => ladder.student = Some(&probe),
        Rung::Online => ladder.online = Some(&probe),
        Rung::Baseline => ladder.baseline = Some(&probe),
    }

    let synthetic = |total: Option<Duration>| DeadlineBudget::with_clock(Clock::synthetic(), total);
    let injector = match case.setup {
        Setup::Fault(f) => Some(Faults::new(11).always(Site::Rewriter, f)),
        _ => None,
    };
    if let Setup::BreakerOpened = case.setup {
        let broken = Faults::new(7).always(Site::Rewriter, Fault::ModelError);
        let only_online = RewriteLadder { online: Some(&probe), ..Default::default() };
        for _ in 0..3 {
            e.search_resilient(&query, only_online, &cfg, &synthetic(None), Some(&broken));
        }
        assert_eq!(e.breaker().state(), BreakerState::Open, "{}", case.label);
    }
    let budget = match case.setup {
        Setup::ExpiredBudget => {
            let b = synthetic(Some(Duration::from_millis(10)));
            b.charge(Duration::from_millis(20));
            b
        }
        Setup::Fault(_) => synthetic(Some(Duration::from_secs(1))),
        Setup::Healthy | Setup::BreakerOpened => synthetic(None),
    };

    let tracer = e.tracer().expect("traced engine");
    tracer.clear();
    let before = e.health_report();
    let resp = e.search_resilient(&query, ladder, &cfg, &budget, injector.as_ref());
    let after = e.health_report();

    assert_eq!(resp.rewrite_source, case.source, "{}: source", case.label);
    assert_eq!(resp.degradations, case.degradations, "{}: degradations", case.label);
    let records = tracer.snapshot();
    let spans: Vec<(&str, &str)> = records
        .iter()
        .filter(|s| s.name.starts_with("rung_"))
        .map(|s| (s.name, s.attr("outcome").and_then(|v| v.as_str()).unwrap_or("-")))
        .collect();
    assert_eq!(spans, case.spans, "{}: rung spans", case.label);
    assert_eq!((after.breaker_state, after.breaker_opens), case.breaker, "{}: breaker", case.label);

    let mut expected = case.counters;
    let delta = probe_delta(&query);
    let block = [delta.steps, delta.tokens, delta.cache_hits, 0];
    match case.decode_block {
        Some(Rung::Student) => expected.student = block,
        Some(Rung::Online) => expected.decode = block,
        Some(Rung::Baseline) => unreachable!("the baseline feeds no decode block"),
        None => {}
    }
    assert!(delta.steps > 0, "the probe model must decode");
    assert_eq!(Counters::delta(&before, &after), expected, "{}: counters", case.label);
}

struct FixedRewriter(Vec<Vec<String>>);

impl QueryRewriter for FixedRewriter {
    fn rewrite(&self, _query: &[String], k: usize) -> Vec<Vec<String>> {
        self.0.iter().take(k).cloned().collect()
    }
    fn name(&self) -> &str {
        BASELINE
    }
}

fn empty(rewriter: &str) -> ServeError {
    ServeError::EmptyOutput { rewriter: rewriter.to_string() }
}

fn panicked(rewriter: &str) -> ServeError {
    ServeError::ModelPanic { rewriter: rewriter.to_string() }
}

const REWRITE_DEADLINE: ServeError = ServeError::DeadlineExceeded { stage: Stage::Rewrite };
const RANK_DEADLINE: ServeError = ServeError::DeadlineExceeded { stage: Stage::Rank };
const CLOSED: (BreakerState, u64) = (BreakerState::Closed, 0);

#[test]
fn student_rung_outcomes() {
    use RewriteSource::{Baseline, Student};
    let rows = [
        Case {
            label: "student served",
            rung: Rung::Student,
            answer: Answer::Served,
            setup: Setup::Healthy,
            source: Student,
            degradations: vec![],
            spans: vec![("rung_student", "served")],
            breaker: CLOSED,
            counters: Counters { served: served(Student), ..Default::default() },
            decode_block: Some(Rung::Student),
        },
        Case {
            label: "student empty",
            rung: Rung::Student,
            answer: Answer::Empty,
            setup: Setup::Healthy,
            source: Baseline,
            degradations: vec![empty(PROBE)],
            spans: vec![("rung_student", "empty"), ("rung_baseline", "served")],
            breaker: CLOSED,
            counters: Counters { served: served(Baseline), empty_outputs: 1, ..Default::default() },
            decode_block: Some(Rung::Student),
        },
        Case {
            label: "student panic",
            rung: Rung::Student,
            answer: Answer::Panic,
            setup: Setup::Healthy,
            source: Baseline,
            degradations: vec![panicked(PROBE)],
            spans: vec![("rung_student", "panic"), ("rung_baseline", "served")],
            breaker: CLOSED,
            counters: Counters { served: served(Baseline), panics_caught: 1, ..Default::default() },
            decode_block: Some(Rung::Student),
        },
        Case {
            label: "student deadline",
            rung: Rung::Student,
            answer: Answer::Served,
            setup: Setup::ExpiredBudget,
            source: Baseline,
            degradations: vec![REWRITE_DEADLINE, RANK_DEADLINE],
            spans: vec![("rung_student", "deadline"), ("rung_baseline", "served")],
            breaker: CLOSED,
            counters: Counters {
                served: served(Baseline),
                deadline_exceeded: 2,
                ..Default::default()
            },
            decode_block: None,
        },
    ];
    rows.into_iter().for_each(run);
}

#[test]
fn online_rung_outcomes() {
    use RewriteSource::{Baseline, Fallback};
    let rows = [
        Case {
            label: "online served",
            rung: Rung::Online,
            answer: Answer::Served,
            setup: Setup::Healthy,
            source: Fallback,
            degradations: vec![],
            spans: vec![("rung_online", "served")],
            breaker: CLOSED,
            counters: Counters { served: served(Fallback), ..Default::default() },
            decode_block: Some(Rung::Online),
        },
        Case {
            label: "online empty",
            rung: Rung::Online,
            answer: Answer::Empty,
            setup: Setup::Healthy,
            source: Baseline,
            degradations: vec![empty(PROBE)],
            spans: vec![("rung_online", "empty"), ("rung_baseline", "served")],
            breaker: CLOSED,
            counters: Counters { served: served(Baseline), empty_outputs: 1, ..Default::default() },
            decode_block: Some(Rung::Online),
        },
        Case {
            // The injected error fires before the model runs: the decode
            // snapshot is still taken, and records an all-zero delta.
            label: "online error",
            rung: Rung::Online,
            answer: Answer::Served,
            setup: Setup::Fault(Fault::ModelError),
            source: Baseline,
            degradations: vec![ServeError::ModelError { rewriter: PROBE.to_string() }],
            spans: vec![("rung_online", "error"), ("rung_baseline", "served")],
            breaker: CLOSED,
            counters: Counters { served: served(Baseline), model_errors: 1, ..Default::default() },
            decode_block: None,
        },
        Case {
            label: "online panic",
            rung: Rung::Online,
            answer: Answer::Panic,
            setup: Setup::Healthy,
            source: Baseline,
            degradations: vec![panicked(PROBE)],
            spans: vec![("rung_online", "panic"), ("rung_baseline", "served")],
            breaker: CLOSED,
            counters: Counters { served: served(Baseline), panics_caught: 1, ..Default::default() },
            decode_block: Some(Rung::Online),
        },
        Case {
            label: "online deadline before the call",
            rung: Rung::Online,
            answer: Answer::Served,
            setup: Setup::ExpiredBudget,
            source: Baseline,
            degradations: vec![REWRITE_DEADLINE, RANK_DEADLINE],
            spans: vec![("rung_online", "deadline"), ("rung_baseline", "served")],
            breaker: CLOSED,
            counters: Counters {
                served: served(Baseline),
                deadline_exceeded: 2,
                ..Default::default()
            },
            decode_block: None,
        },
        Case {
            label: "online deadline after a latency spike",
            rung: Rung::Online,
            answer: Answer::Served,
            setup: Setup::Fault(Fault::Latency(Duration::from_secs(10))),
            source: Baseline,
            degradations: vec![REWRITE_DEADLINE, RANK_DEADLINE],
            spans: vec![("rung_online", "deadline"), ("rung_baseline", "served")],
            breaker: CLOSED,
            counters: Counters {
                served: served(Baseline),
                deadline_exceeded: 2,
                ..Default::default()
            },
            decode_block: None,
        },
        Case {
            label: "online breaker_open",
            rung: Rung::Online,
            answer: Answer::Served,
            setup: Setup::BreakerOpened,
            source: Baseline,
            degradations: vec![ServeError::BreakerOpen],
            spans: vec![("rung_online", "breaker_open"), ("rung_baseline", "served")],
            breaker: (BreakerState::Open, 1),
            counters: Counters {
                served: served(Baseline),
                breaker_rejections: 1,
                ..Default::default()
            },
            decode_block: None,
        },
    ];
    rows.into_iter().for_each(run);
}

#[test]
fn baseline_rung_outcomes() {
    use RewriteSource::Baseline;
    let rows = [
        Case {
            // The baseline probe decodes too, but the baseline rung feeds
            // no decode block.
            label: "baseline served",
            rung: Rung::Baseline,
            answer: Answer::Served,
            setup: Setup::Healthy,
            source: Baseline,
            degradations: vec![],
            spans: vec![("rung_baseline", "served")],
            breaker: CLOSED,
            counters: Counters { served: served(Baseline), ..Default::default() },
            decode_block: None,
        },
        Case {
            label: "baseline empty",
            rung: Rung::Baseline,
            answer: Answer::Empty,
            setup: Setup::Healthy,
            source: RewriteSource::None,
            degradations: vec![empty(PROBE)],
            spans: vec![("rung_baseline", "empty"), ("rung_raw", "-")],
            breaker: CLOSED,
            counters: Counters {
                served: served(RewriteSource::None),
                empty_outputs: 1,
                ..Default::default()
            },
            decode_block: None,
        },
        Case {
            label: "baseline panic",
            rung: Rung::Baseline,
            answer: Answer::Panic,
            setup: Setup::Healthy,
            source: RewriteSource::None,
            degradations: vec![panicked(PROBE)],
            spans: vec![("rung_baseline", "panic"), ("rung_raw", "-")],
            breaker: CLOSED,
            counters: Counters {
                served: served(RewriteSource::None),
                panics_caught: 1,
                ..Default::default()
            },
            decode_block: None,
        },
    ];
    rows.into_iter().for_each(run);
}
