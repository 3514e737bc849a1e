//! The three serving workloads: the `qrw-serve` runtime in front of the
//! `qrw-search` ladder, retrieval and ranking, with the `qrw-nmt` decoders
//! as the online rungs.
//!
//! One run: set up (several times, for `setup_s`), an untimed warm-up, an
//! open loop at the workload's fixed offered rate, repeated drains of a
//! pre-submitted set for capacity, and finally the correctness oracle over
//! every response the run produced. The traced run replaces the timed
//! phases with sequential replays and a traced runtime pass.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qrw_core::{train_q2q, Q2QTrainConfig, QueryRewriter};
use qrw_nmt::{ModelConfig, QuantStudent, Seq2Seq};
use qrw_obs::{ObsClock, Tracer};
use qrw_online::ContextQ2Q;
use qrw_search::segment::replay;
use qrw_search::{
    CacheScope, CatalogWriter, DeadlineBudget, IndexSnapshot, InvertedIndex, ModelStore,
    MutationBatch, RewriteCache, RewriteLadder, SearchEngine, SearchResponse, Segment,
    ServingConfig, SessionState, SharedRewriter, SnapshotStore,
};
use qrw_serve::{
    BatchedQ2Q, Outcome, Runtime, RuntimeConfig, ServeStack, ServedRecord, StudentOnline,
};
use qrw_tensor::serialize;

use crate::layers::{aggregate, attr_sum, dur, print_self_times, CallStats, Calls, Timed};
use crate::measure::{self, allocs, cpu_time, fnv1a, median, quantile, Metric, Report};
use crate::traffic::{sub_seed, World};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    HeadRetrieve,
    TailDecode,
    LiveSession,
}

/// A serving workload's fixed settings. The offered rate sits near a third
/// of the drain capacity measured when the benchmark was defined, and the
/// latency limit near ten times the open-loop median then (see NOTES.md).
pub struct Spec {
    pub kind: Kind,
    pub rate_rps: f64,
    pub slo_us: f64,
    /// Catalog documents served (head_retrieve and live_session replicate
    /// the item titles to this size; tail_decode serves the titles as is).
    pub docs: usize,
    /// Requests per capacity drain.
    pub drain_requests: usize,
}

pub const HEAD_RETRIEVE: Spec = Spec {
    kind: Kind::HeadRetrieve,
    rate_rps: 3000.0,
    slo_us: 2000.0,
    docs: 30_000,
    drain_requests: 2000,
};

pub const TAIL_DECODE: Spec = Spec {
    kind: Kind::TailDecode,
    rate_rps: 2400.0,
    slo_us: 2500.0,
    docs: 0,
    drain_requests: 3000,
};

pub const LIVE_SESSION: Spec = Spec {
    kind: Kind::LiveSession,
    rate_rps: 600.0,
    slo_us: 8000.0,
    docs: 20_000,
    drain_requests: 600,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The open loop runs in this many rounds, each followed by one capacity
/// drain.
const ROUNDS: usize = 10;
/// Requests in the untimed warm-up pass.
const WARMUP_REQUESTS: usize = 400;
/// q2q training budget of the serving teacher.
const Q2Q_STEPS: u64 = 60;
/// Extra steps that turn model epoch A into epoch B (live_session).
const EPOCH_B_STEPS: u64 = 30;
const TOP_N: usize = 8;
const REWRITE_SEED: u64 = 7;
const MODEL_SEED: u64 = 41;
const TRAIN_SEED: u64 = 131;
/// live_session churn: one mutation batch per interval, one model publish
/// per interval.
const WRITE_INTERVAL: Duration = Duration::from_millis(1000);
const PUBLISH_INTERVAL: Duration = Duration::from_millis(500);
/// Sequential replay size in the traced run.
const REPLAY_REQUESTS: usize = 1500;
/// Share of the sequential serve time the layers' spans must cover in the
/// traced replay: what they leave out is the engine's own glue (query
/// sanitising, rewrite cleaning, health counters, response assembly).
const MIN_COVERAGE: f64 = 0.80;

/// One worker over two scheduler shards, so routing and stealing still run
/// while runnable threads stay within two cores. Batches dispatch as soon
/// as something is queued (`max_wait_ticks: 0`): with the default two-tick
/// wait for a partial batch to fill, the open-loop median moved 2× between
/// runs of identical code with the host's timer latency (see NOTES.md).
fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        queue_capacity: 8192,
        workers: 1,
        shards: 2,
        max_wait_ticks: 0,
        ..RuntimeConfig::default()
    }
}

#[derive(Clone)]
struct Request {
    query: Vec<String>,
    context: Vec<Vec<String>>,
}

/// The mutable live-catalog side of live_session.
struct Live {
    store: Arc<SnapshotStore>,
    writer: CatalogWriter,
    base_docs: Vec<Vec<String>>,
    batches: Vec<MutationBatch>,
    applied: usize,
}

/// Everything one set-up builds.
struct Stack {
    world: World,
    engine: Arc<SearchEngine>,
    cache: Arc<RewriteCache>,
    student: Option<Arc<StudentOnline>>,
    online: Option<Arc<BatchedQ2Q>>,
    models: Option<Arc<ModelStore>>,
    /// The two model epochs the store alternates: epoch `m` serves
    /// `epochs[(m - 1) % 2]`.
    epochs: Vec<SharedRewriter>,
    /// The same epochs without timing wrappers.
    plain_epochs: Vec<SharedRewriter>,
    live: Option<Live>,
}

impl Stack {
    fn serve_stack(&self, engine: Arc<SearchEngine>) -> ServeStack {
        ServeStack {
            engine,
            cache: Some(Arc::clone(&self.cache)),
            student: self.student.clone(),
            online: self.online.clone(),
            baseline: None,
            models: self.models.clone(),
        }
    }

    fn pool(&self, spec: &Spec) -> std::ops::Range<usize> {
        match spec.kind {
            Kind::TailDecode => self.world.tail(),
            _ => 0..self.world.queries.len(),
        }
    }

    fn requests(&self, spec: &Spec, n: usize, seed: u64) -> Vec<Request> {
        match spec.kind {
            Kind::LiveSession => self
                .world
                .session_requests(n, seed)
                .into_iter()
                .map(|(query, context)| Request { query, context })
                .collect(),
            _ => self
                .world
                .draw(self.pool(spec), n, seed)
                .into_iter()
                .map(|query| Request {
                    query,
                    context: Vec::new(),
                })
                .collect(),
        }
    }
}

fn train_teacher(world: &World, steps: u64, seed: u64, model: &Seq2Seq) {
    let pairs = &world.dataset.q2q;
    assert!(pairs.len() >= 4, "click log mined too few q2q pairs");
    let config = Q2QTrainConfig {
        steps,
        batch_size: 8,
        eval_every: 0,
        seed,
        ..Q2QTrainConfig::default()
    };
    train_q2q(model, pairs, &pairs[..4], &config);
}

/// Builds the workload's stack; the run seed only picks live_session's
/// churn stream. `teacher_stats`, when given, wraps live_session's model
/// epochs in timing wrappers.
fn setup(spec: &Spec, seed: u64, teacher_stats: Option<&Arc<CallStats>>) -> Stack {
    let world = World::generate();
    let config = ModelConfig::tiny_transformer(world.vocab.len());
    let teacher = Seq2Seq::new(config.clone(), MODEL_SEED);
    train_teacher(&world, Q2Q_STEPS, TRAIN_SEED, &teacher);

    // Epoch B continues training a copy of epoch A.
    let epoch_b = (spec.kind == Kind::LiveSession).then(|| {
        let b = Seq2Seq::new(config.clone(), MODEL_SEED);
        serialize::load(b.params(), &serialize::save(teacher.params())).expect("same architecture");
        train_teacher(&world, EPOCH_B_STEPS, TRAIN_SEED + 1, &b);
        Arc::new(b)
    });
    let teacher = Arc::new(teacher);
    let online = Arc::new(BatchedQ2Q::new(
        Arc::clone(&teacher),
        Arc::clone(&world.vocab),
        TOP_N,
        REWRITE_SEED,
    ));

    // The head half of the distinct queries is precomputed by the teacher.
    let max_rewrites = ServingConfig::default().max_rewrites;
    let cache = Arc::new(RewriteCache::new());
    for q in &world.queries[world.head()] {
        cache.insert(q, online.rewrite(q, max_rewrites));
    }

    match spec.kind {
        Kind::HeadRetrieve | Kind::TailDecode => {
            let docs = match spec.kind {
                Kind::HeadRetrieve => world.replicated_catalog(spec.docs),
                _ => world.titles(),
            };
            let engine = Arc::new(SearchEngine::new(InvertedIndex::build(docs)));
            let quant =
                QuantStudent::from_seq2seq(&teacher).expect("teacher is a pure transformer");
            let student = Arc::new(StudentOnline::new(
                Arc::new(quant),
                Arc::clone(&world.vocab),
                TOP_N,
                REWRITE_SEED,
            ));
            Stack {
                world,
                engine,
                cache,
                student: Some(student),
                online: Some(online),
                models: None,
                epochs: Vec::new(),
                plain_epochs: Vec::new(),
                live: None,
            }
        }
        Kind::LiveSession => {
            let plain_epochs: Vec<SharedRewriter> =
                [teacher, epoch_b.expect("live builds epoch B")]
                    .into_iter()
                    .map(|m| {
                        Arc::new(ContextQ2Q::new(
                            m,
                            Arc::clone(&world.vocab),
                            TOP_N,
                            REWRITE_SEED,
                        )) as SharedRewriter
                    })
                    .collect();
            let epochs: Vec<SharedRewriter> = match teacher_stats {
                Some(stats) => plain_epochs
                    .iter()
                    .map(|rw| {
                        Arc::new(Timed::new(Arc::clone(rw), Arc::clone(stats))) as SharedRewriter
                    })
                    .collect(),
                None => plain_epochs.clone(),
            };
            let models = ModelStore::new(Arc::clone(&epochs[0]));
            let base_docs = world.replicated_catalog(spec.docs);
            let (store, writer) = CatalogWriter::bootstrap(base_docs.clone());
            let engine = Arc::new(SearchEngine::sharded_live(Arc::clone(&store), 2));
            let batches = world.churn(spec.docs, 400, sub_seed(seed, 6));
            Stack {
                world,
                engine,
                cache,
                student: None,
                online: None,
                models: Some(models),
                epochs,
                plain_epochs,
                live: Some(Live {
                    store,
                    writer,
                    base_docs,
                    batches,
                    applied: 0,
                }),
            }
        }
    }
}

/// What the oracle checks about one runtime response.
struct Observed {
    request: Request,
    /// `None` when the request was not served.
    served: Option<Served>,
}

struct Served {
    digest: u64,
    epoch: u64,
    model_epoch: u64,
}

fn digest(resp: &SearchResponse) -> u64 {
    fnv1a(format!("{resp:?}").as_bytes())
}

/// Records what the oracle needs of each request and its runtime record
/// (both in submission order).
fn observe(observed: &mut Vec<Observed>, requests: Vec<Request>, records: &[ServedRecord]) {
    observed.extend(requests.into_iter().zip(records).map(|(request, record)| {
        let served = match &record.outcome {
            Outcome::Served(resp) => Some(Served {
                digest: digest(resp),
                epoch: resp.epoch,
                model_epoch: resp.model_epoch,
            }),
            _ => None,
        };
        Observed { request, served }
    }));
}

/// Sequential serve of one request through the engine itself — the
/// reference the runtime must match byte for byte.
fn serve_sequential(
    stack: &Stack,
    engine: &SearchEngine,
    req: &Request,
    student: Option<&dyn QueryRewriter>,
    online: Option<&dyn QueryRewriter>,
    models: Option<&Arc<ModelStore>>,
) -> SearchResponse {
    let config = ServingConfig::default();
    let budget = DeadlineBudget::unlimited();
    match models {
        Some(models) => {
            let pin = models.pin();
            let session = SessionState {
                context: &req.context,
                model: Some(&pin),
            };
            let ladder = RewriteLadder {
                cache: Some(&stack.cache),
                ..RewriteLadder::default()
            };
            engine.search_session_traced(&req.query, session, ladder, &config, &budget, None, None)
        }
        None => {
            let ladder = RewriteLadder {
                cache: Some(&stack.cache),
                student,
                online,
                baseline: None,
            };
            engine.search_resilient(&req.query, ladder, &config, &budget, None)
        }
    }
}

fn plain_rungs(stack: &Stack) -> (Option<&dyn QueryRewriter>, Option<&dyn QueryRewriter>) {
    (
        stack.student.as_deref().map(|s| s as &dyn QueryRewriter),
        stack.online.as_deref().map(|o| o as &dyn QueryRewriter),
    )
}

/// Checks every observed response against a sequential replay. Frozen
/// catalogs replay on the served engine; the live catalog replays each
/// response on a serial rebuild of the catalog epoch it pinned, with a
/// model store advanced to the model epoch it pinned. Returns the number
/// of requests that failed (not served, or served wrong bytes).
fn oracle(stack: &Stack, observed: &[Observed]) -> (u64, Vec<bool>) {
    let mut ok = vec![false; observed.len()];
    match &stack.live {
        None => {
            let (student, online) = plain_rungs(stack);
            let mut memo: HashMap<&[String], u64> = HashMap::new();
            for (i, o) in observed.iter().enumerate() {
                if let Some(s) = &o.served {
                    let want = *memo.entry(o.request.query.as_slice()).or_insert_with(|| {
                        digest(&serve_sequential(
                            stack,
                            &stack.engine,
                            &o.request,
                            student,
                            online,
                            None,
                        ))
                    });
                    ok[i] = want == s.digest;
                }
            }
        }
        Some(live) => {
            let mut order: Vec<usize> = (0..observed.len())
                .filter(|&i| observed[i].served.is_some())
                .collect();
            let key = |i: usize| {
                let s = observed[i].served.as_ref().expect("filtered to served");
                (s.epoch, s.model_epoch)
            };
            order.sort_by_key(|&i| key(i));
            let mut index = replay(&[Segment::base_of(live.base_docs.iter().map(Vec::as_slice))]);
            let mut at_epoch = 0u64;
            let mut engine =
                SearchEngine::live(SnapshotStore::new(IndexSnapshot::new(0, index.clone())));
            let mut stores: BTreeMap<u64, Arc<ModelStore>> = BTreeMap::new();
            let published = stack.models.as_ref().map_or(0, |m| m.current_epoch());
            for i in order {
                let (epoch, model_epoch) = key(i);
                if epoch as usize > live.applied || model_epoch == 0 || model_epoch > published {
                    continue; // never published: a torn or invented stamp
                }
                if epoch != at_epoch {
                    while at_epoch < epoch {
                        Segment::seal(live.batches[at_epoch as usize].clone()).apply(&mut index);
                        at_epoch += 1;
                    }
                    engine = SearchEngine::live(SnapshotStore::new(IndexSnapshot::new(
                        epoch,
                        index.clone(),
                    )));
                }
                let models = stores.entry(model_epoch).or_insert_with(|| {
                    let store = ModelStore::new(Arc::clone(&stack.epochs[0]));
                    for m in 2..=model_epoch {
                        store.publish(Arc::clone(&stack.epochs[((m - 1) % 2) as usize]));
                    }
                    store
                });
                let want = digest(&serve_sequential(
                    stack,
                    &engine,
                    &observed[i].request,
                    None,
                    None,
                    Some(models),
                ));
                ok[i] = want == observed[i].served.as_ref().expect("served").digest;
            }
        }
    }
    let failed = ok.iter().filter(|&&b| !b).count() as u64;
    (failed, ok)
}

/// Open-loop pacing result, per request in submission order.
struct Paced {
    records: Vec<ServedRecord>,
    /// How late the generator sent the request.
    lateness: Vec<Duration>,
    /// How long the `Runtime::submit` call took.
    admit_ns: Vec<u64>,
}

/// Sends `reqs` at a fixed rate from this thread, sleeping (never
/// spinning) until each request's due time.
fn paced(rt: &Runtime, reqs: Vec<Request>, rate_rps: f64, session: bool) -> Paced {
    let n = reqs.len();
    let interval = Duration::from_secs_f64(1.0 / rate_rps);
    let mut lateness = Vec::with_capacity(n);
    let mut admit_ns = Vec::with_capacity(n);
    rt.reserve_results(n);
    let records = rt.run(|rt| {
        let start = Instant::now() + Duration::from_millis(1);
        for (i, r) in reqs.into_iter().enumerate() {
            let due = start + interval * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let budget = DeadlineBudget::unlimited();
            let t0 = Instant::now();
            lateness.push(t0.saturating_duration_since(due));
            let _ = if session {
                rt.submit_session(r.query, r.context, budget)
            } else {
                rt.submit(r.query, budget)
            };
            admit_ns.push(t0.elapsed().as_nanos() as u64);
        }
    });
    Paced {
        records,
        lateness,
        admit_ns,
    }
}

/// Pre-submits every request, then lets the workers drain them.
fn drain(rt: &Runtime, reqs: Vec<Request>, session: bool) -> (Vec<ServedRecord>, Duration) {
    rt.reserve_results(reqs.len());
    let t0 = Instant::now();
    for r in reqs {
        let budget = DeadlineBudget::unlimited();
        let _ = if session {
            rt.submit_session(r.query, r.context, budget)
        } else {
            rt.submit(r.query, budget)
        };
    }
    let records = rt.run(|_| {});
    (records, t0.elapsed())
}

/// Timings the churn thread records.
#[derive(Default)]
struct ChurnLog {
    apply_ms: Vec<f64>,
    publish_us: Vec<f64>,
}

/// live_session's writer: applies the next mutation batch every
/// [`WRITE_INTERVAL`] and publishes the other model epoch every
/// [`PUBLISH_INTERVAL`], sleeping in between, until `stop`.
fn churn(
    live: &mut Live,
    models: &ModelStore,
    epochs: &[SharedRewriter],
    stop: &AtomicBool,
) -> ChurnLog {
    let mut log = ChurnLog::default();
    let start = Instant::now();
    let mut next_write = start + WRITE_INTERVAL;
    let mut next_publish = start + PUBLISH_INTERVAL;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        let next = next_write.min(next_publish);
        if now < next {
            std::thread::sleep((next - now).min(Duration::from_millis(5)));
            continue;
        }
        if now >= next_write {
            if let Some(batch) = live.batches.get(live.applied) {
                let t0 = Instant::now();
                live.writer
                    .apply(batch.clone())
                    .expect("in-memory publish cannot fail");
                log.apply_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                live.writer.reclaim();
                live.applied += 1;
            }
            next_write += WRITE_INTERVAL;
        }
        if now >= next_publish {
            let next_epoch = models.current_epoch() + 1;
            let rw = Arc::clone(&epochs[((next_epoch - 1) % 2) as usize]);
            let t0 = Instant::now();
            models.publish(rw);
            log.publish_us.push(t0.elapsed().as_secs_f64() * 1e6);
            models.reclaim();
            next_publish += PUBLISH_INTERVAL;
        }
    }
    log
}

/// Runs `phase` with live_session's churn thread beside it (a no-op for
/// the frozen-catalog workloads).
fn with_churn<T>(stack: &mut Stack, phase: impl FnOnce(&Stack) -> T) -> (T, ChurnLog) {
    let Some(mut live) = stack.live.take() else {
        return (phase(stack), ChurnLog::default());
    };
    let models = Arc::clone(stack.models.as_ref().expect("live has a model store"));
    let epochs = stack.epochs.clone();
    let stop = AtomicBool::new(false);
    let (out, log) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| churn(&mut live, &models, &epochs, &stop));
        let out = phase(stack);
        stop.store(true, Ordering::SeqCst);
        (out, writer.join().expect("churn thread panicked"))
    });
    stack.live = Some(live);
    (out, log)
}

fn provenance(spec: &Spec, seed: u64, stack: &Stack) {
    let share = stack.world.issuance_share(stack.world.head());
    println!(
        "provenance: commit {} nproc {} avx2 {} seed {seed} offered_rps {} slo_us {} docs {} \
         distinct_queries {} head_half_issuance_share {share:.3}",
        measure::commit(),
        measure::nproc(),
        measure::avx2(),
        spec.rate_rps,
        spec.slo_us,
        stack.engine.pin().index().len(),
        stack.world.queries.len()
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &Spec, seed: u64, seconds: u64) -> Report {
    let session = spec.kind == Kind::LiveSession;
    let (mut stack, setup_times) = measure::timed_setups(SETUPS, || setup(spec, seed, None));
    provenance(spec, seed, &stack);
    let rt = Runtime::new(
        stack.serve_stack(Arc::clone(&stack.engine)),
        runtime_config(),
    );
    let mut observed: Vec<Observed> = Vec::new();

    // Untimed warm-up through the same runtime path.
    let warm = stack.requests(spec, WARMUP_REQUESTS, sub_seed(seed, 10));
    let (records, _) = drain(&rt, warm.clone(), session);
    observe(&mut observed, warm, &records);

    // The open loop at the fixed offered rate, cut into rounds; each round
    // ends with a capacity drain of one pre-submitted set, so both measure
    // the same stretch of the run. Capacity is counted per second of
    // process CPU time: wall-clock drain rates moved by ±25 % within one
    // run with the time the host stole, which is not charged as CPU time.
    let n = (spec.rate_rps * seconds as f64).round() as usize;
    let stream = stack.requests(spec, n, sub_seed(seed, 11));
    let set = stack.requests(spec, spec.drain_requests, sub_seed(seed, 12));
    let mut cpu = Duration::ZERO;
    let mut alloc_count = 0u64;
    let mut latency_us: Vec<f64> = Vec::with_capacity(n);
    let mut late_us: Vec<f64> = Vec::with_capacity(n);
    let mut paced_at: Vec<usize> = Vec::with_capacity(n);
    let mut rps = Vec::with_capacity(ROUNDS);
    let mut drain_cpu = Duration::ZERO;
    let mut drained = 0usize;
    let mut round_p50 = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let chunk = stream[round * n / ROUNDS..(round + 1) * n / ROUNDS].to_vec();
        let sent = chunk.clone();
        let cpu0 = cpu_time();
        let a0 = allocs();
        let (p, _) = with_churn(&mut stack, |_| paced(&rt, sent, spec.rate_rps, session));
        cpu += cpu_time() - cpu0;
        alloc_count += allocs() - a0;
        let round_from = latency_us.len();
        for (r, late) in p.records.iter().zip(&p.lateness) {
            latency_us.push((*late + r.latency).as_secs_f64() * 1e6);
            late_us.push(late.as_secs_f64() * 1e6);
        }
        round_p50.push(median(&latency_us[round_from..]));
        let from = observed.len();
        observe(&mut observed, chunk, &p.records);
        paced_at.extend(from..observed.len());

        // Settle the catalog epoch the churn left behind before timing.
        drop(stack.engine.pin());
        let cpu0 = cpu_time();
        let (records, elapsed) = drain(&rt, set.clone(), session);
        drain_cpu += cpu_time() - cpu0;
        drained += set.len();
        rps.push(set.len() as f64 / elapsed.as_secs_f64());
        observe(&mut observed, set.clone(), &records);
    }
    let completed = paced_at
        .iter()
        .filter(|&&i| observed[i].served.is_some())
        .count()
        .max(1);
    let rss = measure::peak_rss_mb();

    // Oracle, outside every timed window.
    let (failed, ok) = oracle(&stack, &observed);
    let within = paced_at
        .iter()
        .zip(&latency_us)
        .filter(|&(&i, &l)| ok[i] && l <= spec.slo_us)
        .count();
    let p99_samples = latency_us.len();
    println!(
        "open loop: {n} requests at {} rps; latency from due time p50 {:.1} us p90 {:.1} us \
         p99 {:.1} us (n = {p99_samples}, {:.0} beyond p99, not gated); generator lateness \
         p50 {:.1} us p99 {:.1} us max {:.1} us",
        spec.rate_rps,
        median(&latency_us),
        quantile(&latency_us, 0.90),
        quantile(&latency_us, 0.99),
        p99_samples as f64 * 0.01,
        median(&late_us),
        quantile(&late_us, 0.99),
        quantile(&late_us, 1.0),
    );
    println!(
        "drains: wall-clock {:?} rps (median {:.0}); {drained} requests in {:.3} CPU-s",
        rps.iter().map(|r| r.round()).collect::<Vec<_>>(),
        median(&rps),
        drain_cpu.as_secs_f64()
    );
    println!(
        "p50 per round: {:?} us",
        round_p50.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    Report {
        attempted: observed.len() as u64,
        failed,
        errors: Vec::new(),
        metrics: vec![
            Metric {
                name: "setup_s",
                value: median(&setup_times),
                unit: "s",
            },
            Metric {
                name: "lat_p50_us",
                value: median(&latency_us),
                unit: "us",
            },
            Metric {
                name: "slo_permille",
                value: 1000.0 * within as f64 / n as f64,
                unit: "permille",
            },
            Metric {
                name: "throughput_rps",
                value: drained as f64 / drain_cpu.as_secs_f64(),
                unit: "1/cpu-s",
            },
            Metric {
                name: "cpu_us_per_req",
                value: cpu.as_secs_f64() * 1e6 / completed as f64,
                unit: "us",
            },
            Metric {
                name: "allocs_per_req",
                value: alloc_count as f64 / completed as f64,
                unit: "count",
            },
            Metric {
                name: "peak_rss_mb",
                value: rss,
                unit: "MiB",
            },
        ],
    }
}

fn big_tracer() -> Tracer {
    Tracer::with_capacity(ObsClock::monotonic(), 16, 1 << 16)
}

/// A second engine over the same catalog, with a tracer attached.
fn traced_engine(stack: &Stack, tracer: &Tracer) -> Arc<SearchEngine> {
    let engine = match &stack.live {
        Some(live) => SearchEngine::sharded_live(Arc::clone(&live.store), 2),
        None => SearchEngine::new(stack.engine.index().clone()),
    };
    Arc::new(engine.with_tracer(tracer.clone()))
}

/// The traced run: per-layer metrics.
pub fn run_traced(spec: &Spec, seed: u64, seconds: u64) -> Report {
    let session = spec.kind == Kind::LiveSession;
    let teacher_stats = Arc::new(CallStats::default());
    let student_stats = Arc::new(CallStats::default());
    let (mut stack, _) = measure::timed_setups(1, || setup(spec, seed, Some(&teacher_stats)));
    provenance(spec, seed, &stack);
    let mut errors = Vec::new();
    let mut observed: Vec<Observed> = Vec::new();
    let rt = Runtime::new(
        stack.serve_stack(Arc::clone(&stack.engine)),
        runtime_config(),
    );
    let warm = stack.requests(spec, WARMUP_REQUESTS, sub_seed(seed, 10));
    let (records, _) = drain(&rt, warm.clone(), session);
    observe(&mut observed, warm, &records);

    // Sequential replays: untraced, then traced with every layer's public
    // calls timed from outside.
    let replay_set = stack.requests(spec, REPLAY_REQUESTS, sub_seed(seed, 13));
    // live_session's untraced replay pins from a store of unwrapped epochs.
    let plain_models = stack
        .models
        .as_ref()
        .map(|_| ModelStore::new(Arc::clone(&stack.plain_epochs[0])));
    let (student, online) = plain_rungs(&stack);
    let mut untraced_ns = 0u64;
    for r in &replay_set {
        let t0 = Instant::now();
        let resp = serve_sequential(
            &stack,
            &stack.engine,
            r,
            student,
            online,
            plain_models.as_ref(),
        );
        untraced_ns += t0.elapsed().as_nanos() as u64;
        std::hint::black_box(resp);
    }

    let tracer = big_tracer();
    let engine = traced_engine(&stack, &tracer);
    let timed_student: Option<Timed> = stack
        .student
        .as_ref()
        .map(|s| Timed::new(Arc::clone(s) as SharedRewriter, Arc::clone(&student_stats)));
    let timed_online: Option<Timed> = stack
        .online
        .as_ref()
        .map(|o| Timed::new(Arc::clone(o) as SharedRewriter, Arc::clone(&teacher_stats)));
    let s0 = student_stats.snapshot();
    let t0s = teacher_stats.snapshot();
    let mut traced_ns = 0u64;
    let mut kv_ns = 0u64;
    let mut kv_hits = 0u64;
    let mut pin_ns = 0u64;
    let mut model_pin_ns = 0u64;
    let mut postings = 0u64;
    let mut candidates = 0u64;
    let mut shards_ok = 0u64;
    let mut shards_total = 0u64;
    for r in &replay_set {
        // Outside timing of the cache, catalog and model pins.
        let model_epoch = stack.models.as_ref().map_or(0, |m| m.current_epoch());
        let t = Instant::now();
        let hit = if session {
            stack
                .cache
                .get_scoped(CacheScope::for_session(model_epoch, &r.context), &r.query)
        } else {
            stack.cache.get(&r.query)
        };
        kv_ns += t.elapsed().as_nanos() as u64;
        kv_hits += u64::from(hit.is_some());
        let t = Instant::now();
        let pin = engine.pin();
        pin_ns += t.elapsed().as_nanos() as u64;
        drop(pin);
        if let Some(models) = &stack.models {
            let t = Instant::now();
            let pin = models.pin();
            model_pin_ns += t.elapsed().as_nanos() as u64;
            drop(pin);
        }

        let t = Instant::now();
        let resp = serve_sequential(
            &stack,
            &engine,
            r,
            timed_student.as_ref().map(|s| s as &dyn QueryRewriter),
            timed_online.as_ref().map(|o| o as &dyn QueryRewriter),
            stack.models.as_ref(),
        );
        traced_ns += t.elapsed().as_nanos() as u64;
        postings += resp.cost.postings_scanned as u64;
        candidates += resp.candidates.len() as u64;
        shards_ok += resp.shards_ok as u64;
        shards_total += resp.shards_total as u64;
        observed.push(Observed {
            request: r.clone(),
            served: Some(Served {
                digest: digest(&resp),
                epoch: resp.epoch,
                model_epoch: resp.model_epoch,
            }),
        });
    }
    let student_calls: Calls = student_stats.snapshot().since(&s0);
    let teacher_calls: Calls = teacher_stats.snapshot().since(&t0s);
    let replay_spans = tracer.snapshot();
    if tracer.dropped() != 0 {
        errors.push(format!("replay tracer dropped {} spans", tracer.dropped()));
    }
    let aggs = aggregate(&replay_spans);
    let total_us = traced_ns as f64 / 1e3;
    print_self_times("sequential traced replay", &aggs, total_us);
    let accounted: u64 = aggs
        .iter()
        .filter(|(n, _)| **n != "serve")
        .map(|(_, a)| a.self_us)
        .sum();
    let coverage = accounted as f64 / total_us.max(1.0);
    println!(
        "layer spans cover {:.1}% of the sequential serve time (required >= {:.0}%)",
        coverage * 100.0,
        MIN_COVERAGE * 100.0
    );
    if coverage < MIN_COVERAGE {
        errors.push(format!(
            "layer self times cover only {:.1}% of serve time",
            coverage * 100.0
        ));
    }
    let overhead_pct = 100.0 * (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64;

    // A traced pass through the runtime at the offered rate (with churn on
    // live_session), reading the spans the runtime emits.
    let rt_tracer = big_tracer();
    let rt_engine = traced_engine(&stack, &rt_tracer);
    let traced_rt = Runtime::new(stack.serve_stack(rt_engine), runtime_config());
    let n = (spec.rate_rps * seconds as f64 / 2.0).round() as usize;
    let stream = stack.requests(spec, n, sub_seed(seed, 11));
    let (p, churn_log) = with_churn(&mut stack, |_| {
        paced(&traced_rt, stream.clone(), spec.rate_rps, session)
    });
    observe(&mut observed, stream, &p.records);
    if rt_tracer.dropped() != 0 {
        errors.push(format!(
            "runtime tracer dropped {} spans",
            rt_tracer.dropped()
        ));
    }
    let spans = rt_tracer.snapshot();
    let rt_aggs = aggregate(&spans);
    print_self_times(
        "runtime pass",
        &rt_aggs,
        spans
            .iter()
            .filter(|s| s.name == "serve")
            .map(dur)
            .sum::<u64>() as f64,
    );
    let batches = rt_aggs.get("batch_form").map_or(0, |a| a.count);
    let batch_size = attr_sum(&spans, "batch_form", "size") as f64 / batches.max(1) as f64;
    let slots = attr_sum(&spans, "batch_form", "decode_slots");
    let coalesce = if slots == 0 {
        0.0
    } else {
        attr_sum(&spans, "batch_form", "decode_requests") as f64 / slots as f64
    };
    let steals = spans.iter().filter(|s| s.name == "steal").count() as f64;
    let span_mean = |aggs: &BTreeMap<&'static str, crate::layers::SpanAgg>, name: &str| {
        aggs.get(name).map_or(0.0, |a| a.mean_us())
    };
    let pin_retries = stack
        .live
        .as_ref()
        .map_or(0, |l| l.store.churn_stats().pin_retries) as f64;
    let replays = replay_set.len() as f64;

    let (failed, _) = oracle(&stack, &observed);
    let metrics = vec![
        Metric {
            name: "serve.admit_us",
            value: measure::mean(
                &p.admit_ns
                    .iter()
                    .map(|&n| n as f64 / 1e3)
                    .collect::<Vec<_>>(),
            ),
            unit: "us",
        },
        Metric {
            name: "serve.queue_wait_us",
            value: span_mean(&rt_aggs, "queue_wait"),
            unit: "us",
        },
        Metric {
            name: "serve.batch_size",
            value: batch_size,
            unit: "count",
        },
        Metric {
            name: "serve.coalesce_ratio",
            value: coalesce,
            unit: "ratio",
        },
        Metric {
            name: "serve.steals",
            value: steals,
            unit: "count",
        },
        Metric {
            name: "kv.hit_ratio",
            value: kv_hits as f64 / replays,
            unit: "ratio",
        },
        Metric {
            name: "kv.lookup_us",
            value: kv_ns as f64 / 1e3 / replays,
            unit: "us",
        },
        Metric {
            name: "retrieve.us",
            value: span_mean(&aggs, "retrieve"),
            unit: "us",
        },
        Metric {
            name: "retrieve.postings",
            value: postings as f64 / replays,
            unit: "count",
        },
        Metric {
            name: "retrieve.candidates",
            value: candidates as f64 / replays,
            unit: "count",
        },
        Metric {
            name: "rank.us",
            value: span_mean(&aggs, "rank"),
            unit: "us",
        },
        Metric {
            name: "rank.scored",
            value: attr_sum(&replay_spans, "rank", "candidates") as f64 / replays,
            unit: "count",
        },
        Metric {
            name: "scatter.us",
            value: span_mean(&aggs, "scatter"),
            unit: "us",
        },
        Metric {
            name: "scatter.shards_ok_ratio",
            value: if spec.kind == Kind::LiveSession {
                shards_ok as f64 / shards_total.max(1) as f64
            } else {
                0.0
            },
            unit: "ratio",
        },
        Metric {
            name: "catalog.pin_us",
            value: pin_ns as f64 / 1e3 / replays,
            unit: "us",
        },
        Metric {
            name: "catalog.apply_ms",
            value: measure::mean(&churn_log.apply_ms),
            unit: "ms",
        },
        Metric {
            name: "catalog.pin_retries",
            value: pin_retries,
            unit: "count",
        },
        Metric {
            name: "models.pin_us",
            value: model_pin_ns as f64 / 1e3 / replays,
            unit: "us",
        },
        Metric {
            name: "models.publish_us",
            value: measure::mean(&churn_log.publish_us),
            unit: "us",
        },
        Metric {
            name: "student.decode_us",
            value: student_calls.us_per_call(),
            unit: "us",
        },
        Metric {
            name: "student.tokens",
            value: student_calls.tokens_per_call(),
            unit: "count",
        },
        Metric {
            name: "student.us_per_token",
            value: student_calls.us_per_token(),
            unit: "us",
        },
        Metric {
            name: "student.allocs",
            value: student_calls.allocs_per_call(),
            unit: "count",
        },
        Metric {
            name: "teacher.decode_us",
            value: teacher_calls.us_per_call(),
            unit: "us",
        },
        Metric {
            name: "teacher.tokens",
            value: teacher_calls.tokens_per_call(),
            unit: "count",
        },
        Metric {
            name: "teacher.us_per_token",
            value: teacher_calls.us_per_token(),
            unit: "us",
        },
        Metric {
            name: "teacher.allocs",
            value: teacher_calls.allocs_per_call(),
            unit: "count",
        },
        Metric {
            name: "trace.overhead_pct",
            value: overhead_pct,
            unit: "%",
        },
        Metric {
            name: "trace.coverage",
            value: coverage,
            unit: "ratio",
        },
    ];
    Report {
        attempted: observed.len() as u64,
        failed,
        errors,
        metrics,
    }
}
