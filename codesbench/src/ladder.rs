//! The traced replay: each request of a workload goes through every rung
//! of the entry-point ladder, innermost first, plus direct calls into the
//! Algorithm-1 stages, `sqlengine` and storage:
//!
//! | rung | call timed from outside |
//! |------|-------------------------|
//! | core | `CodesSystem::infer` |
//! | storage | `SystemBackend` as `Backend::infer` (catalog sync + infer) |
//! | serve | `Pool::submit` → `Ticket::wait` |
//! | router | `Router::submit` → `Ticket::wait` |
//! | gateway | `HttpClient::post_json` |
//!
//! A layer's overhead is the per-request difference between its rung and
//! the rung inside it, summarized by its median.

use std::sync::Arc;
use std::time::{Duration, Instant};

use codes::{
    stage_assemble, stage_metadata, stage_schema_filter, stage_value_retrieval, CodesSystem,
    Config, InferenceRequest,
};
use codes_serve::{Backend, Pool};

use crate::check::candidate_executes;
use crate::gen::Rng;
use crate::stack::{Client, Stack};
use crate::trace::{Recorder, SpanRec};
use crate::workload::Query;

/// Requests per replay round, dealt over the clients.
const ROUND: usize = 32;
/// Write + re-sync pairs timed after the replay on every workload.
const WRITE_PAIRS: usize = 40;

/// Raw per-request samples of one replay.
#[derive(Default)]
pub struct Replay {
    /// Rung latencies in ms: infer, backend, pool, router, http.
    pub rungs: Vec<[f64; 5]>,
    pub queue_wait_ms: Vec<f64>,
    pub prompt_tokens: Vec<f64>,
    pub candidates_executed: u64,
    pub candidates_ok: u64,
    pub spans: Vec<SpanRec>,
    pub errors: Vec<String>,
}

impl Replay {
    fn merge(&mut self, other: Replay) {
        self.rungs.extend(other.rungs);
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.prompt_tokens.extend(other.prompt_tokens);
        self.candidates_executed += other.candidates_executed;
        self.candidates_ok += other.candidates_ok;
        self.spans.extend(other.spans);
        self.errors.extend(other.errors);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replay one request through the ladder and the direct layer calls.
#[allow(clippy::too_many_arguments)]
fn one(
    system: &CodesSystem,
    stack: &Stack,
    pool: &Pool,
    client: &mut Client,
    q: &Query,
    request: u64,
    rec: &mut Recorder,
    out: &mut Replay,
) -> Result<(), String> {
    let serving = Config::serving();
    let req = InferenceRequest::new(&q.db_id, &q.question);
    let root = rec.open();
    let parent = root.0;

    let catalog = stack
        .service
        .catalog(&q.db_id)
        .ok_or("database not attached")?;
    let db = &catalog.database;
    let t = Instant::now();
    let inferred = rec.time("core.infer", parent, request, || {
        system.infer(db, &req.clone().with_config(serving))
    });
    let infer_ms = ms(t.elapsed());

    // The Algorithm-1 stages called one by one, then generation.
    let stages = rec.open();
    let index = system.value_index_snapshot().get(&q.db_id).cloned();
    let opts = &system.options;
    let filtered = rec.time("core.schema_filter", stages.0, request, || {
        stage_schema_filter(db, &q.question, None, system.classifier.as_ref(), opts)
    });
    let matched = rec.time("core.value_retrieval", stages.0, request, || {
        stage_value_retrieval(&filtered, &q.question, None, index.as_deref(), opts)
    });
    let tables = rec.time("core.metadata", stages.0, request, || {
        stage_metadata(db, &filtered, opts)
    });
    let prompt = rec.time("core.prompt_assemble", stages.0, request, || {
        stage_assemble(db, tables, matched, opts)
    });
    let generation = rec.time("core.generate", stages.0, request, || {
        system.model.generate_governed(
            db,
            &prompt,
            &q.question,
            None,
            &[],
            &serving,
            Instant::now(),
        )
    });
    rec.close(stages, "core.stages", parent, request);
    out.prompt_tokens.push(prompt.token_len() as f64);

    // Every beam candidate through sqlengine under the serving budget.
    let beam = rec.open();
    for c in &generation.beam {
        let ok = rec.time("sqlengine.beam_exec", beam.0, request, || {
            candidate_executes(db, &c.sql, &serving.exec_limits, serving.retry_attempts)
        });
        out.candidates_executed += 1;
        out.candidates_ok += u64::from(ok);
    }
    rec.close(beam, "sqlengine.beam", parent, request);

    rec.time("storage.sync", parent, request, || {
        stack.service.sync(&q.db_id)
    })
    .map_err(|e| format!("sync: {e}"))?;

    let t = Instant::now();
    rec.time("serve.backend", parent, request, || {
        stack.backend.infer(&req, request, &serving)
    })
    .map_err(|e| format!("backend: {e}"))?;
    let backend_ms = ms(t.elapsed());

    let t = Instant::now();
    let served = rec
        .time("serve.pool", parent, request, || {
            pool.submit(req.clone()).map(|ticket| ticket.wait())
        })
        .map_err(|e| format!("pool submit: {e}"))?
        .map_err(|e| format!("pool: {e}"))?;
    let pool_ms = ms(t.elapsed());
    out.queue_wait_ms.push(served.queue_wait_seconds * 1e3);

    let t = Instant::now();
    rec.time("router.submit", parent, request, || {
        stack.router.submit(req.clone()).map(|ticket| ticket.wait())
    })
    .map_err(|e| format!("router submit: {e}"))?
    .map_err(|e| format!("router: {e}"))?;
    let router_ms = ms(t.elapsed());

    let t = Instant::now();
    rec.time("gateway.http", parent, request, || {
        client.infer(&q.db_id, &q.question)
    })?;
    let http_ms = ms(t.elapsed());

    rec.close(root, "replay", 0, request);
    if inferred.sql != generation.sql {
        return Err(format!(
            "stage-by-stage SQL differs from infer for `{}`",
            q.question
        ));
    }
    out.rungs
        .push([infer_ms, backend_ms, pool_ms, router_ms, http_ms]);
    Ok(())
}

/// Replay `order` (cycled) round by round for about `seconds`, on as many
/// threads as there are clients. `between_rounds` runs before each round
/// with nothing in flight (the write-heavy workload writes there).
#[allow(clippy::too_many_arguments)]
pub fn replay(
    system: &Arc<CodesSystem>,
    stack: &Stack,
    clients: &mut [Client],
    queries: &[Query],
    mut next_round: impl FnMut(usize) -> Vec<usize>,
    mut between_rounds: impl FnMut(&mut Recorder),
    seconds: f64,
    epoch: Instant,
) -> Replay {
    let registry = Arc::new(codes_obs::Registry::new());
    let pool = Pool::start_shared(
        Arc::clone(&stack.backend) as Arc<dyn Backend>,
        stack.serve.clone(),
        registry,
    );
    let mut main_rec = Recorder::new(epoch, 1 << 22);
    let mut all = Replay::default();
    let started = Instant::now();
    let mut round = 0usize;
    while round < 2 || started.elapsed().as_secs_f64() < seconds {
        between_rounds(&mut main_rec);
        let order = next_round(ROUND);
        let n = clients.len();
        let shares: Vec<Replay> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let mine: Vec<usize> = order.iter().skip(c).step_by(n).copied().collect();
                    let pool = &pool;
                    scope.spawn(move || {
                        let thread = (1 << 23) + ((round as u64) << 8) + c as u64;
                        let mut rec = Recorder::new(epoch, thread);
                        let mut out = Replay::default();
                        for (k, &qi) in mine.iter().enumerate() {
                            let request = (1 << 40) + ((round as u64) << 20) + (k * n + c) as u64;
                            if let Err(e) = one(
                                system,
                                stack,
                                pool,
                                client,
                                &queries[qi],
                                request,
                                &mut rec,
                                &mut out,
                            ) {
                                out.errors.push(e);
                            }
                        }
                        out.spans = rec.spans;
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay thread panicked"))
                .collect()
        });
        for share in shares {
            all.merge(share);
        }
        round += 1;
    }
    pool.shutdown();
    all.spans.extend(main_rec.spans);
    all
}

/// Time `WRITE_PAIRS` row writes, each followed by the catalog re-sync
/// it forces, round-robin over the databases.
pub fn write_pairs(
    stack: &Stack,
    db_ids: &[String],
    rng: &mut Rng,
    rec: &mut Recorder,
) -> (Vec<f64>, Vec<f64>, Vec<String>) {
    let (mut writes, mut resyncs, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..WRITE_PAIRS {
        let (w, r, e) = write_and_resync(stack, &db_ids[k % db_ids.len()], rng, rec);
        writes.push(w);
        resyncs.push(r);
        errors.extend(e);
    }
    (writes, resyncs, errors)
}

/// One timed write and the timed re-sync after it.
pub fn write_and_resync(
    stack: &Stack,
    db_id: &str,
    rng: &mut Rng,
    rec: &mut Recorder,
) -> (f64, f64, Option<String>) {
    let t = Instant::now();
    let written = rec.time("storage.write", 0, 0, || stack.write(db_id, rng));
    let write_ms = ms(t.elapsed());
    let t = Instant::now();
    let synced = rec.time("storage.resync", 0, 0, || stack.service.sync(db_id));
    let resync_ms = ms(t.elapsed());
    let error = match (written, synced) {
        (Err(e), _) => Some(e),
        (_, Err(e)) => Some(format!("resync {db_id}: {e}")),
        (_, Ok(codes_storage::SyncOutcome::Refreshed { .. })) => None,
        (_, Ok(other)) => Some(format!("resync {db_id} after a write found {other:?}")),
    };
    (write_ms, resync_ms, error)
}
