//! The two closed-loop workloads and the checks of what they served.
//!
//! Every run attempts whole rounds of the same operations and stops at the
//! first round boundary after both the run length has passed and enough
//! requests were timed to support a p99. Throughput and median latency
//! are reported as medians over rounds, and the p99 as the median over
//! windows of consecutive rounds holding at least `MIN_REQUESTS` samples
//! each, so a burst of host noise inside one round or window does not
//! move them.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use codes::{CodesSystem, Config, Inference, InferenceRequest};
use sqlengine::{Database, Row};

use crate::check::{self, Tally};
use crate::gen::{Rng, Zipf};
use crate::setup::Ready;
use crate::stack::{Client, Stack};
use crate::trace::Recorder;

/// Fewest timed requests per loop and per p99 window: a p99 needs ten
/// samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// No run goes on past this, whatever its request count.
const MAX_RUN: Duration = Duration::from_secs(100);
/// Requests per round of `offline-spider`.
const ROUND: usize = 128;
/// Load requests per round of `online-hot-writes`.
const HOT_ROUND: usize = 2000;
/// Zipf exponent of `online-hot-writes` question popularity.
pub const HOT_SKEW: f64 = 1.3;

/// One question of the workload's pool.
#[derive(Debug, Clone)]
pub struct Query {
    pub db: usize,
    pub db_id: String,
    pub question: String,
    pub gold: String,
}

/// The seeded request pool: the held-out questions, deduplicated,
/// shuffled within each database, then interleaved across databases in
/// their fixed order — position `r` holds a question of database
/// `r % databases`. Every seed therefore spreads positions (and the
/// popularity ranks of `online-hot-writes`) over databases the same way;
/// only which questions sit where changes.
pub fn pool(ready: &Ready, seed: u64) -> Vec<Query> {
    let mut seen = std::collections::HashSet::new();
    let mut per_db: Vec<Vec<Query>> = vec![Vec::new(); ready.dev.databases.len()];
    for s in &ready.dev.dev {
        if !seen.insert((s.db_id.clone(), s.question.clone())) {
            continue;
        }
        if let Some(db) = ready.dev.databases.iter().position(|d| d.name == s.db_id) {
            per_db[db].push(Query {
                db,
                db_id: s.db_id.clone(),
                question: s.question.clone(),
                gold: s.sql.clone(),
            });
        }
    }
    let mut rng = Rng::new(seed ^ 0x9001);
    for list in &mut per_db {
        rng.shuffle(list);
    }
    let longest = per_db.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|k| per_db.iter().filter_map(move |list| list.get(k).cloned()))
        .collect()
}

/// Distinct SQL served per `(database state, query)`, with counts.
#[derive(Debug, Default)]
pub struct Served(pub HashMap<(usize, usize), BTreeMap<String, u64>>);

impl Served {
    pub fn add(&mut self, state: usize, query: usize, sql: &str) {
        let per = self.0.entry((state, query)).or_default();
        match per.get_mut(sql) {
            Some(n) => *n += 1,
            None => {
                per.insert(sql.to_string(), 1);
            }
        }
    }

    pub fn merge(&mut self, other: Served) {
        for (key, per) in other.0 {
            let mine = self.0.entry(key).or_default();
            for (sql, n) in per {
                *mine.entry(sql).or_default() += n;
            }
        }
    }
}

/// One round of a measured loop.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub ops: u64,
    pub seconds: f64,
    pub p50_ms: f64,
}

/// What one measured loop produced.
pub struct Measured {
    pub latencies_ms: Vec<f64>,
    pub rounds: Vec<Round>,
    /// The p99 of each window of consecutive rounds (see `Windows`).
    pub p99_windows_ms: Vec<f64>,
    pub tally: Tally,
    pub served: Served,
    pub reconnects: u64,
    pub errors: Vec<String>,
    pub spans: Vec<crate::trace::SpanRec>,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            latencies_ms: Vec::new(),
            rounds: Vec::new(),
            p99_windows_ms: Vec::new(),
            tally: Tally::default(),
            served: Served::default(),
            reconnects: 0,
            errors: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Two consecutive loops over the same stack as one: their operations,
    /// answers and errors add up; latencies and spans are concatenated.
    pub fn merge_loops(mut self, other: Measured) -> Measured {
        self.latencies_ms.extend(other.latencies_ms);
        self.rounds.extend(other.rounds);
        self.p99_windows_ms.extend(other.p99_windows_ms);
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
        self.served.merge(other.served);
        self.reconnects += other.reconnects;
        self.errors.extend(other.errors);
        self.spans.extend(other.spans);
        self
    }
}

/// Records the rounds of a measured loop and decides when it ends. A p99
/// window closes at the first round boundary with at least
/// `MIN_REQUESTS` samples since the previous one; a partial window at the
/// end of the loop is dropped.
struct Windows {
    started: Instant,
    seconds: f64,
    from: usize,
    tail_from: usize,
    ops: u64,
    opened: Instant,
}

impl Windows {
    fn new(seconds: f64) -> Windows {
        let now = Instant::now();
        Windows {
            started: now,
            seconds,
            from: 0,
            tail_from: 0,
            ops: 0,
            opened: now,
        }
    }

    /// Called after every round: records it and says whether the loop is
    /// over.
    fn round_done(&mut self, m: &mut Measured) -> bool {
        let mut window = m.latencies_ms[self.from..].to_vec();
        window.sort_by(f64::total_cmp);
        m.rounds.push(Round {
            ops: m.tally.attempted - self.ops,
            seconds: self.opened.elapsed().as_secs_f64(),
            p50_ms: crate::stats::median(&window).unwrap_or(0.0),
        });
        self.from = m.latencies_ms.len();
        if self.from - self.tail_from >= MIN_REQUESTS {
            let mut window = m.latencies_ms[self.tail_from..].to_vec();
            window.sort_by(f64::total_cmp);
            m.p99_windows_ms
                .extend(crate::stats::percentile(&window, 9900));
            self.tail_from = self.from;
        }
        self.ops = m.tally.attempted;
        self.opened = Instant::now();
        let elapsed = self.started.elapsed();
        elapsed >= MAX_RUN
            || (elapsed.as_secs_f64() >= self.seconds && m.latencies_ms.len() >= MIN_REQUESTS)
    }
}

/// Database states seen by a run: the initial databases (ids
/// `0..databases`), then one state per row write, kept as a log of the
/// rows written so that the run's memory footprint does not grow with
/// copies of whole databases. `current[db]` is the live state of `db`.
pub struct States {
    initial: Vec<Database>,
    /// `(database, parent state, table, row)` per write.
    writes: Vec<(usize, usize, String, Row)>,
    pub current: Vec<usize>,
}

impl States {
    pub fn new(dbs: &[Database]) -> States {
        States {
            initial: dbs.to_vec(),
            writes: Vec::new(),
            current: (0..dbs.len()).collect(),
        }
    }

    fn push(&mut self, db: usize, table: String, row: Row) {
        self.writes.push((db, self.current[db], table, row));
        self.current[db] = self.initial.len() + self.writes.len() - 1;
    }

    /// Every state as a database, rebuilt by replaying the write log.
    pub fn materialize(&self) -> Result<Vec<Database>, String> {
        let mut all = self.initial.clone();
        for (db, parent, table, row) in &self.writes {
            let mut state = all[*parent].clone();
            state
                .table_mut(table)
                .ok_or_else(|| format!("table {table} missing from {}", self.initial[*db].name))?
                .insert(row.clone())
                .map_err(|e| format!("replaying a write to {table}: {e}"))?;
            all.push(state);
        }
        Ok(all)
    }
}

/// `offline-spider`: one thread calls `CodesSystem::infer` over the dev
/// set, round after round. `first` keeps the first inference of every
/// query for the beam check.
pub fn offline(
    system: &CodesSystem,
    dbs: &[Database],
    queries: &[Query],
    seconds: f64,
    record: Option<Instant>,
    first: &mut HashMap<usize, Inference>,
) -> Measured {
    let mut m = Measured::new();
    let mut rec = record.map(|epoch| Recorder::new(epoch, 0));
    let requests: Vec<InferenceRequest> = queries
        .iter()
        .map(|q| InferenceRequest::new(&q.db_id, &q.question))
        .collect();
    // Warm-up round, untimed.
    for (q, r) in queries.iter().zip(&requests).take(ROUND) {
        system.infer(&dbs[q.db], r);
    }
    let mut windows = Windows::new(seconds);
    let mut req_id = 0u64;
    let mut next = 0usize;
    loop {
        for _ in 0..ROUND {
            let i = next % queries.len();
            next += 1;
            let (q, r) = (&queries[i], &requests[i]);
            req_id += 1;
            let sent = Instant::now();
            let out = match rec.as_mut() {
                Some(rec) => rec.time("client.request", 0, req_id, || system.infer(&dbs[q.db], r)),
                None => system.infer(&dbs[q.db], r),
            };
            m.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            m.tally.read();
            m.served.add(q.db, i, &out.sql);
            // The first inference of each question is kept for the beam
            // check; every later one must repeat its SQL.
            first.entry(i).or_insert(out);
        }
        if windows.round_done(&mut m) {
            break;
        }
    }
    m.spans = rec.map(|r| r.spans).unwrap_or_default();
    m
}

/// One client's share of a load phase.
struct Share {
    latencies_ms: Vec<f64>,
    served: Served,
    reads: u64,
    errors: Vec<String>,
    spans: Vec<crate::trace::SpanRec>,
}

/// Run `plan[c]` on client `c`, all clients at once, and wait for all.
fn load_phase(
    clients: &mut [Client],
    plan: &[Vec<usize>],
    queries: &[Query],
    states: &States,
    record: Option<Instant>,
    first_request: u64,
) -> Vec<Share> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plan)
            .enumerate()
            .map(|(c, (client, mine))| {
                scope.spawn(move || {
                    // Recorder numbers are unique per (round, client), so span ids are too.
                    let thread = ((first_request >> 20) << 8) + c as u64 + 1;
                    let mut rec = record.map(|epoch| Recorder::new(epoch, thread));
                    let mut share = Share {
                        latencies_ms: Vec::with_capacity(mine.len()),
                        served: Served::default(),
                        reads: 0,
                        errors: Vec::new(),
                        spans: Vec::new(),
                    };
                    for (k, &qi) in mine.iter().enumerate() {
                        let q = &queries[qi];
                        // Unique per span file: round base + position + client.
                        let request = first_request + (k as u64) * 64 + c as u64;
                        let sent = Instant::now();
                        let reply = match rec.as_mut() {
                            Some(rec) => rec.time("client.request", 0, request, || {
                                client.infer(&q.db_id, &q.question)
                            }),
                            None => client.infer(&q.db_id, &q.question),
                        };
                        share.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        share.reads += 1;
                        match reply {
                            Ok(reply) => share.served.add(states.current[q.db], qi, &reply.sql),
                            Err(e) => share
                                .errors
                                .push(format!("{} / {}: {e}", q.db_id, q.question)),
                        }
                    }
                    share.spans = rec.map(|r| r.spans).unwrap_or_default();
                    share
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn absorb(m: &mut Measured, shares: Vec<Share>) {
    for s in shares {
        m.latencies_ms.extend(s.latencies_ms);
        m.served.merge(s.served);
        m.tally.attempted += s.reads;
        m.errors.extend(s.errors);
        m.spans.extend(s.spans);
    }
}

/// Deal `round` requests to `n` clients round-robin.
fn deal(round: &[usize], n: usize) -> Vec<Vec<usize>> {
    let mut plan = vec![Vec::new(); n];
    for (k, &q) in round.iter().enumerate() {
        plan[k % n].push(q);
    }
    plan
}

/// Popularity and write schedule of `online-hot-writes`.
pub struct HotPlan {
    zipf: Zipf,
    /// The question each database's probe sends: its most popular one.
    probe: Vec<usize>,
    /// Databases written, one per round, in their fixed order (cycled).
    writes: Vec<usize>,
    rng: Rng,
    write_rng: Rng,
    pub round: usize,
}

impl HotPlan {
    pub fn new(queries: &[Query], n_dbs: usize, seed: u64) -> Result<HotPlan, String> {
        let probe = (0..n_dbs)
            .map(|db| {
                queries
                    .iter()
                    .position(|q| q.db == db)
                    .ok_or_else(|| format!("database {db} has no question in the pool"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(HotPlan {
            zipf: Zipf::new(queries.len(), HOT_SKEW),
            probe,
            writes: (0..n_dbs).collect(),
            rng: Rng::new(seed ^ 0x407),
            write_rng: Rng::new(seed ^ 0x3217E),
            round: 0,
        })
    }

    fn next_load(&mut self) -> Vec<usize> {
        (0..HOT_ROUND)
            .map(|_| self.zipf.sample(&mut self.rng))
            .collect()
    }

    fn write_target(&self, round: usize) -> usize {
        self.writes[round % self.writes.len()]
    }
}

/// Send one read through client 0 outside any load phase. Returns
/// whether the answer came from the result cache, `None` on an error.
fn single(client: &mut Client, q: &Query, m: &mut Measured) -> Option<crate::stack::Reply> {
    let sent = Instant::now();
    let reply = client.infer(&q.db_id, &q.question);
    m.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
    reply
        .map_err(|e| m.errors.push(format!("{} / {}: {e}", q.db_id, q.question)))
        .ok()
}

/// `online-hot-writes`: skewed reads over a long-tailed pool through the
/// cached stack, one row write per round. Each round:
///
/// 1. write one row to the round's database (nothing in flight);
/// 2. probe: read that database's probe question, answered in the
///    previous round — a cached answer is a stale read, counted failed;
/// 3. load: `HOT_ROUND` Zipf-distributed reads over all clients;
/// 4. settle: read the next round's probe question twice, so its answer
///    is cached under the database's current generation before the write.
#[allow(clippy::too_many_arguments)]
pub fn online_hot(
    stack: &Stack,
    clients: &mut [Client],
    queries: &[Query],
    states: &mut States,
    plan: &mut HotPlan,
    seconds: f64,
    record: Option<Instant>,
    warm: bool,
) -> Measured {
    let mut m = Measured::new();
    let mut rec = record.map(|epoch| Recorder::new(epoch, 0));
    // Settle reads are ordinary reads, checked like every load read.
    let settle = |m: &mut Measured, clients: &mut [Client], plan: &HotPlan, states: &States| {
        let qi = plan.probe[plan.write_target(plan.round)];
        for _ in 0..2 {
            m.tally.read();
            if let Some(reply) = single(&mut clients[0], &queries[qi], m) {
                m.served.add(states.current[queries[qi].db], qi, &reply.sql);
            }
        }
    };
    if warm {
        let load = plan.next_load();
        let shares = load_phase(
            clients,
            &deal(&load, clients.len()),
            queries,
            states,
            None,
            0,
        );
        let mut w = Measured::new();
        absorb(&mut w, shares);
        settle(&mut w, clients, plan, states);
        m.errors.extend(w.errors);
        m.served.merge(w.served);
    }
    let mut windows = Windows::new(seconds);
    loop {
        let db = plan.write_target(plan.round);
        let db_id = queries[plan.probe[db]].db_id.clone();
        let opened = rec.as_mut().map(|r| r.open());
        match stack.write(&db_id, &mut plan.write_rng) {
            Ok((table, row)) => states.push(db, table, row),
            Err(e) => m.errors.push(e),
        }
        if let (Some(r), Some(o)) = (rec.as_mut(), opened) {
            r.close(o, "storage.write", 0, 0);
        }

        let probe = plan.probe[db];
        match single(&mut clients[0], &queries[probe], &mut m) {
            Some(reply) => {
                // A stale answer is the failure itself; a fresh one is
                // checked like any other read.
                if !m.tally.probe(reply.cached) {
                    m.served.add(states.current[db], probe, &reply.sql);
                }
            }
            None => m.tally.read(),
        }

        let load = plan.next_load();
        let shares = load_phase(
            clients,
            &deal(&load, clients.len()),
            queries,
            states,
            record,
            (plan.round as u64) << 20,
        );
        absorb(&mut m, shares);
        plan.round += 1;
        settle(&mut m, clients, plan, states);
        if windows.round_done(&mut m) {
            break;
        }
    }
    m.reconnects = clients.iter().map(|c| c.reconnects).sum();
    m.spans.extend(rec.map(|r| r.spans).unwrap_or_default());
    m
}

/// The request the reference inference answers: the serving pool's base
/// configuration, no deadline clamp (nothing here is near its deadline).
pub fn reference_request(q: &Query) -> InferenceRequest {
    InferenceRequest::new(&q.db_id, &q.question).with_config(Config::serving())
}

/// What the checks found: operations checked, distinct answers (one per
/// question and database state), how many of those match the gold SQL's
/// result, and every mismatch.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checked: u64,
    pub answers: u64,
    pub matched: u64,
    pub errors: Vec<String>,
}

impl Verdict {
    fn absorb(&mut self, other: Verdict) {
        self.checked += other.checked;
        self.answers += other.answers;
        self.matched += other.matched;
        self.errors.extend(other.errors);
    }

    /// Execution accuracy over distinct answers, so a few very popular
    /// questions cannot dominate it.
    pub fn ex_pct(&self) -> f64 {
        if self.answers == 0 {
            0.0
        } else {
            self.matched as f64 / self.answers as f64 * 100.0
        }
    }
}

/// Check every served answer against an in-process reference inference
/// on the same database state (computed in parallel on `threads`), and
/// execute each distinct answer against the gold SQL.
pub fn verify_served(
    reference: &Arc<CodesSystem>,
    served: &Served,
    queries: &[Query],
    states: &States,
    threads: usize,
) -> Verdict {
    let snapshots = match states.materialize() {
        Ok(all) => all,
        Err(e) => {
            return Verdict {
                errors: vec![e],
                ..Verdict::default()
            }
        }
    };
    let snapshots = &snapshots;
    let mut keys: Vec<(usize, usize)> = served.0.keys().copied().collect();
    keys.sort_unstable();
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Verdict> = std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut v = Verdict::default();
                    for &(state, qi) in part {
                        let db = &snapshots[state];
                        let q = &queries[qi];
                        let expected = reference.infer(db, &reference_request(q)).sql;
                        let per = &served.0[&(state, qi)];
                        for (sql, &n) in per {
                            v.checked += n;
                            if let Err(e) = check::check_served(sql, &expected) {
                                v.errors.push(format!("{} / {}: {e}", q.db_id, q.question));
                            }
                        }
                        v.answers += 1;
                        v.matched += u64::from(
                            per.keys()
                                .all(|sql| check::execution_match(db, sql, &q.gold)),
                        );
                    }
                    v
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .collect()
    });
    parts.into_iter().fold(Verdict::default(), |mut all, part| {
        all.absorb(part);
        all
    })
}

/// Check offline outputs: every round repeats the first inference of its
/// query, whose choice must be the first executable beam candidate.
pub fn verify_offline(
    served: &Served,
    first: &HashMap<usize, Inference>,
    queries: &[Query],
    dbs: &[Database],
    config: &Config,
) -> Verdict {
    let mut v = Verdict::default();
    for (&(_, qi), per) in &served.0 {
        let q = &queries[qi];
        let db = &dbs[q.db];
        let Some(inf) = first.get(&qi) else {
            v.errors
                .push(format!("{}: no first inference kept", q.question));
            continue;
        };
        if let Err(e) = check::check_choice(
            db,
            &inf.sql,
            &inf.generation.beam,
            &config.exec_limits,
            config.retry_attempts,
        ) {
            v.errors.push(format!("{} / {}: {e}", q.db_id, q.question));
        }
        for (sql, &n) in per {
            v.checked += n;
            if sql != &inf.sql {
                v.errors.push(format!(
                    "{}: round output `{sql}` differs from `{}`",
                    q.question, inf.sql
                ));
            }
        }
        v.answers += 1;
        v.matched += u64::from(check::execution_match(db, &inf.sql, &q.gold));
    }
    v
}
