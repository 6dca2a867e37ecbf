//! The traced run: per-layer numbers taken from outside the program.
//!
//! Every workload's traced run makes three passes over inputs made from its
//! seed, and reports every per-layer metric:
//!
//! 1. **wire** — the workload's own requests over TCP to a fresh daemon,
//!    then the same lines through an in-process `Server::dispatch_line`;
//!    the per-request difference is the wire's share, and `/proc` gives
//!    the daemon's CPU time and context switches over the TCP pass;
//! 2. **session** — one durable session's script through an in-process
//!    `SessionRegistry`, through a plain `DurableScheduler`, and through a
//!    `DurableScheduler` whose backend and store are forwarding wrappers
//!    that record spans; then a recovery from the traced pass's files;
//! 3. **solve** — solve jobs layer by layer (instance, backend build,
//!    first-fit or tile shards plus parallel first-fit), traced and
//!    untraced.
//!
//! The session workloads drive their own script through passes 1–2 and
//! measure pass 3 on first-fit and parallel solves of the same universe;
//! `batch_solve` drives its own jobs through passes 1 and 3 and measures
//! pass 2 on a smaller dense session. Every traced pass must end in the
//! same state (fingerprint, or colors and energy) as its untraced twin.

use crate::clock::{ms, now_ns, us};
use crate::daemon::{clock_ticks_per_sec, Daemon};
use crate::e2e::{apply_response, op_request, SESSION_TAG};
use crate::plan::{
    batch_jobs, complement_jobs, derive_seed, session_plan, Op, SessionPlan, SessionShape,
    CHECKPOINT_EVERY,
};
use crate::stats::{mean, nearest_rank, Ratio};
use crate::trace::{Span, SpanIndex, Tracer};
use crate::wrap::{EngineCounts, TracedBackend, TracedStore};
use crate::{Ctx, Report};
use oblisched::durability::{DiskStore, DurableScheduler, SessionStore};
use oblisched::dynamic::{DynamicConfig, RequestId};
use oblisched::greedy::first_fit_coloring;
use oblisched::parallel::{parallel_first_fit, tile_shards, ParallelConfig, DEFAULT_TARGET_SHARDS};
use oblisched::scheduler::{Scheduler, SessionBackend, DEFAULT_MATRIX_BUDGET};
use oblisched::solve::{BackendPolicy, SolveStrategy};
use oblisched_instances::{build_family, Family, FamilyInstance};
use oblisched_metric::{MetricSpace, PlanarMetric};
use oblisched_server::load::Client;
use oblisched_server::protocol::{
    parse_request, parse_response, render_request, render_response, SessionVerb, SolveJob,
    StatsSpec, WireRequest, WireResponse,
};
use oblisched_server::session::state_fingerprint;
use oblisched_server::{Server, ServerConfig, SessionRegistry};
use oblisched_sinr::feasibility::VariantView;
use oblisched_sinr::{
    GainMatrix, IncrementalSystem, Instance, InterferenceSystem, SinrParams, SparseConfig,
    SparseGainMatrix,
};
use std::path::{Path, PathBuf};

/// Seed tag of the smaller session `batch_solve`'s traced run measures.
const COMPLEMENT_TAG: u64 = 0xC0E5;
/// Session name used by every in-process pass.
const NAME: &str = "traced";
/// Minimum parse/render calls per protocol timing.
const PROTOCOL_CALLS: usize = 4000;
/// Pings after each solve of `batch_solve`'s wire pass.
const PINGS_PER_SOLVE: usize = 20;

fn p50(samples: &[f64]) -> f64 {
    nearest_rank(samples, 50.0).map_or(0.0, |p| p.value)
}

fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(&path).map_err(|e| format!("clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// One request line sent over TCP, its response line and round trip.
struct Exchange {
    line: String,
    response: String,
    rtt_ns: u64,
}

fn exchange(client: &mut Client, line: String) -> Result<Exchange, String> {
    let start = now_ns();
    let response = client.raw_line(&line).map_err(|e| e.to_string())?;
    let rtt_ns = now_ns() - start;
    Ok(Exchange {
        line,
        response,
        rtt_ns,
    })
}

fn parsed(exchange: &Exchange) -> Result<WireResponse, String> {
    match parse_response(&exchange.response).map_err(|e| e.to_string())? {
        WireResponse::Error(e) => Err(format!("{} answered {e}", exchange.line)),
        response => Ok(response),
    }
}

/// The TCP half of the wire pass for a session script: open, every op,
/// a certifying `stats`.
fn tcp_session(client: &mut Client, plan: &SessionPlan) -> Result<(Vec<Exchange>, u64), String> {
    let mut out = Vec::with_capacity(plan.ops.len() + 2);
    let open = WireRequest::Session(SessionVerb::Open(plan.open_spec(NAME)));
    out.push(exchange(client, render_request(&open))?);
    parsed(&out[0])?;
    let mut ids = vec![None; plan.universe];
    for &op in &plan.ops {
        let ex = exchange(client, render_request(&op_request(NAME, op, &ids)?))?;
        apply_response(op, &parsed(&ex)?, &mut ids)?;
        out.push(ex);
    }
    let stats = WireRequest::Session(SessionVerb::Stats(StatsSpec {
        name: NAME.to_owned(),
        validate: Some(true),
    }));
    let ex = exchange(client, render_request(&stats))?;
    let fingerprint = match parsed(&ex)? {
        WireResponse::Stats(st) if st.validated => {
            u64::from_str_radix(&st.fingerprint, 16).map_err(|e| format!("bad fingerprint: {e}"))?
        }
        other => return Err(format!("traced stats answered {other:?}")),
    };
    out.push(ex);
    Ok((out, fingerprint))
}

/// The TCP half of the wire pass for solve jobs: each job, then a burst
/// of pings — the read requests the wire's share is measured on.
fn tcp_solves(client: &mut Client, jobs: &[SolveJob]) -> Result<Vec<Exchange>, String> {
    let mut out = Vec::with_capacity(jobs.len() * (PINGS_PER_SOLVE + 1));
    for job in jobs {
        out.push(exchange(client, render_request(&WireRequest::Solve(*job)))?);
        parsed(out.last().ok_or("no exchange")?)?;
        for _ in 0..PINGS_PER_SOLVE {
            out.push(exchange(client, render_request(&WireRequest::Ping))?);
        }
    }
    Ok(out)
}

/// `solved.wall_ms` is the daemon's own clock reading; everything else in
/// a response must match the in-process dispatch exactly.
fn without_timing(response: WireResponse) -> WireResponse {
    match response {
        WireResponse::Solved(mut outcome) => {
            outcome.wall_ms = 0.0;
            WireResponse::Solved(outcome)
        }
        other => other,
    }
}

/// Wire and protocol numbers.
struct WireNumbers {
    overhead_us: Vec<f64>,
    bytes: f64,
    ops: f64,
    cpu_ms: f64,
    ctx_switches: f64,
    parse_us: f64,
    render_us: f64,
    /// Final session fingerprint of the TCP pass (session workloads).
    fingerprint: Option<u64>,
    /// Wire `(colors, energy)` per solve job (batch).
    solved: Vec<(usize, f64)>,
}

fn wire_pass(
    ctx: &Ctx,
    plan: Option<&SessionPlan>,
    jobs: &[SolveJob],
) -> Result<WireNumbers, String> {
    let data = fresh_dir(ctx.work.join("wire-data"))?;
    let daemon = Daemon::spawn(&ctx.server, &data, &ctx.log())?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
    let ticks = daemon.cpu_ticks().ok_or("no /proc stat for the daemon")?;
    let switches = daemon
        .context_switches()
        .ok_or("no /proc status for the daemon")?;
    let (exchanges, fingerprint) = match plan {
        Some(plan) => {
            let (ex, fp) = tcp_session(&mut client, plan)?;
            (ex, Some(fp))
        }
        None => (tcp_solves(&mut client, jobs)?, None),
    };
    let ticks = daemon.cpu_ticks().ok_or("no /proc stat for the daemon")? - ticks;
    let switches = daemon.context_switches().ok_or("no /proc status")? - switches;
    drop(client);
    daemon.shutdown()?;

    // The same lines through the daemon core in process, no TCP.
    let server = Server::bind(&ServerConfig {
        addr: String::from("127.0.0.1:0"),
        data_dir: fresh_dir(ctx.work.join("dispatch-data"))?,
        clock: None,
    })
    .map_err(|e| format!("bind in-process server: {e}"))?;
    let mut overhead_us = Vec::with_capacity(exchanges.len());
    let mut responses = Vec::with_capacity(exchanges.len());
    for ex in &exchanges {
        let start = now_ns();
        let response = server.dispatch_line(&ex.line);
        let dispatch_ns = now_ns() - start;
        let over_tcp = without_timing(parsed(ex)?);
        if without_timing(response.clone()) != over_tcp {
            return Err(format!(
                "in-process dispatch of {} differs from the daemon's answer",
                ex.line
            ));
        }
        // The wire's share is taken on the read requests: on a solve or a
        // sparse-tier write it drowns in the variance of the work itself.
        if matches!(response, WireResponse::Color(_) | WireResponse::Pong) {
            overhead_us.push(us(ex.rtt_ns) - us(dispatch_ns));
        }
        responses.push(response);
    }
    server.registry().shutdown_all();
    drop(server);

    let lines: Vec<&str> = exchanges.iter().map(|ex| ex.line.as_str()).collect();
    let reps = PROTOCOL_CALLS.div_ceil(lines.len().max(1));
    let start = now_ns();
    for _ in 0..reps {
        for line in &lines {
            std::hint::black_box(parse_request(std::hint::black_box(line)).is_ok());
        }
    }
    let parse_us = us(now_ns() - start) / (reps * lines.len()) as f64;
    let start = now_ns();
    for _ in 0..reps {
        for response in &responses {
            std::hint::black_box(render_response(std::hint::black_box(response)).len());
        }
    }
    let render_us = us(now_ns() - start) / (reps * responses.len()) as f64;

    let solved = responses
        .iter()
        .filter_map(|r| match r {
            WireResponse::Solved(o) => Some((o.colors, o.energy)),
            _ => None,
        })
        .collect();
    Ok(WireNumbers {
        overhead_us,
        bytes: exchanges
            .iter()
            .map(|ex| (ex.line.len() + ex.response.len() + 2) as f64)
            .sum(),
        ops: exchanges.len() as f64,
        cpu_ms: ticks as f64 / clock_ticks_per_sec() * 1e3,
        ctx_switches: switches as f64,
        parse_us,
        render_us,
        fingerprint,
        solved,
    })
}

/// Session-layer numbers.
#[derive(Default)]
struct SessionNumbers {
    open_ms: f64,
    recover_all_ms: f64,
    hop_us: Vec<f64>,
    events: f64,
    inserts: f64,
    removes: f64,
    colors_sum: f64,
    insert_counts: EngineCounts,
    appends: f64,
    loop_snapshots: f64,
    wal_bytes: f64,
    snapshot_bytes: f64,
    engine_rows: f64,
    engine_entries: f64,
    engine_bytes: f64,
    untraced_ns: u64,
    traced_ns: u64,
    first_traced_ns: u64,
    fingerprint: u64,
    session_spans: Vec<Span>,
    recover_spans: Vec<Span>,
}

/// Runs `plan` through an in-process registry: the per-op times, the open
/// time, and the recovery of a second registry over the same directory.
fn registry_pass(
    ctx: &Ctx,
    plan: &SessionPlan,
    numbers: &mut SessionNumbers,
) -> Result<(Vec<u64>, u64), String> {
    let dir = fresh_dir(ctx.work.join("registry-data"))?;
    let registry = SessionRegistry::new(&dir).map_err(|e| e.to_string())?;
    let start = now_ns();
    registry
        .open(&plan.open_spec(NAME))
        .map_err(|e| e.to_string())?;
    numbers.open_ms = ms(now_ns() - start);
    let mut ids = vec![None; plan.universe];
    let mut times = Vec::with_capacity(plan.ops.len());
    for &op in &plan.ops {
        let start = now_ns();
        match op {
            Op::Insert(item) => {
                ids[item] = Some(registry.insert(NAME, item).map_err(|e| e.to_string())?.id);
            }
            Op::Remove(item) => {
                let id = ids[item].take().ok_or("script removes a dead item")?;
                registry.remove(NAME, id).map_err(|e| e.to_string())?;
            }
            Op::Color(item) => {
                let id = ids[item].ok_or("script reads a dead item")?;
                registry.color(NAME, id).map_err(|e| e.to_string())?;
            }
        }
        times.push(now_ns() - start);
    }
    let st = registry.stats(NAME, true).map_err(|e| e.to_string())?;
    let fingerprint = u64::from_str_radix(&st.fingerprint, 16).map_err(|e| e.to_string())?;
    if !st.validated {
        return Err(String::from(
            "registry pass: stats did not certify the coloring",
        ));
    }
    if ctx.checkpoint_before_kill() {
        registry.close(NAME).map_err(|e| e.to_string())?;
    }
    // Dropping the registry stops its actors without a checkpoint: the
    // next registry recovers like a restarted daemon.
    drop(registry);
    let registry = SessionRegistry::new(&dir).map_err(|e| e.to_string())?;
    let start = now_ns();
    let rows = registry.recover_all();
    numbers.recover_all_ms = ms(now_ns() - start);
    for (name, outcome) in rows {
        outcome.map_err(|e| format!("registry recovery of {name}: {e}"))?;
    }
    let recovered = registry.stats(NAME, false).map_err(|e| e.to_string())?;
    if recovered.fingerprint != st.fingerprint {
        return Err(String::from("registry recovery changed the fingerprint"));
    }
    registry.shutdown_all();
    Ok((times, fingerprint))
}

/// Backend size as `(rows, stored entries, bytes)`.
fn backend_size<M: MetricSpace>(backend: &SessionBackend<'_, '_, '_, M>) -> (f64, f64, f64) {
    match backend {
        SessionBackend::Dense(m) => {
            let (n, ports) = (m.len() as f64, m.ports() as f64);
            (
                n * ports,
                n * n * ports,
                GainMatrix::bytes_for(m.len(), m.ports()) as f64,
            )
        }
        SessionBackend::Sparse(s) => (
            s.materialized_rows() as f64,
            s.stored_entries() as f64,
            s.bytes() as f64,
        ),
        SessionBackend::Fly(_) => (0.0, 0.0, 0.0),
    }
}

/// Replays `plan` through a `DurableScheduler` over `backend` and `store`;
/// with `tracer` enabled each op is a span. Returns the per-op times.
fn durable_ops<B, St>(
    session: &mut DurableScheduler<'_, B, St>,
    plan: &SessionPlan,
    tracer: &Tracer,
    mut after_op: impl FnMut(Op, &DurableScheduler<'_, B, St>),
) -> Result<Vec<u64>, String>
where
    B: oblisched_sinr::GainBackend + ?Sized,
    St: SessionStore,
{
    let mut ids: Vec<Option<RequestId>> = vec![None; plan.universe];
    let mut times = Vec::with_capacity(plan.ops.len());
    for &op in &plan.ops {
        let start = now_ns();
        match op {
            Op::Insert(item) => {
                let id = tracer.span("op.insert", || session.insert(item));
                ids[item] = Some(id.map_err(|e| e.to_string())?);
            }
            Op::Remove(item) => {
                let id = ids[item].take().ok_or("script removes a dead item")?;
                tracer
                    .span("op.remove", || session.remove(id))
                    .map_err(|e| e.to_string())?;
            }
            Op::Color(item) => {
                let id = ids[item].ok_or("script reads a dead item")?;
                tracer
                    .span("op.color", || session.scheduler().color_of(id))
                    .ok_or("read of a dead id")?;
            }
        }
        times.push(now_ns() - start);
        after_op(op, session);
    }
    Ok(times)
}

/// One untraced pass of `plan` through a plain `DurableScheduler` in
/// `dir`: per-op times, loop wall time, final fingerprint.
fn untraced_pass<M: MetricSpace + PlanarMetric>(
    view: &VariantView<'_, '_, M>,
    plan: &SessionPlan,
    dir: PathBuf,
) -> Result<(Vec<u64>, u64, u64), String> {
    let scheduler = Scheduler::new(SinrParams::default());
    let (backend, _) = scheduler.session_backend(view, BackendPolicy::Auto);
    let store = DiskStore::open(fresh_dir(dir)?).map_err(|e| e.to_string())?;
    let mut session =
        DurableScheduler::create(&backend, DynamicConfig::default(), CHECKPOINT_EVERY, store)
            .map_err(|e| e.to_string())?;
    let start = now_ns();
    let times = durable_ops(&mut session, plan, &Tracer::new(false), |_, _| {})?;
    let wall = now_ns() - start;
    Ok((
        times,
        wall,
        state_fingerprint(&session.scheduler().export_state()),
    ))
}

/// One traced pass of `plan` in `dir`: the backend and the store are
/// forwarding wrappers recording into `tracer`. Fills `numbers` with the
/// pass's counters and returns the loop wall time and final fingerprint.
fn traced_pass<M: MetricSpace + PlanarMetric>(
    ctx: &Ctx,
    view: &VariantView<'_, '_, M>,
    plan: &SessionPlan,
    dir: &Path,
    tracer: &Tracer,
    numbers: &mut SessionNumbers,
) -> Result<(u64, u64), String> {
    let scheduler = Scheduler::new(SinrParams::default());
    let (backend, _) = tracer.span("backend.build", || {
        scheduler.session_backend(view, BackendPolicy::Auto)
    });
    let wrapped = TracedBackend::new(&backend, tracer);
    let store = TracedStore::new(
        DiskStore::open(fresh_dir(dir.to_path_buf())?).map_err(|e| e.to_string())?,
        tracer,
    );
    let mut session = tracer
        .span("durable.create", || {
            DurableScheduler::create(&wrapped, DynamicConfig::default(), CHECKPOINT_EVERY, store)
        })
        .map_err(|e| e.to_string())?;
    let created = session.store().counts();
    let mut insert_counts = EngineCounts::default();
    let mut before = wrapped.counts();
    let mut colors_sum = 0.0;
    let start = now_ns();
    durable_ops(&mut session, plan, tracer, |op, s| {
        let now = wrapped.counts();
        if matches!(op, Op::Insert(_)) {
            insert_counts.fold_calls += now.fold_calls - before.fold_calls;
            insert_counts.fold_members += now.fold_members - before.fold_members;
            insert_counts.fold_accepts += now.fold_accepts - before.fold_accepts;
            insert_counts.row_fetches += now.row_fetches - before.row_fetches;
        }
        if !matches!(op, Op::Color(_)) {
            colors_sum += s.scheduler().num_colors() as f64;
        }
        before = now;
    })?;
    let wall = now_ns() - start;
    let counts = session.store().counts();
    numbers.colors_sum = colors_sum;
    numbers.appends = (counts.appends - created.appends) as f64;
    numbers.loop_snapshots = (counts.snapshots - created.snapshots) as f64;
    numbers.insert_counts = insert_counts;
    numbers.wal_bytes = file_len(&dir.join(DiskStore::WAL_FILE));
    numbers.snapshot_bytes = file_len(&dir.join(DiskStore::SNAPSHOT_FILE));
    (
        numbers.engine_rows,
        numbers.engine_entries,
        numbers.engine_bytes,
    ) = backend_size(&backend);
    if ctx.checkpoint_before_kill() {
        session.checkpoint().map_err(|e| e.to_string())?;
    }
    // Dropped without a checkpoint otherwise: a recovery from `dir` starts
    // from the last cadence snapshot plus the WAL tail, as after a crash.
    Ok((wall, state_fingerprint(&session.scheduler().export_state())))
}

/// The direct passes in ABBA order (untraced, traced, traced, untraced, so
/// warm-up and drift cancel in the overhead ratio), then a recovery from
/// the first traced pass's files. Returns the first untraced pass's
/// per-op times.
fn session_stack<M: MetricSpace + PlanarMetric>(
    ctx: &Ctx,
    instance: &Instance<M>,
    numbers: &mut SessionNumbers,
    plan: &SessionPlan,
    tracer: &Tracer,
) -> Result<Vec<u64>, String> {
    let spec = plan.open_spec(NAME);
    let power = spec.assignment.scheme();
    let eval = instance.evaluator(SinrParams::default(), &power);
    let view = eval.view(spec.variant);

    let (direct_times, u1, untraced_fp) = untraced_pass(&view, plan, ctx.work.join("direct-a"))?;
    let traced_dir = ctx.work.join("traced-a");
    let (t1, traced_fp) = traced_pass(ctx, &view, plan, &traced_dir, tracer, numbers)?;
    let mut scratch = SessionNumbers::default();
    let repeat_dir = ctx.work.join("traced-b");
    let (t2, repeat_fp) = traced_pass(
        ctx,
        &view,
        plan,
        &repeat_dir,
        &Tracer::new(true),
        &mut scratch,
    )?;
    let (_, u2, _) = untraced_pass(&view, plan, ctx.work.join("direct-b"))?;
    numbers.untraced_ns = u1 + u2;
    numbers.traced_ns = t1 + t2;
    numbers.first_traced_ns = t1;
    if traced_fp != untraced_fp || repeat_fp != untraced_fp {
        return Err(format!(
            "traced session passes ended at {traced_fp:016x} and {repeat_fp:016x}, \
             untraced at {untraced_fp:016x}"
        ));
    }
    numbers.fingerprint = traced_fp;

    // Recovery from the first traced pass's files, on a fresh backend.
    let recover_tracer = Tracer::new(true);
    let scheduler = Scheduler::new(SinrParams::default());
    let (backend, _) = tracer.span("backend.build", || {
        scheduler.session_backend(&view, BackendPolicy::Auto)
    });
    let wrapped = TracedBackend::new(&backend, &recover_tracer);
    let store = TracedStore::new(
        DiskStore::open(&traced_dir).map_err(|e| e.to_string())?,
        &recover_tracer,
    );
    let recovered = recover_tracer
        .span("durable.recover", || {
            DurableScheduler::recover(&wrapped, store)
        })
        .map_err(|e| format!("recovery of the traced session: {e}"))?;
    let recovered_fp = state_fingerprint(&recovered.scheduler().export_state());
    if recovered_fp != traced_fp {
        return Err(format!(
            "recovery ended at {recovered_fp:016x}, the traced pass at {traced_fp:016x}"
        ));
    }
    drop(recovered);
    numbers.recover_spans = recover_tracer.spans();
    Ok(direct_times)
}

fn session_layers(ctx: &Ctx, plan: &SessionPlan) -> Result<SessionNumbers, String> {
    let mut numbers = SessionNumbers::default();
    let (registry_times, registry_fp) = registry_pass(ctx, plan, &mut numbers)?;
    let tracer = Tracer::new(true);
    let instance = tracer
        .span("instances.build_family", || {
            build_family(Family::Scaling, plan.universe, plan.seed)
        })
        .map_err(|e| e.to_string())?;
    let direct_times = match &instance {
        FamilyInstance::Planar(inst) => session_stack(ctx, inst, &mut numbers, plan, &tracer)?,
        FamilyInstance::Line(inst) => session_stack(ctx, inst, &mut numbers, plan, &tracer)?,
    };
    if registry_fp != numbers.fingerprint {
        return Err(format!(
            "registry pass ended at {registry_fp:016x}, direct pass at {:016x}",
            numbers.fingerprint
        ));
    }
    numbers.hop_us = registry_times
        .iter()
        .zip(&direct_times)
        .map(|(&reg, &direct)| us(reg) - us(direct))
        .collect();
    numbers.events = plan.events as f64;
    numbers.inserts = plan
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Insert(_)))
        .count() as f64;
    numbers.removes = plan
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Remove(_)))
        .count() as f64;
    numbers.session_spans = tracer.spans();
    Ok(numbers)
}

/// Solve-layer numbers of one pass over the jobs.
struct SolveNumbers {
    wall_ns: u64,
    results: Vec<(usize, f64)>,
    bytes: f64,
    spans: Vec<Span>,
}

enum Built {
    Dense(GainMatrix),
    Sparse(Box<SparseGainMatrix>),
}

fn solve_job<M: MetricSpace + PlanarMetric + Sync>(
    instance: &Instance<M>,
    job: &SolveJob,
    tracer: &Tracer,
) -> (usize, f64, f64) {
    let params = job.params.unwrap_or_default();
    let power = job.request.assignment.scheme();
    let eval = instance.evaluator(params, &power);
    let view = eval.view(job.request.variant);
    let (n, ports) = (instance.len(), view.num_ports());
    let threads = match job.request.strategy {
        SolveStrategy::Parallel { num_threads } => Some(num_threads),
        _ => None,
    };
    let shards = threads.map(|_| {
        tracer.span("parallel.tile_shards", || {
            tile_shards(instance, DEFAULT_TARGET_SHARDS)
        })
    });
    // The facade's tier decision: dense under the budget, sparse above.
    let built =
        if GainMatrix::checked_bytes_for(n, ports).is_some_and(|b| b <= DEFAULT_MATRIX_BUDGET) {
            Built::Dense(tracer.span("engine.dense_build", || view.cached()))
        } else {
            let mut config = SparseConfig::default();
            if let Some(threads) = threads {
                if config.build_threads == 1 && threads != 1 {
                    config.build_threads = threads;
                }
            }
            Built::Sparse(Box::new(tracer.span("engine.sparse_build", || {
                SparseGainMatrix::build(&view, &config)
            })))
        };
    let bytes = match &built {
        Built::Dense(_) => GainMatrix::bytes_for(n, ports) as f64,
        Built::Sparse(s) => s.bytes() as f64,
    };
    let schedule = match (&shards, threads) {
        (Some(shards), Some(num_threads)) => {
            let config = ParallelConfig {
                num_threads,
                ..ParallelConfig::default()
            };
            tracer.span("parallel.first_fit", || match &built {
                Built::Dense(m) => parallel_first_fit(m, shards, &config),
                Built::Sparse(s) => parallel_first_fit(s.as_ref(), shards, &config),
            })
        }
        _ => tracer.span("greedy.first_fit", || match (&built, tracer.enabled()) {
            (Built::Dense(m), true) => first_fit_coloring(&TracedBackend::new(m, tracer)),
            (Built::Dense(m), false) => first_fit_coloring(m),
            (Built::Sparse(s), true) => first_fit_coloring(&TracedBackend::new(s.as_ref(), tracer)),
            (Built::Sparse(s), false) => first_fit_coloring(s.as_ref()),
        }),
    };
    let energy = eval.powers().iter().sum();
    (schedule.num_colors(), energy, bytes)
}

fn solve_layers(jobs: &[SolveJob], traced: bool) -> Result<SolveNumbers, String> {
    let tracer = Tracer::new(traced);
    let mut results = Vec::with_capacity(jobs.len());
    let mut bytes = 0.0;
    let start = now_ns();
    for job in jobs {
        let instance = tracer
            .span("instances.build_family", || {
                build_family(job.family, job.n, job.seed)
            })
            .map_err(|e| e.to_string())?;
        let (colors, energy, b) = match &instance {
            FamilyInstance::Planar(inst) => solve_job(inst, job, &tracer),
            FamilyInstance::Line(inst) => solve_job(inst, job, &tracer),
        };
        results.push((colors, energy));
        bytes += b;
    }
    Ok(SolveNumbers {
        wall_ns: now_ns() - start,
        results,
        bytes,
        spans: tracer.spans(),
    })
}

fn same_results(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Runs the traced passes of `ctx.workload` and reports every per-layer
/// metric.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let (plan, jobs, wire_plan) = match ctx.workload.session_shape() {
        Some(shape) => {
            let plan = session_plan(shape, ctx.seed, SESSION_TAG, 0);
            let jobs = complement_jobs(&plan, ctx.threads);
            (plan, jobs, true)
        }
        None => {
            let seed = derive_seed(ctx.seed, COMPLEMENT_TAG, 0);
            let plan = session_plan(SessionShape::COMPLEMENT, seed, SESSION_TAG, 0);
            (plan, batch_jobs(ctx.seed, ctx.threads, 0), false)
        }
    };

    let wire = wire_pass(ctx, wire_plan.then_some(&plan), &jobs)?;
    report.attempted += wire.ops as u64;
    let session = session_layers(ctx, &plan)?;
    report.attempted += 3 * plan.ops.len() as u64;
    if let Some(fp) = wire.fingerprint {
        if fp != session.fingerprint {
            return Err(format!(
                "daemon ended the traced script at {fp:016x}, in-process at {:016x}",
                session.fingerprint
            ));
        }
    }
    // ABBA again: untraced, traced, traced, untraced.
    let untraced = solve_layers(&jobs, false)?;
    let traced = solve_layers(&jobs, true)?;
    let traced_again = solve_layers(&jobs, true)?;
    let untraced_again = solve_layers(&jobs, false)?;
    report.attempted += 4 * jobs.len() as u64;
    for pass in [&traced, &traced_again, &untraced_again] {
        if !same_results(&pass.results, &untraced.results) {
            return Err(String::from("traced solves differ from untraced solves"));
        }
    }
    if !wire.solved.is_empty() && !same_results(&wire.solved, &traced.results) {
        return Err(String::from(
            "in-process solve layers differ from the daemon's solves",
        ));
    }

    // Spans of the traced passes, written out now that timing is over.
    for (file, spans) in [
        ("spans-session.jsonl", &session.session_spans),
        ("spans-recover.jsonl", &session.recover_spans),
        ("spans-solve.jsonl", &traced.spans),
    ] {
        let path = ctx.work.join(file);
        Tracer::write_jsonl(spans, &path).map_err(|e| format!("write {file}: {e}"))?;
        report.note(format!("{} spans -> {}", spans.len(), path.display()));
    }

    let ss = SpanIndex::new(&session.session_spans);
    let rs = SpanIndex::new(&session.recover_spans);
    let sv = SpanIndex::new(&traced.spans);
    let us_p50 = |index: &SpanIndex, name: &str| p50(&index.lengths(name)) / 1e3;
    let ms_total = |index: &SpanIndex, name: &str| ms(index.total_ns(name));
    let per = |num: f64, den: f64| Ratio::new(num, den);

    // Folds under an insert (removals re-probe classes as they recolor).
    let fold_under_insert: u64 = session
        .session_spans
        .iter()
        .filter(|s| s.name == "engine.fold")
        .filter(|s| {
            s.parent
                .is_some_and(|p| session.session_spans[p as usize].name == "op.insert")
        })
        .map(Span::len_ns)
        .sum();
    let ic = session.insert_counts;
    let recover_ns = rs.total_ns("durable.recover") as f64;
    let store_ns = (rs.total_ns("store.load_snapshot") + rs.total_ns("store.read_tail")) as f64;
    let mut build_family_ms: Vec<f64> = ss.lengths("instances.build_family");
    build_family_ms.extend(sv.lengths("instances.build_family"));
    let build_family_ms: Vec<f64> = build_family_ms.iter().map(|ns| ns / 1e6).collect();
    let coverage = per(
        ss.top_level_in(&["op.insert", "op.remove", "op.color"]) as f64 + sv.top_level_ns() as f64,
        (session.first_traced_ns + traced.wall_ns) as f64,
    );
    let overhead = per(
        (session.traced_ns + traced.wall_ns + traced_again.wall_ns) as f64,
        (session.untraced_ns + untraced.wall_ns + untraced_again.wall_ns) as f64,
    );

    let ratios: Vec<(&'static str, Ratio, &'static str)> = vec![
        ("wire.bytes_per_op", per(wire.bytes, wire.ops), "B"),
        ("daemon.cpu_ms_per_op", per(wire.cpu_ms, wire.ops), "ms"),
        (
            "daemon.ctx_switches_per_op",
            per(wire.ctx_switches, wire.ops),
            "count",
        ),
        (
            "wal.appends_per_event",
            per(session.appends, session.events),
            "count",
        ),
        (
            "wal.bytes_per_event",
            per(session.wal_bytes, session.events),
            "B",
        ),
        (
            "wal.snapshots_per_event",
            per(session.loop_snapshots, session.events),
            "count",
        ),
        (
            "dynamic.recolor_moves_per_remove",
            per(session.appends - session.events, session.removes),
            "count",
        ),
        (
            "dynamic.colors_mean",
            per(session.colors_sum, session.events),
            "count",
        ),
        (
            "engine.fold_calls_per_insert",
            per(ic.fold_calls as f64, session.inserts),
            "count",
        ),
        (
            "engine.fold_members_per_insert",
            per(ic.fold_members as f64, session.inserts),
            "count",
        ),
        (
            "engine.fold_us_per_insert",
            per(fold_under_insert as f64 / 1e3, session.inserts),
            "us",
        ),
        (
            "engine.fold_accept_ratio",
            per(ic.fold_accepts as f64, ic.fold_calls as f64),
            "ratio",
        ),
        (
            "engine.row_fetches_per_insert",
            per(ic.row_fetches as f64, session.inserts),
            "count",
        ),
        ("trace.coverage", coverage, "ratio"),
        ("trace.overhead", overhead, "ratio"),
    ];

    let metrics: Vec<(&'static str, f64, &'static str)> = vec![
        ("wire.overhead_us_p50", p50(&wire.overhead_us), "us"),
        ("protocol.parse_us", wire.parse_us, "us"),
        ("protocol.render_us", wire.render_us, "us"),
        ("session.hop_us_p50", p50(&session.hop_us), "us"),
        ("session.open_ms", session.open_ms, "ms"),
        ("session.recover_all_ms", session.recover_all_ms, "ms"),
        ("instances.build_family_ms", mean(&build_family_ms), "ms"),
        ("wal.append_us_p50", us_p50(&ss, "store.append"), "us"),
        ("snapshot.bytes", session.snapshot_bytes, "B"),
        (
            "wal.snapshot_ms_p50",
            us_p50(&ss, "store.snapshot") / 1e3,
            "ms",
        ),
        (
            "recovery.load_snapshot_ms",
            ms_total(&rs, "store.load_snapshot"),
            "ms",
        ),
        (
            "recovery.read_tail_ms",
            ms_total(&rs, "store.read_tail"),
            "ms",
        ),
        ("recovery.rebuild_ms", (recover_ns - store_ns) / 1e6, "ms"),
        (
            "backend.build_ms",
            mean(&ss.lengths("backend.build")) / 1e6,
            "ms",
        ),
        (
            "dynamic.insert_us_p50",
            p50(&ss.self_times("op.insert")) / 1e3,
            "us",
        ),
        (
            "dynamic.remove_us_p50",
            p50(&ss.self_times("op.remove")) / 1e3,
            "us",
        ),
        (
            "engine.note_arrival_us_p50",
            us_p50(&ss, "engine.note_arrival"),
            "us",
        ),
        (
            "engine.note_departure_us_p50",
            us_p50(&ss, "engine.note_departure"),
            "us",
        ),
        ("engine.materialized_rows", session.engine_rows, "count"),
        ("engine.stored_entries", session.engine_entries, "count"),
        ("engine.bytes", session.engine_bytes, "B"),
        (
            "engine.solve_build_ms",
            ms_total(&sv, "engine.dense_build") + ms_total(&sv, "engine.sparse_build"),
            "ms",
        ),
        ("engine.solve_bytes", traced.bytes, "B"),
        (
            "greedy.first_fit_ms",
            ms_total(&sv, "greedy.first_fit"),
            "ms",
        ),
        (
            "parallel.tile_shards_ms",
            ms_total(&sv, "parallel.tile_shards"),
            "ms",
        ),
        (
            "parallel.first_fit_ms",
            ms_total(&sv, "parallel.first_fit"),
            "ms",
        ),
    ];
    for (name, value, unit) in metrics {
        report.metric(name, value, unit);
    }
    for (name, ratio, unit) in ratios {
        report.note(format!("{name} = {}", ratio.describe()));
        report.metric(name, ratio.value(), unit);
    }
    report.note(format!(
        "session script: {} ops ({} events) on n={}; solve jobs: {}",
        plan.ops.len(),
        plan.events,
        plan.universe,
        jobs.iter()
            .map(|j| format!("n={}", j.n))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(())
}
