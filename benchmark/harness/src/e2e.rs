//! The end-to-end run: the real daemon in its own process, driven by
//! closed-loop connections from this process, timed per request on the
//! client side, with every output checked.

use crate::clock::{ms, now_ns, secs};
use crate::daemon::Daemon;
use crate::plan::{
    batch_jobs, expected_session, expected_solve, session_plan, Expected, Op, SessionPlan,
    SessionShape, INPUT_SETS,
};
use crate::stats::{median, nearest_rank};
use crate::{Ctx, Report};
use oblisched::solve::SolveStrategy;
use oblisched_server::load::Client;
use oblisched_server::protocol::{
    IdRef, ItemRef, NameRef, SessionStats, SessionVerb, SolveJob, StatsSpec, WireRequest,
    WireResponse,
};
use std::path::Path;

/// `setup_s` and `recover_s` are medians over repeated set-ups and
/// restarts: at least this many...
const MIN_REPEATS: usize = 7;
/// ...and more, up to [`MAX_REPEATS`], while the repeats so far took less
/// than this many seconds, so that short ones (a `batch_solve` restart
/// takes about 0.13 s) are not left to a handful of noisy samples.
const REPEAT_BUDGET_S: f64 = 2.0;
/// The most set-ups or restarts per run.
const MAX_REPEATS: usize = 25;

/// Whether to repeat a set-up or restart again, given the times so far.
fn more_repeats(times: &[f64]) -> bool {
    times.len() < MIN_REPEATS
        || (times.len() < MAX_REPEATS && times.iter().sum::<f64>() < REPEAT_BUDGET_S)
}
/// Seed tag of the session plans.
pub const SESSION_TAG: u64 = 0x5E55;

/// Sends one request; a typed error or a dropped connection is an `Err`.
pub fn call(client: &mut Client, request: &WireRequest) -> Result<WireResponse, String> {
    client.request(request).map_err(|e| e.to_string())
}

fn open(client: &mut Client, plan: &SessionPlan, name: &str) -> Result<(), String> {
    let request = WireRequest::Session(SessionVerb::Open(plan.open_spec(name)));
    match call(client, &request)? {
        WireResponse::Opened(_) => Ok(()),
        other => Err(format!("open {name} answered {other:?}")),
    }
}

fn stats(client: &mut Client, name: &str, validate: bool) -> Result<SessionStats, String> {
    let request = WireRequest::Session(SessionVerb::Stats(StatsSpec {
        name: name.to_owned(),
        validate: Some(validate),
    }));
    match call(client, &request)? {
        WireResponse::Stats(stats) => Ok(stats),
        other => Err(format!("stats {name} answered {other:?}")),
    }
}

fn parse_fingerprint(stats: &SessionStats) -> Result<u64, String> {
    u64::from_str_radix(&stats.fingerprint, 16).map_err(|e| format!("bad fingerprint: {e}"))
}

/// The request of one scripted op, given the ids issued so far.
pub fn op_request(name: &str, op: Op, ids: &[Option<u64>]) -> Result<WireRequest, String> {
    let id_of = |item: usize| ids[item].ok_or_else(|| format!("item {item} has no live id"));
    let name = name.to_owned();
    Ok(WireRequest::Session(match op {
        Op::Insert(item) => SessionVerb::Insert(ItemRef { name, item }),
        Op::Remove(item) => SessionVerb::Remove(IdRef {
            name,
            id: id_of(item)?,
        }),
        Op::Color(item) => SessionVerb::Color(IdRef {
            name,
            id: id_of(item)?,
        }),
    }))
}

/// Checks one op's response and updates the id map.
pub fn apply_response(
    op: Op,
    response: &WireResponse,
    ids: &mut [Option<u64>],
) -> Result<(), String> {
    match (op, response) {
        (Op::Insert(item), WireResponse::Inserted(info)) if info.item == item => {
            ids[item] = Some(info.id);
        }
        (Op::Remove(item), WireResponse::Removed(info)) if info.item == item => {
            ids[item] = None;
        }
        (Op::Color(item), WireResponse::Color(info)) if info.item == item => {}
        (op, other) => return Err(format!("{op:?} answered {other:?}")),
    }
    Ok(())
}

/// Client round-trip samples of one connection, in milliseconds.
#[derive(Debug, Default)]
struct Samples {
    insert: Vec<f64>,
    remove: Vec<f64>,
    color: Vec<f64>,
}

/// One window of a session script: the run reports medians over windows,
/// so a stretch of slow `fsync`s or of interference from the host moves a
/// few windows, not the run.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// Churn events per second.
    rate: f64,
    /// Write (insert and remove) round-trip p90 in ms.
    write_p90: f64,
}

#[derive(Debug, Default)]
struct ConnRun {
    events: u64,
    churn_ns: u64,
    samples: Samples,
    /// Figures of each window of `window_events` churn events.
    windows: Vec<Window>,
    rounds: usize,
    final_name: String,
    final_fingerprint: u64,
    attempted: u64,
}

/// Replays `plan` into session `name`, timing every request.
fn run_script(
    client: &mut Client,
    name: &str,
    plan: &SessionPlan,
    window_events: usize,
    inject_ns: u64,
    run: &mut ConnRun,
) -> Result<(), String> {
    let mut ids = vec![None; plan.universe];
    // (start, ops consumed) of the open window, and its write samples.
    let mut window = (now_ns(), 0);
    let mut writes = Vec::with_capacity(window_events);
    for &op in &plan.ops {
        let request = op_request(name, op, &ids)?;
        run.attempted += 1;
        let start = now_ns();
        let response = call(client, &request);
        if inject_ns > 0 && matches!(op, Op::Insert(_)) {
            // Negative control: a fixed delay inside the insert's timed
            // interval, which the comparison must flag.
            std::thread::sleep(std::time::Duration::from_nanos(inject_ns));
        }
        let elapsed = ms(now_ns() - start);
        apply_response(op, &response?, &mut ids)?;
        match op {
            Op::Insert(_) => run.samples.insert.push(elapsed),
            Op::Remove(_) => run.samples.remove.push(elapsed),
            Op::Color(_) => run.samples.color.push(elapsed),
        }
        if !matches!(op, Op::Color(_)) {
            writes.push(elapsed);
        }
        window.1 += 1;
        // A window closes after its last churn event and that event's read.
        let read_follows = !matches!(op, Op::Color(_))
            && plan
                .ops
                .get(window.1)
                .is_some_and(|o| matches!(o, Op::Color(_)));
        if (writes.len() == window_events && !read_follows) || window.1 == plan.ops.len() {
            let now = now_ns();
            run.windows.push(Window {
                rate: writes.len() as f64 / secs(now - window.0),
                write_p90: nearest_rank(&writes, 90.0).map_or(0.0, |p| p.value),
            });
            writes.clear();
            window = (now, window.1);
        }
    }
    Ok(())
}

/// One connection's measured phase: rounds into fresh sessions until the
/// deadline, round `r` replaying `plans[r % plans.len()]`; the last
/// round's session stays open.
fn drive_connection(
    ctx: &Ctx,
    mut client: Client,
    conn: usize,
    plans: &[SessionPlan],
    expected: &[Expected],
    window_events: usize,
    deadline_ns: u64,
) -> Result<ConnRun, String> {
    let mut run = ConnRun::default();
    loop {
        let name = format!("c{conn}-r{}", run.rounds);
        let plan = &plans[run.rounds % plans.len()];
        let expected = expected[run.rounds % plans.len()];
        if run.rounds > 0 {
            run.attempted += 1;
            open(&mut client, plan, &name)?;
        }
        let start = now_ns();
        run_script(
            &mut client,
            &name,
            plan,
            window_events,
            ctx.inject_delay_ns,
            &mut run,
        )?;
        run.churn_ns += now_ns() - start;
        run.events += plan.events as u64;
        run.rounds += 1;

        run.attempted += 1;
        let st = stats(&mut client, &name, true)?;
        let fingerprint = parse_fingerprint(&st)?;
        if !st.validated {
            return Err(format!("{name}: stats did not certify the coloring"));
        }
        if fingerprint != expected.fingerprint || st.colors != expected.colors {
            return Err(format!(
                "{name}: wire fingerprint {fingerprint:016x} ({} colors) != in-process replay \
                 {:016x} ({} colors)",
                st.colors, expected.fingerprint, expected.colors
            ));
        }
        if now_ns() >= deadline_ns {
            run.final_name = name;
            run.final_fingerprint = fingerprint;
            return Ok(run);
        }
        run.attempted += 1;
        let close = WireRequest::Session(SessionVerb::Close(NameRef { name: name.clone() }));
        match call(&mut client, &close)? {
            WireResponse::Closed(_) => {}
            other => return Err(format!("close {name} answered {other:?}")),
        }
        // A closed session's state is no longer needed; dropping it keeps
        // the restart below recovering exactly the final sessions.
        std::fs::remove_dir_all(ctx.data_dir().join(&name))
            .map_err(|e| format!("remove {name}: {e}"))?;
    }
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// `f` over every item, two at a time on their own threads.
fn in_pairs<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let mut out = Vec::with_capacity(items.len());
    for pair in items.chunks(2) {
        let done: Vec<Result<R, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = pair.iter().map(|item| scope.spawn(|| f(item))).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(String::from("worker panicked")))
                })
                .collect()
        });
        for result in done {
            out.push(result?);
        }
    }
    Ok(out)
}

/// The measured run of a session workload.
pub fn run_sessions(ctx: &Ctx, shape: SessionShape, report: &mut Report) -> Result<(), String> {
    // Connection `c` cycles through plans `c * INPUT_SETS ..`.
    let plans: Vec<SessionPlan> = (0..shape.connections * INPUT_SETS)
        .map(|index| session_plan(shape, ctx.seed, SESSION_TAG, index))
        .collect();
    let mut expected = in_pairs(&plans, expected_session)?;
    if ctx.corrupt_expected {
        expected[0].fingerprint ^= 1;
    }

    // Set-up: spawn → listening → every session opened, several times.
    let mut setups = Vec::new();
    let mut ready = None;
    while ready.is_none() {
        reset_dir(&ctx.data_dir())?;
        let daemon = Daemon::spawn(&ctx.server, &ctx.data_dir(), &ctx.log())?;
        let mut clients = Vec::new();
        for (conn, plans) in plans.chunks(INPUT_SETS).enumerate() {
            let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
            report.attempted += 1;
            open(&mut client, &plans[0], &format!("c{conn}-r0"))?;
            clients.push(client);
        }
        setups.push(secs(now_ns() - daemon.spawned_ns));
        if more_repeats(&setups) {
            drop(clients);
            daemon.shutdown()?;
        } else {
            ready = Some((daemon, clients));
        }
    }
    let (daemon, clients) = ready.ok_or("no set-up ran")?;

    // The measured phase: every connection on its own thread.
    let deadline = now_ns() + ctx.seconds * 1_000_000_000;
    let runs: Vec<Result<ConnRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| {
                let span = conn * INPUT_SETS..(conn + 1) * INPUT_SETS;
                let (plans, expected) = (&plans[span.clone()], &expected[span]);
                let window = shape.window_events;
                scope.spawn(move || {
                    drive_connection(ctx, client, conn, plans, expected, window, deadline)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(String::from("connection panicked")))
            })
            .collect()
    });
    let mut conns = Vec::new();
    for run in runs {
        let run = run?;
        report.attempted += run.attempted;
        conns.push(run);
    }
    let peak_kib = daemon.peak_rss_kib().ok_or("no VmHWM for the daemon")?;

    // Recovery: SIGKILL, then restart until every final session answers
    // with its pre-kill fingerprint.
    if ctx.checkpoint_before_kill() {
        // Sparse-tier sessions do not replay a WAL tail bit for bit (see
        // `Ctx::checkpoint_before_kill`): close them first so the restart
        // recovers from a snapshot with an empty tail.
        let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
        for run in &conns {
            report.attempted += 1;
            let close = WireRequest::Session(SessionVerb::Close(NameRef {
                name: run.final_name.clone(),
            }));
            match call(&mut client, &close)? {
                WireResponse::Closed(_) => {}
                other => return Err(format!("close answered {other:?}")),
            }
        }
    }
    daemon.kill();
    let mut recovers = Vec::new();
    loop {
        let daemon = Daemon::spawn(&ctx.server, &ctx.data_dir(), &ctx.log())?;
        let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
        for run in &conns {
            report.attempted += 1;
            let st = stats(&mut client, &run.final_name, false)?;
            if parse_fingerprint(&st)? != run.final_fingerprint {
                return Err(format!(
                    "{} recovered to {} instead of its pre-kill fingerprint {:016x}",
                    run.final_name, st.fingerprint, run.final_fingerprint
                ));
            }
        }
        recovers.push(secs(now_ns() - daemon.spawned_ns));
        drop(client);
        if more_repeats(&recovers) {
            daemon.kill();
        } else {
            daemon.shutdown()?;
            break;
        }
    }

    let mut insert = Vec::new();
    let mut remove = Vec::new();
    let mut color = Vec::new();
    let mut rates = Vec::new();
    let mut window_p90 = Vec::new();
    let mut throughput = 0.0;
    for run in &conns {
        let conn_rates: Vec<f64> = run.windows.iter().map(|w| w.rate).collect();
        // Connections run concurrently: their typical window rates add up.
        throughput += median(&conn_rates);
        rates.extend_from_slice(&conn_rates);
        window_p90.extend(run.windows.iter().map(|w| w.write_p90));
        insert.extend_from_slice(&run.samples.insert);
        remove.extend_from_slice(&run.samples.remove);
        color.extend_from_slice(&run.samples.color);
    }
    let mut writes = insert.clone();
    writes.extend_from_slice(&remove);
    let p = |samples: &[f64], q: f64| nearest_rank(samples, q).map_or(0.0, |p| p.value);
    report.note(spread_line(&rates));

    report.metric("setup_s", median(&setups), "s");
    report.metric("throughput_per_s", throughput, "1/s");
    report.metric("latency_p50_ms", p(&writes, 50.0), "ms");
    // The gated tail is p90, as a median over windows. The p99 (printed
    // per verb below) followed the host's load: over ten runs its spread
    // was 0.27 of its median, past the largest bound a metric may have.
    report.metric("latency_p90_ms", median(&window_p90), "ms");
    report.metric("read_p50_ms", p(&color, 50.0), "ms");
    report.metric("recover_s", median(&recovers), "s");
    // Every plan's final colors; each run round checked them on the wire.
    report.metric(
        "colors",
        expected.iter().map(|e| e.colors as f64).sum(),
        "count",
    );
    report.metric("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB");

    let rounds: Vec<String> = conns.iter().map(|r| r.rounds.to_string()).collect();
    report.note(format!(
        "rounds per connection {}; events {} in {:.3} s of churn; setups {setups:?} s; \
         recovers {recovers:?} s",
        rounds.join("/"),
        conns.iter().map(|r| r.events).sum::<u64>(),
        secs(conns.iter().map(|r| r.churn_ns).sum::<u64>()),
    ));
    for (verb, samples) in [
        ("insert", &insert),
        ("remove", &remove),
        ("write", &writes),
        ("color", &color),
    ] {
        report.note(verb_line(verb, samples));
    }
    Ok(())
}

/// Quartiles of the window (or cycle) rates, so a run's own steadiness
/// is visible.
fn spread_line(rates: &[f64]) -> String {
    let q = |p: f64| nearest_rank(rates, p).map_or(0.0, |p| p.value);
    format!(
        "rates over {} windows: min {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1}",
        rates.len(),
        q(0.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(100.0)
    )
}

fn verb_line(verb: &str, samples: &[f64]) -> String {
    let show =
        |q: f64| nearest_rank(samples, q).map_or(String::from("-"), |p| format!("{:.4}", p.value));
    format!(
        "{verb:<8} n={:<7} p50={} ms p90={} ms p99={} ms",
        samples.len(),
        show(50.0),
        show(90.0),
        show(99.0)
    )
}

fn solve(client: &mut Client, job: &SolveJob) -> Result<(usize, f64), String> {
    match call(client, &WireRequest::Solve(*job))? {
        WireResponse::Solved(outcome) => Ok((outcome.colors, outcome.energy)),
        other => Err(format!("solve answered {other:?}")),
    }
}

fn check_solve(job: &SolveJob, got: (usize, f64), want: (usize, f64)) -> Result<(), String> {
    if got.0 != want.0 || got.1.to_bits() != want.1.to_bits() {
        return Err(format!(
            "solve n={} seed={}: wire (colors {}, energy {}) != in-process (colors {}, energy {})",
            job.n, job.seed, got.0, got.1, want.0, want.1
        ));
    }
    Ok(())
}

/// The tier group of a batch job, for the per-group throughput notes.
fn group(job: &SolveJob) -> &'static str {
    match job.request.strategy {
        SolveStrategy::Parallel { .. } => "parallel",
        _ if job.n <= 2000 => "dense",
        _ => "sparse",
    }
}

/// The measured run of `batch_solve`.
pub fn run_batch(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // A cycle sends every job of every set, so each run solves the same
    // mix, and the run is gated on that mix's aggregate throughput: single
    // solves vary far more than whole cycles.
    let jobs: Vec<SolveJob> = (0..INPUT_SETS)
        .flat_map(|set| batch_jobs(ctx.seed, ctx.threads, set))
        .collect();
    let mut expected = in_pairs(&jobs, expected_solve)?;
    if ctx.corrupt_expected {
        expected[0].0 += 1;
    }

    // Set-up: spawn → listening → the first job answered, several times.
    let mut setups = Vec::new();
    let mut ready = None;
    while ready.is_none() {
        reset_dir(&ctx.data_dir())?;
        let daemon = Daemon::spawn(&ctx.server, &ctx.data_dir(), &ctx.log())?;
        let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
        report.attempted += 1;
        check_solve(&jobs[0], solve(&mut client, &jobs[0])?, expected[0])?;
        setups.push(secs(now_ns() - daemon.spawned_ns));
        if more_repeats(&setups) {
            drop(client);
            daemon.shutdown()?;
        } else {
            ready = Some((daemon, client));
        }
    }
    let (daemon, mut client) = ready.ok_or("no set-up ran")?;

    // The measured phase: whole cycles until the deadline, a ping after
    // every solve.
    let deadline = now_ns() + ctx.seconds * 1_000_000_000;
    let mut latencies = Vec::new();
    let mut pings = Vec::new();
    let mut links = 0u64;
    let mut solve_ns = 0u64;
    let mut groups: Vec<(&str, u64, u64)> = Vec::new();
    let mut cycle_rates = Vec::new();
    while cycle_rates.is_empty() || now_ns() < deadline {
        let marks = (links, solve_ns);
        for (job, &want) in jobs.iter().zip(&expected) {
            report.attempted += 1;
            let start = now_ns();
            let got = solve(&mut client, job);
            if ctx.inject_delay_ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(ctx.inject_delay_ns));
            }
            let elapsed = now_ns() - start;
            check_solve(job, got?, want)?;
            latencies.push(ms(elapsed));
            links += job.n as u64;
            solve_ns += elapsed;
            match groups.iter_mut().find(|g| g.0 == group(job)) {
                Some(g) => {
                    g.1 += job.n as u64;
                    g.2 += elapsed;
                }
                None => groups.push((group(job), job.n as u64, elapsed)),
            }
            report.attempted += 1;
            let start = now_ns();
            match call(&mut client, &WireRequest::Ping)? {
                WireResponse::Pong => pings.push(ms(now_ns() - start)),
                other => return Err(format!("ping answered {other:?}")),
            }
        }
        cycle_rates.push((links - marks.0) as f64 / secs(solve_ns - marks.1));
    }
    drop(client);
    let peak_kib = daemon.peak_rss_kib().ok_or("no VmHWM for the daemon")?;

    // Restart: no durable state, so back in service means the first job
    // answered again.
    daemon.kill();
    let mut recovers = Vec::new();
    loop {
        let daemon = Daemon::spawn(&ctx.server, &ctx.data_dir(), &ctx.log())?;
        let mut client = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
        report.attempted += 1;
        check_solve(&jobs[0], solve(&mut client, &jobs[0])?, expected[0])?;
        recovers.push(secs(now_ns() - daemon.spawned_ns));
        drop(client);
        if more_repeats(&recovers) {
            daemon.kill();
        } else {
            daemon.shutdown()?;
            break;
        }
    }

    let p = |samples: &[f64], q: f64| nearest_rank(samples, q).map_or(0.0, |p| p.value);
    report.note(spread_line(&cycle_rates));
    report.metric("setup_s", median(&setups), "s");
    report.metric("throughput_per_s", links as f64 / secs(solve_ns), "1/s");
    report.metric("latency_p50_ms", p(&latencies, 50.0), "ms");
    report.metric("latency_p90_ms", p(&latencies, 90.0), "ms");
    report.metric("read_p50_ms", p(&pings, 50.0), "ms");
    report.metric("recover_s", median(&recovers), "s");
    report.metric("colors", expected.iter().map(|e| e.0 as f64).sum(), "count");
    report.metric("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB");

    report.note(format!(
        "cycles {}; solves {}; {links} links in {:.3} s; setups {setups:?} s; \
         recovers {recovers:?} s",
        cycle_rates.len(),
        latencies.len(),
        secs(solve_ns)
    ));
    for (name, n, ns) in groups {
        report.note(format!(
            "solve_{name}_links_per_s {:.1} ({n} links / {:.4} s)",
            n as f64 / secs(ns),
            secs(ns)
        ));
    }
    report.note(verb_line("solve", &latencies));
    report.note(verb_line("ping", &pings));
    Ok(())
}
