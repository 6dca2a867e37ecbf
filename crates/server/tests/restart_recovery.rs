//! Recovery-on-restart, end to end against the real daemon binary: open
//! sessions, churn them, SIGKILL the daemon mid-churn (no close, no final
//! checkpoint — crash-point style, like the durability tests of the core
//! crate), restart it over the same data directory, and assert every
//! session's recovered coloring is bit-for-bit the pre-crash state and
//! naive-certified.

use oblisched::solve::PowerAssignment;
use oblisched_instances::{churn_trace_for, ChurnEvent, Family};
use oblisched_server::load::Client;
use oblisched_server::protocol::{
    IdRef, ItemRef, NameRef, OpenSpec, SessionStats, SessionVerb, StatsSpec, WireErrorKind,
    WireRequest, WireResponse,
};
use oblisched_server::{send_shutdown, LoadError};
use oblisched_sinr::Variant;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// The daemon process under test; killed on drop so a failing assert never
/// leaks a listener.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(data_dir: &std::path::Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_oblisched-server"))
            .args(["--addr", "127.0.0.1:0", "--no-timing", "--data-dir"])
            .arg(data_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn oblisched-server");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        // {"listening":{"addr":"127.0.0.1:PORT"}}
        let addr = line
            .split("\"addr\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .to_owned();
        Daemon { child, addr }
    }

    /// SIGKILL — the hard-crash path; nothing gets to flush or checkpoint
    /// beyond what the per-append WAL discipline already persisted.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oblisched-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One session of a crash test: what it opens, the seed-pinned churn trace
/// it replays (`churn_trace_for(n, target_live, num_events, seed)`) and the
/// number of events applied before the daemon is killed.
struct Case {
    spec: OpenSpec,
    target_live: usize,
    num_events: usize,
    crash_after: usize,
}

impl Case {
    fn new(
        name: &str,
        (family, n, seed): (Family, usize, u64),
        assignment: PowerAssignment,
        variant: Variant,
        checkpoint_every: usize,
        [target_live, num_events, crash_after]: [usize; 3],
    ) -> Case {
        Case {
            spec: OpenSpec {
                name: name.into(),
                family,
                n,
                seed,
                assignment,
                variant,
                params: None,
                config: None,
                checkpoint_every: Some(checkpoint_every),
                backend: None,
            },
            target_live,
            num_events,
            crash_after,
        }
    }

    fn trace(&self) -> Vec<ChurnEvent> {
        let spec = &self.spec;
        churn_trace_for(spec.n, self.target_live, self.num_events, spec.seed).events
    }

    fn open(&self) -> WireRequest {
        WireRequest::Session(SessionVerb::Open(self.spec.clone()))
    }
}

/// Applies `events[..upto]` to the named session, maintaining the
/// item → live-id map across the calls.
fn churn(client: &mut Client, name: &str, events: &[ChurnEvent], ids: &mut BTreeMap<usize, u64>) {
    for event in events {
        match *event {
            ChurnEvent::Arrive(item) => {
                let request = WireRequest::Session(SessionVerb::Insert(ItemRef {
                    name: name.into(),
                    item,
                }));
                match client.request(&request).expect("insert") {
                    WireResponse::Inserted(info) => {
                        ids.insert(item, info.id);
                    }
                    other => panic!("insert answered {other:?}"),
                }
            }
            ChurnEvent::Depart(item) => {
                let id = ids.remove(&item).expect("departing item is live");
                let request = WireRequest::Session(SessionVerb::Remove(IdRef {
                    name: name.into(),
                    id,
                }));
                match client.request(&request).expect("remove") {
                    WireResponse::Removed(_) => {}
                    other => panic!("remove answered {other:?}"),
                }
            }
        }
    }
}

fn stats(client: &mut Client, name: &str, validate: bool) -> SessionStats {
    let request = WireRequest::Session(SessionVerb::Stats(StatsSpec {
        name: name.into(),
        validate: Some(validate),
    }));
    match client.request(&request).expect("stats") {
        WireResponse::Stats(stats) => stats,
        other => panic!("stats answered {other:?}"),
    }
}

#[test]
fn killed_daemon_recovers_every_session_bit_for_bit() {
    use Family::{Clustered, Line, Scaling};
    use PowerAssignment::{Linear, SquareRoot, Uniform};
    use Variant::{Bidirectional, Directed};
    let dir = temp_dir("recovery");
    // Columns: name, (family, n, seed), assignment, variant, snapshot
    // cadence, [target_live, num_events, crash_after].
    #[rustfmt::skip]
    let cases = [
        // A cadence far beyond the event count: recovery must come from
        // the initial snapshot plus a pure WAL-tail replay.
        Case::new("crash-0", (Scaling, 120, 7), SquareRoot, Bidirectional, 1_000, [40, 120, 70]),
        Case::new("crash-1", (Scaling, 120, 8), SquareRoot, Bidirectional, 1_000, [40, 120, 70]),
        Case::new("crash-2", (Scaling, 120, 9), SquareRoot, Bidirectional, 1_000, [40, 120, 70]),
        // A snapshot every 8 events: a mid-trace snapshot plus a short tail.
        Case::new("smoke-scaling-sqrt", (Scaling, 30, 42), SquareRoot, Bidirectional, 8, [18, 80, 41]),
        // The directed variant, with a snapshot after every event.
        Case::new("smoke-clustered-uniform", (Clustered, 24, 7), Uniform, Directed, 1, [14, 60, 30]),
        // The line metric, killed one event before the end of its trace.
        Case::new("smoke-line-linear", (Line, 20, 3), Linear, Bidirectional, 64, [12, 50, 49]),
    ];
    // Final (live, colors, next WAL sequence) of the three smoke sessions:
    // a change here is a behaviour change of the dynamic scheduler.
    let pinned_ends = [
        ("smoke-scaling-sqrt", (16, 3, 86)),
        ("smoke-clustered-uniform", (12, 2, 66)),
        ("smoke-line-linear", (10, 1, 50)),
    ];

    // Phase 1: fresh daemon, open the sessions, churn each one to its
    // crash point, record its exact state fingerprint. No close, no
    // explicit checkpoint — the WAL tail is all that protects the state.
    let mut daemon = Daemon::start(&dir);
    let mut pre_crash: BTreeMap<String, SessionStats> = BTreeMap::new();
    let mut live_ids: BTreeMap<String, BTreeMap<usize, u64>> = BTreeMap::new();
    {
        let mut client = Client::connect(&daemon.addr).expect("connect");
        for case in &cases {
            let name = &case.spec.name;
            match client.request(&case.open()).expect("open") {
                WireResponse::Opened(info) => assert!(!info.recovered, "fresh session"),
                other => panic!("open answered {other:?}"),
            }
            let mut ids = BTreeMap::new();
            churn(
                &mut client,
                name,
                &case.trace()[..case.crash_after],
                &mut ids,
            );
            let before = stats(&mut client, name, false);
            assert!(before.live > 0, "the crash point leaves live requests");
            pre_crash.insert(name.clone(), before);
            live_ids.insert(name.clone(), ids);
        }
    }
    daemon.kill();

    // Phase 2: restart over the same data directory. The startup scan must
    // bring every session back; its coloring must be bit-for-bit the
    // pre-crash state and must certify against the naive evaluator.
    let daemon = Daemon::start(&dir);
    let mut client = Client::connect(&daemon.addr).expect("reconnect");
    for case in &cases {
        let name = &case.spec.name;
        match client.request(&case.open()).expect("re-open") {
            WireResponse::Opened(info) => {
                assert!(info.recovered, "{name} must attach to recovered state");
            }
            other => panic!("re-open answered {other:?}"),
        }
        let after = stats(&mut client, name, true);
        let before = &pre_crash[name];
        assert_eq!(
            after.fingerprint, before.fingerprint,
            "{name}: recovered coloring differs from the pre-crash state"
        );
        assert_eq!(after.live, before.live, "{name}: live count diverged");
        assert_eq!(
            after.next_seq, before.next_seq,
            "{name}: WAL position diverged"
        );
        assert!(after.validated, "{name}: naive certification must have run");
    }

    // The recovered sessions keep working: finish each trace and certify
    // the final state too.
    for case in &cases {
        let name = &case.spec.name;
        let mut ids = live_ids.remove(name).expect("pre-crash id map");
        churn(
            &mut client,
            name,
            &case.trace()[case.crash_after..],
            &mut ids,
        );
        let end = stats(&mut client, name, true);
        assert_eq!(end.live, ids.len(), "{name}: live set tracks the id map");
        assert!(end.validated);
        if let Some((_, pinned)) = pinned_ends.iter().find(|(pinned, _)| pinned == name) {
            assert_eq!(
                (end.live, end.colors, end.next_seq),
                *pinned,
                "{name}: final state"
            );
        }
    }

    // Satellite check: an open with a different DynamicConfig against the
    // recovered session is a *typed* config_mismatch carrying both configs.
    let mut wrong = cases[0].spec.clone();
    wrong.config = Some(oblisched::dynamic::DynamicConfig {
        recolor_budget: 1,
        ..oblisched::dynamic::DynamicConfig::default()
    });
    let open = WireRequest::Session(SessionVerb::Open(wrong));
    match client.request(&open) {
        Err(LoadError::Wire(e)) => {
            assert_eq!(e.kind, WireErrorKind::ConfigMismatch);
            assert!(e.stored.is_some(), "stored config travels on the wire");
            assert!(
                e.requested.is_some(),
                "requested config travels on the wire"
            );
        }
        other => panic!("expected config_mismatch, got {other:?}"),
    }

    // Graceful shutdown still exits cleanly after all of that.
    let close = WireRequest::Session(SessionVerb::Close(NameRef {
        name: cases[0].spec.name.clone(),
    }));
    client.request(&close).expect("close");
    send_shutdown(&daemon.addr).expect("shutdown");
    let mut daemon = daemon;
    let status = daemon.child.wait().expect("daemon exit");
    assert!(
        status.success(),
        "graceful shutdown exits 0, got {status:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sparse tier under the same hard crash: a session over n = 2500
/// (past the dense budget, so `Auto` runs it on `SparseChurnMatrix`), one
/// snapshot mid-trace and a 500-event WAL tail after it, SIGKILL, restart,
/// and a naive-certified fingerprint check. The mid-trace snapshot is what
/// makes the test bite: the pre-crash backend carries its rows across it,
/// while recovery loads the snapshot into a fresh backend and replays the
/// tail, so the two only agree when verdicts are a pure function of the
/// live set. Release-only: the sparse replay and the naive certification
/// at this size are slow under a debug build.
#[test]
#[cfg(not(debug_assertions))]
fn killed_daemon_recovers_a_sparse_session_bit_for_bit() {
    let dir = temp_dir("sparse");
    let case = Case::new(
        "sparse-crash",
        (Family::Scaling, 2500, 11),
        PowerAssignment::SquareRoot,
        Variant::Bidirectional,
        1_000,
        [600, 1500, 1500],
    );
    let name = &case.spec.name;

    let mut daemon = Daemon::start(&dir);
    let before = {
        let mut client = Client::connect(&daemon.addr).expect("connect");
        match client.request(&case.open()).expect("open") {
            WireResponse::Opened(info) => assert!(!info.recovered, "fresh session"),
            other => panic!("open answered {other:?}"),
        }
        let mut ids = BTreeMap::new();
        churn(
            &mut client,
            name,
            &case.trace()[..case.crash_after],
            &mut ids,
        );
        let before = stats(&mut client, name, false);
        assert_eq!(before.live, ids.len());
        before
    };
    daemon.kill();

    let daemon = Daemon::start(&dir);
    let mut client = Client::connect(&daemon.addr).expect("reconnect");
    match client.request(&case.open()).expect("re-open") {
        WireResponse::Opened(info) => assert!(info.recovered, "must attach to recovered state"),
        other => panic!("re-open answered {other:?}"),
    }
    let after = stats(&mut client, name, true);
    assert_eq!(
        after.fingerprint, before.fingerprint,
        "recovered sparse coloring differs from the pre-crash state"
    );
    assert_eq!(after.live, before.live, "live count diverged");
    assert!(after.validated, "naive certification must have run");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
