//! Runs one `gfl` invocation as a black-box child process and stamps its
//! phases on its standard output.
//!
//! The end-to-end path binds only to what a user of the CLI sees: the flags,
//! the exit status, and the lines the program prints. `gfl` writes through
//! Rust's line-buffered `stdout`, so a line arrives here when it is printed:
//!
//! ```text
//! spawn ──setup──▶ "training …" ──rounds──▶ " round …" header ──report──▶ exit
//! ```

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The fields of `struct rusage` this harness reads. `wait4` is declared
/// here rather than taken from a crate: std already links libc.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    // ixrss, idrss, isrss, minflt, majflt, nswap, inblock, oublock,
    // msgsnd, msgrcv, nsignals, nvcsw, nivcsw
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// A phase boundary seen on the child's standard output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    /// The line starting `training `: set-up is over.
    Training,
    /// The first line starting ` round` after it: the rounds are over and
    /// the report is being printed.
    Table,
}

/// Finds the phase boundaries in a run's output, line by line.
#[derive(Debug, Default)]
pub struct PhaseScanner {
    training: bool,
    table: bool,
}

impl PhaseScanner {
    /// Feeds one line (with or without its newline); returns the boundary it
    /// marks, each at most once and only in order.
    pub fn line(&mut self, line: &[u8]) -> Option<Mark> {
        if !self.training && line.starts_with(b"training ") {
            self.training = true;
            Some(Mark::Training)
        } else if self.training && !self.table && line.starts_with(b" round") {
            self.table = true;
            Some(Mark::Table)
        } else {
            None
        }
    }
}

/// What one finished child looked like from outside.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Exit code; `None` when the child was killed by a signal.
    pub exit_code: Option<i32>,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    /// spawn → exit.
    pub wall_s: f64,
    /// spawn → the line starting `training `.
    pub setup_s: Option<f64>,
    /// `training ` line → the first line starting ` round`.
    pub rounds_s: Option<f64>,
    /// first ` round` line → exit.
    pub report_s: Option<f64>,
    /// user + system time of the child.
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    /// Harness clock at spawn and exit, for the span recorder.
    pub started: Instant,
    pub ended: Instant,
}

impl ChildRun {
    /// Exit status 0 and all three phase stamps seen.
    pub fn phases_complete(&self) -> bool {
        self.exit_code == Some(0) && self.report_s.is_some()
    }
}

/// Spawns `gfl` with `args`, reads its output to the end and reaps it.
///
/// Standard error goes to a file in `scratch` (a second pipe would need a
/// second reader thread) and is read back afterwards.
pub fn run_gfl(gfl: &Path, args: &[String], scratch: &Path) -> std::io::Result<ChildRun> {
    let stderr_path = scratch.join("stderr.txt");
    let stderr_file = std::fs::File::create(&stderr_path)?;
    let started = Instant::now();
    let mut child = Command::new(gfl)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr_file)
        .spawn()?;
    let pid = child.id() as i32;
    let mut reader = BufReader::new(child.stdout.take().expect("stdout was piped"));
    let mut stdout = Vec::new();
    let (mut training_at, mut table_at) = (None, None);
    let mut scanner = PhaseScanner::default();
    loop {
        let line_start = stdout.len();
        if reader.read_until(b'\n', &mut stdout)? == 0 {
            break;
        }
        match scanner.line(&stdout[line_start..]) {
            Some(Mark::Training) => training_at = Some(Instant::now()),
            Some(Mark::Table) => table_at = Some(Instant::now()),
            None => {}
        }
    }
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `pid` is a child of this process that has not been waited for
    // (`Child::wait` is never called on it), and both out-pointers refer to
    // live, properly sized and aligned values owned by this frame.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let ended = Instant::now();
    if reaped != pid {
        return Err(std::io::Error::last_os_error());
    }
    // Dropping `child` neither waits nor kills; the process is already gone.
    drop(child);
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let secs = |from: Instant, to: Instant| to.duration_since(from).as_secs_f64();
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    Ok(ChildRun {
        exit_code,
        stdout,
        stderr: std::fs::read(&stderr_path).unwrap_or_default(),
        wall_s: secs(started, ended),
        setup_s: training_at.map(|t| secs(started, t)),
        rounds_s: training_at.zip(table_at).map(|(a, b)| secs(a, b)),
        report_s: table_at.map(|t| secs(t, ended)),
        cpu_s: tv(usage.utime) + tv(usage.stime),
        // Linux reports ru_maxrss in KiB.
        peak_rss_mib: usage.maxrss as f64 / 1024.0,
        started,
        ended,
    })
}
