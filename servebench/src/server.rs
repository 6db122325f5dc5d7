//! The served process and its connection: spawn `microfactory serve`, set
//! it up, replay the op cycle closed-loop over one TCP-loopback connection,
//! and read its own telemetry back.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::workload::Inputs;

/// Portfolio pool threads of the served process.
const SERVER_THREADS: &str = "2";

/// How long the served process may take to print its address.
const BIND_TIMEOUT: Duration = Duration::from_secs(30);

/// How long one response may take before the run gives up, so a hung
/// server cannot hang the benchmark.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A set of CPUs a thread may run on (a `cpu_set_t` of 1024 CPUs).
#[derive(Clone, Copy)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The calling thread's CPUs.
    pub fn current() -> io::Result<CpuSet> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: the buffer is live and its size is passed; pid 0 is this
        // thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(set)
    }

    /// Restricts the calling thread to this set. Threads and processes it
    /// starts afterwards inherit it.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: as in `current`; the kernel only reads the buffer.
        if unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// The highest-numbered CPU in the set, which on a VM is the one least
    /// likely to take the interrupts that land on CPU 0.
    pub fn last(&self) -> Option<usize> {
        (0..self.0.len() * 64)
            .rev()
            .find(|&cpu| self.0[cpu / 64] >> (cpu % 64) & 1 == 1)
    }

    /// The set holding only `cpu`.
    pub fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        set
    }
}

/// A running `microfactory serve` with a fresh data directory.
pub struct ServerProcess {
    child: Child,
    drain: Option<JoinHandle<()>>,
    addr: SocketAddr,
    data_dir: PathBuf,
}

impl ServerProcess {
    /// Spawns `binary serve --port 0 --threads 2 --data-dir data_dir` and
    /// waits for its listening address on stderr.
    pub fn spawn(binary: &Path, data_dir: &Path) -> io::Result<ServerProcess> {
        if data_dir.exists() {
            std::fs::remove_dir_all(data_dir)?;
        }
        let mut child = Command::new(binary)
            .args(["serve", "--port", "0", "--threads", SERVER_THREADS])
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (found, addr_rx) = mpsc::channel();
        // The drain keeps reading after the address line, so a chatty server
        // never blocks on a full stderr pipe; it ends when the child exits.
        let drain = std::thread::spawn(move || {
            let mut found = Some(found);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line
                    .strip_prefix("mf-server listening on ")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|addr| addr.parse::<SocketAddr>().ok())
                {
                    if let Some(tx) = found.take() {
                        let _ = tx.send(addr);
                    }
                } else {
                    eprintln!("server: {line}");
                }
            }
        });
        let mut process = ServerProcess {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            data_dir: data_dir.to_path_buf(),
        };
        process.addr = addr_rx.recv_timeout(BIND_TIMEOUT).map_err(|_| {
            io::Error::other("the server exited or never printed its listening address")
        })?;
        Ok(process)
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) of the served process, in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kib: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))?;
        Ok(kib / 1024.0)
    }

    /// Sends `shutdown` on `conn`, waits for the process and its stderr
    /// drain, and removes the data directory.
    pub fn stop(mut self, mut conn: Connection) -> io::Result<()> {
        let mut answer = String::new();
        conn.round_trip(b"shutdown\n", &mut answer)?;
        drop(conn);
        let status = self.child.wait()?;
        if let Some(drain) = self.drain.take() {
            drain
                .join()
                .map_err(|_| io::Error::other("stderr drain panicked"))?;
        }
        std::fs::remove_dir_all(&self.data_dir)?;
        if answer != "ok shutdown\n" || !status.success() {
            return Err(io::Error::other(format!(
                "server shutdown failed: answer {answer:?}, {status}"
            )));
        }
        Ok(())
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Error paths: never leave a server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// One closed-loop `mf-proto` session over TCP loopback.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connects, reads the greeting and negotiates `mf-proto v3`.
    pub fn open(addr: SocketAddr) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let mut conn = Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        };
        let mut line = String::new();
        conn.reader.read_line(&mut line)?;
        if line != format!("{}\n", mf_server::GREETING) {
            return Err(io::Error::other(format!("unexpected greeting {line:?}")));
        }
        line.clear();
        conn.round_trip(b"hello mf-proto v3\n", &mut line)?;
        if line != "ok hello mf-proto v3\n" {
            return Err(io::Error::other(format!(
                "unexpected hello answer {line:?}"
            )));
        }
        Ok(conn)
    }

    /// Sends one request and reads its whole response into `response`
    /// (appended, raw, unparsed).
    pub fn round_trip(&mut self, request: &[u8], response: &mut String) -> io::Result<()> {
        self.writer.write_all(request)?;
        read_frame(&mut self.reader, response)
    }
}

fn read_line(reader: &mut impl BufRead, out: &mut String) -> io::Result<usize> {
    let start = out.len();
    if reader.read_line(out)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(start)
}

/// Reads one response frame: a single line, an `ok batch N` envelope of
/// `N` frames closed by `end`, or a multi-line block closed by `end`.
fn read_frame(reader: &mut impl BufRead, out: &mut String) -> io::Result<()> {
    let start = read_line(reader, out)?;
    let head = out[start..].trim_end().to_string();
    if let Some(count) = head.strip_prefix("ok batch ") {
        let count: usize = count
            .parse()
            .map_err(|_| io::Error::other(format!("bad batch head {head:?}")))?;
        for _ in 0..count {
            read_frame(reader, out)?;
        }
        read_line(reader, out)?;
        return Ok(());
    }
    let single = head.starts_with("err ")
        || [
            "ok hello",
            "ok load",
            "ok unload",
            "ok whatif",
            "ok shutdown",
        ]
        .iter()
        .any(|prefix| head.starts_with(prefix));
    if !single {
        loop {
            let line = read_line(reader, out)?;
            if &out[line..] == "end\n" {
                break;
            }
        }
    }
    Ok(())
}

/// A served process after set-up, ready for the timed phase.
pub struct Ready {
    /// The process.
    pub server: ServerProcess,
    /// Its session.
    pub conn: Connection,
    /// Spawn-to-ready time.
    pub setup: Duration,
}

/// Spawns a server and brings it to ready: greeting received, every site
/// loaded and journaled, every site's incumbent evaluated once. Set-up
/// answers are checked after the clock stops.
pub fn set_up(binary: &Path, data_dir: &Path, inputs: &Inputs) -> io::Result<Ready> {
    let start = Instant::now();
    let server = ServerProcess::spawn(binary, data_dir)?;
    let mut conn = Connection::open(server.addr())?;
    let mut answers = Vec::with_capacity(inputs.setup.len());
    for request in &inputs.setup {
        let mut answer = String::new();
        conn.round_trip(request, &mut answer)?;
        answers.push(answer);
    }
    let setup = start.elapsed();
    if let Some(bad) = answers
        .iter()
        .find(|a| !a.starts_with("ok batch") || a.contains("\nerr "))
    {
        return Err(io::Error::other(format!("set-up failed: {bad:?}")));
    }
    Ok(Ready {
        server,
        conn,
        setup,
    })
}

/// The timed phase's record: per-op latency and raw response, op `k`
/// answering `cycle[k % cycle.len()]`.
pub struct Timed {
    /// Client round-trip per op, in ns.
    pub latency_ns: Vec<u64>,
    /// Raw responses.
    pub responses: Vec<String>,
    /// Wall time of the phase.
    pub elapsed: Duration,
}

/// Replays whole op cycles, at least `min_cycles` of them, until `seconds`
/// have passed.
pub fn run_timed(
    conn: &mut Connection,
    inputs: &Inputs,
    seconds: f64,
    min_cycles: usize,
) -> io::Result<Timed> {
    let mut timed = Timed {
        latency_ns: Vec::new(),
        responses: Vec::new(),
        elapsed: Duration::ZERO,
    };
    let start = Instant::now();
    let mut cycles = 0;
    while cycles < min_cycles || timed.elapsed.as_secs_f64() < seconds {
        for op in &inputs.cycle {
            let mut response = String::new();
            let sent = Instant::now();
            conn.round_trip(&op.text, &mut response)?;
            timed.latency_ns.push(sent.elapsed().as_nanos() as u64);
            timed.responses.push(response);
        }
        cycles += 1;
        timed.elapsed = start.elapsed();
    }
    Ok(timed)
}

/// The served process's own latency histogram of one command.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerLatency {
    /// Requests observed.
    pub count: u64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
}

/// Fetches `status-export` and extracts the per-command histograms.
pub fn server_latencies(conn: &mut Connection) -> io::Result<Vec<(String, ServerLatency)>> {
    let mut answer = String::new();
    conn.round_trip(b"status-export\n", &mut answer)?;
    let mut out = Vec::new();
    let mut lines = answer
        .lines()
        .skip_while(|l| l.trim() != "\"histograms\": {");
    lines.next();
    let mut current: Option<(String, ServerLatency)> = None;
    for line in lines {
        let line = line.trim().trim_end_matches(',');
        if let Some(name) = line.strip_suffix(": {") {
            current = Some((name.trim_matches('"').to_string(), ServerLatency::default()));
        } else if line.starts_with('}') {
            match current.take() {
                Some(entry) => out.push(entry),
                None => break,
            }
        } else if let Some((key, value)) = line.split_once(": ") {
            let (Some((_, latency)), Ok(value)) = (current.as_mut(), value.parse::<u64>()) else {
                continue;
            };
            match key.trim_matches('"') {
                "count" => latency.count = value,
                "p50-ns" => latency.p50_ns = value,
                "p99-ns" => latency.p99_ns = value,
                _ => {}
            }
        }
    }
    Ok(out)
}
