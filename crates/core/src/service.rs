//! The supervised service layer: what turns one checkpointed campaign into a
//! long-running **fuzzing service** (`peachstar-cli serve`).
//!
//! Three pieces cooperate:
//!
//! * [`ServiceHooks`] — the shared seam between the running campaign and the
//!   outside world. The campaign's round loop publishes live progress into
//!   it at every round end and polls its stop flag there; requesting a stop
//!   therefore *drains gracefully*: the current round finishes, a final
//!   checkpoint is written, and the supervised run returns with
//!   `executions` naming the boundary it stopped at.
//! * [`ControlServer`] — a line-oriented JSON control socket (`--control
//!   ADDR`). Clients send one command per line: `status` answers with the
//!   live status document ([`ServiceHooks::status_json`]), `stop` trips the
//!   graceful drain; anything else gets an `{"error": ...}` line. The
//!   protocol is deliberately trivial — `printf 'status\n' | nc` is a
//!   sufficient client.
//! * Rolling checkpoints — [`CheckpointConfig::rotation`]
//!   (`--keep-checkpoints K`) writes each snapshot atomically into a
//!   rotation directory and prunes the oldest beyond K, and
//!   [`CampaignSnapshot::resume_latest`] (`serve --resume-latest DIR`)
//!   scans that rotation newest-first, skipping truncated or corrupt slots,
//!   so a SIGKILL'd service resumes bit-exactly from its newest intact
//!   boundary.
//!
//! [`CheckpointConfig::rotation`]: crate::snapshot::CheckpointConfig::rotation
//! [`CampaignSnapshot::resume_latest`]: crate::snapshot::CampaignSnapshot::resume_latest
//!
//! A campaign is supervised by passing the hooks as
//! [`RunPlan::service`](crate::campaign::RunPlan::service) to
//! [`Campaign::run_plan`](crate::campaign::Campaign::run_plan), so the
//! service shape is identical inline, on workers and over a real wire.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest control command line accepted, newline excluded; a longer
/// line gets an error reply and the connection is closed.
const MAX_COMMAND_LEN: usize = 256;

/// How long a read on a control connection blocks before re-checking the
/// shutdown flag, so an idle client cannot keep the server from stopping.
const CONTROL_POLL: Duration = Duration::from_millis(100);

/// A point-in-time view of a supervised campaign, published by the round
/// loop at every round end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStatus {
    /// Executions completed so far.
    pub executions: u64,
    /// The campaign's execution budget.
    pub budget: u64,
    /// Distinct execution paths covered so far.
    pub paths: usize,
    /// Distinct coverage-map edges covered so far.
    pub edges: usize,
    /// Unique bugs found so far (deduplicated by fault site).
    pub bugs: usize,
    /// Execution index of the newest checkpoint written (`None` before the
    /// first one).
    pub last_checkpoint: Option<u64>,
}

/// The shared seam between a supervised campaign and its operators: live
/// status in, stop requests out. Cheap to clone behind an [`Arc`]; the
/// round loop holds a borrow for the campaign's duration while the
/// [`ControlServer`] (or a signal handler, or a test) holds another.
#[derive(Debug)]
pub struct ServiceHooks {
    stop: AtomicBool,
    status: Mutex<ServiceStatus>,
    started: Instant,
}

impl ServiceHooks {
    /// Hooks for a campaign with the given execution budget, ready to share.
    #[must_use]
    pub fn new(budget: u64) -> Arc<Self> {
        Arc::new(Self {
            stop: AtomicBool::new(false),
            status: Mutex::new(ServiceStatus {
                budget,
                ..ServiceStatus::default()
            }),
            started: Instant::now(),
        })
    }

    /// Requests a graceful drain: the campaign finishes its current window,
    /// writes a final checkpoint and returns. Idempotent.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a graceful stop has been requested.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The newest published status.
    #[must_use]
    pub fn status(&self) -> ServiceStatus {
        *self.status.lock().expect("service status poisoned")
    }

    /// Seconds since the hooks were created — the service uptime.
    #[must_use]
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Publishes the boundary state the round loop just reached.
    pub(crate) fn observe(&self, executions: u64, paths: usize, edges: usize, bugs: usize) {
        let mut status = self.status.lock().expect("service status poisoned");
        status.executions = executions;
        status.paths = paths;
        status.edges = edges;
        status.bugs = bugs;
    }

    /// Records that a checkpoint covering `completed` executions was
    /// written.
    pub(crate) fn checkpointed(&self, completed: u64) {
        self.status.lock().expect("service status poisoned").last_checkpoint = Some(completed);
    }

    /// The one-line JSON status document the control socket answers `status`
    /// with. Progress fields are exact; `executions_per_second` and
    /// `uptime_seconds` are wall-clock measurements and vary run to run.
    #[must_use]
    pub fn status_json(&self) -> String {
        let status = self.status();
        let uptime = self.uptime_seconds();
        let rate = if uptime > 0.0 {
            status.executions as f64 / uptime
        } else {
            0.0
        };
        let last_checkpoint = status
            .last_checkpoint
            .map_or_else(|| "null".to_owned(), |completed| completed.to_string());
        format!(
            concat!(
                "{{\"executions\":{},\"budget\":{},\"paths\":{},\"edges\":{},",
                "\"bugs\":{},\"executions_per_second\":{:.1},",
                "\"last_checkpoint\":{},\"uptime_seconds\":{:.1},\"stopping\":{}}}"
            ),
            status.executions,
            status.budget,
            status.paths,
            status.edges,
            status.bugs,
            rate,
            last_checkpoint,
            uptime,
            self.stop_requested(),
        )
    }
}

/// The line-oriented JSON control socket of a supervised campaign (see the
/// module docs for the protocol). Connections are handled one at a time on
/// the accept thread — a control socket sees operators, not load. Reads
/// re-check the shutdown flag every 100 ms, so a client that stays
/// connected without sending anything never blocks
/// [`shutdown`](ControlServer::shutdown).
#[derive(Debug)]
pub struct ControlServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ControlServer {
    /// Starts answering control commands on `listener`, publishing (and
    /// stopping) the campaign behind `hooks`.
    ///
    /// # Errors
    ///
    /// Propagates the listener's local-address lookup failure.
    pub fn start(listener: TcpListener, hooks: Arc<ServiceHooks>) -> io::Result<Self> {
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept = std::thread::Builder::new()
            .name("peachstar-control".to_owned())
            .spawn(move || {
                for connection in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = connection else { continue };
                    let _ = handle_control(stream, &hooks, &accept_shutdown);
                }
            })?;
        Ok(Self {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The address the control socket is listening on (use with a port-0
    /// bind to discover the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops answering and joins the accept thread. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(self.addr);
            let _ = accept.join();
        }
    }
}

impl Drop for ControlServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one control connection until EOF or shutdown: one command per
/// line in, one JSON document per line out.
fn handle_control(
    stream: TcpStream,
    hooks: &ServiceHooks,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(CONTROL_POLL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        // Buffers at most the longest command plus one byte: its newline,
        // or the byte that makes the line too long.
        let limit = (MAX_COMMAND_LEN + 1 - line.len()) as u64;
        let eof = match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(read) => read == 0,
            Err(error)
                if matches!(
                    error.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(error) => return Err(error),
        };
        let terminated = line.last() == Some(&b'\n');
        let too_long = line.len() - usize::from(terminated) > MAX_COMMAND_LEN;
        if !(terminated || too_long || eof) {
            continue;
        }
        let reply = if too_long {
            Some(format!(
                "{{\"error\":\"command longer than {MAX_COMMAND_LEN} bytes\"}}"
            ))
        } else {
            match String::from_utf8_lossy(&line).trim() {
                "" => None,
                "status" => Some(hooks.status_json()),
                "stop" => {
                    hooks.request_stop();
                    Some("{\"ok\":true,\"stopping\":true}".to_owned())
                }
                other => Some(format!(
                    "{{\"error\":\"unknown command: {}\"}}",
                    other.replace(['"', '\\'], "?")
                )),
            }
        };
        line.clear();
        if let Some(reply) = reply {
            writer.write_all(reply.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        if eof || too_long {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn control_roundtrip(addr: SocketAddr, commands: &[&str]) -> Vec<String> {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut replies = Vec::new();
        for command in commands {
            writer
                .write_all(format!("{command}\n").as_bytes())
                .expect("send");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            replies.push(reply.trim().to_owned());
        }
        replies
    }

    #[test]
    fn status_json_reports_progress_and_checkpoints() {
        let hooks = ServiceHooks::new(10_000);
        hooks.observe(2_500, 40, 120, 2);
        hooks.checkpointed(2_500);
        let json = hooks.status_json();
        assert!(json.contains("\"executions\":2500"), "{json}");
        assert!(json.contains("\"budget\":10000"), "{json}");
        assert!(json.contains("\"paths\":40"), "{json}");
        assert!(json.contains("\"edges\":120"), "{json}");
        assert!(json.contains("\"bugs\":2"), "{json}");
        assert!(json.contains("\"last_checkpoint\":2500"), "{json}");
        assert!(json.contains("\"stopping\":false"), "{json}");
        assert!(json.contains("\"executions_per_second\":"), "{json}");
        assert!(json.contains("\"uptime_seconds\":"), "{json}");
        // Before any checkpoint the field is a JSON null, not a string.
        assert!(ServiceHooks::new(1).status_json().contains("\"last_checkpoint\":null"));
    }

    #[test]
    fn control_socket_answers_status_stop_and_unknown() {
        let hooks = ServiceHooks::new(5_000);
        hooks.observe(1_000, 10, 30, 0);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut control = ControlServer::start(listener, Arc::clone(&hooks)).expect("control");
        let replies = control_roundtrip(control.addr(), &["status", "nonsense", "stop", "status"]);
        assert!(replies[0].contains("\"executions\":1000"), "{}", replies[0]);
        assert!(replies[1].contains("\"error\""), "{}", replies[1]);
        assert!(replies[2].contains("\"stopping\":true"), "{}", replies[2]);
        assert!(replies[3].contains("\"stopping\":true"), "{}", replies[3]);
        assert!(hooks.stop_requested(), "stop must trip the shared flag");
        // A second client is served after the first disconnects.
        let again = control_roundtrip(control.addr(), &["status"]);
        assert!(again[0].contains("\"budget\":5000"), "{}", again[0]);
        control.shutdown();
    }

    #[test]
    fn an_idle_client_does_not_block_shutdown() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut control = ControlServer::start(listener, ServiceHooks::new(1)).expect("control");
        // An operator's forgotten `nc`: one `status`, then the connection
        // stays open and sends nothing more. The answered `status` proves
        // the accept thread is serving this connection when shutdown runs.
        let idle = TcpStream::connect(control.addr()).expect("connect");
        let mut reader = BufReader::new(idle.try_clone().expect("clone"));
        (&idle).write_all(b"status\n").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(reply.contains("\"budget\":1"), "{reply}");
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            control.shutdown();
            done.send(()).ok();
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(5)).is_ok(),
            "an idle control client kept shutdown from returning"
        );
    }

    #[test]
    fn an_over_long_command_line_is_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut control = ControlServer::start(listener, ServiceHooks::new(1)).expect("control");
        let long = "x".repeat(MAX_COMMAND_LEN + 1);
        let replies = control_roundtrip(control.addr(), &[&long]);
        assert!(replies[0].contains("longer than"), "{}", replies[0]);
        // The longest accepted command still gets an ordinary answer.
        let longest = "x".repeat(MAX_COMMAND_LEN);
        let replies = control_roundtrip(control.addr(), &[&longest]);
        assert!(replies[0].contains("unknown command"), "{}", replies[0]);
        control.shutdown();
    }
}
