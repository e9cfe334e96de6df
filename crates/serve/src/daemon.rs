//! The daemon: socket front-end over the dispatch core.
//!
//! One accept thread, one lightweight handler thread per connection;
//! handlers speak the length-prefixed protocol of [`crate::proto`] and
//! translate frames into [`Dispatcher`] calls. The daemon owns no session
//! state of its own — everything lives in the store and the dispatch
//! core, which is what makes `kill → restart → resume` exact: a new
//! daemon over the same store root recovers every session.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use mtm_runner::RunnerError;

use crate::dispatch::{DispatchConfig, Dispatcher};
use crate::proto::{
    decode_frame, encode_frame, response, FrameStatus, Request, RequestFrame, Response,
    PROTO_VERSION,
};
use crate::store::SessionStore;

/// Where the daemon listens (and clients connect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP address, e.g. `127.0.0.1:7117` (or `:0` to pick a free port).
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parse `tcp:HOST:PORT` / `unix:PATH` (a bare `HOST:PORT` is TCP).
    pub fn parse(text: &str) -> Result<Endpoint, String> {
        if let Some(path) = text.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".to_string());
            }
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        let addr = text.strip_prefix("tcp:").unwrap_or(text);
        if addr.is_empty() {
            return Err("empty endpoint".to_string());
        }
        Ok(Endpoint::Tcp(addr.to_string()))
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// One accepted connection, abstracted over transport.
pub(crate) enum Conn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Conn {
    pub(crate) fn connect(endpoint: &Endpoint) -> Result<Conn, String> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect(addr)
                .map(Conn::Tcp)
                .map_err(|e| format!("connect {addr}: {e}")),
            #[cfg(unix)]
            Endpoint::Unix(path) => UnixStream::connect(path)
                .map(Conn::Unix)
                .map_err(|e| format!("connect {}: {e}", path.display())),
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(format!(
                "unix sockets unsupported on this platform: {}",
                path.display()
            )),
        }
    }
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> Result<(Listener, Endpoint), RunnerError> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr)
                    .map_err(|e| RunnerError::Io(format!("bind {addr}: {e}")))?;
                let resolved = listener
                    .local_addr()
                    .map(|a| Endpoint::Tcp(a.to_string()))
                    .unwrap_or_else(|_| endpoint.clone());
                Ok((Listener::Tcp(listener), resolved))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                // A dead socket file from a previous run refuses rebinds.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| RunnerError::Io(format!("bind {}: {e}", path.display())))?;
                Ok((Listener::Unix(listener), endpoint.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(path) => Err(RunnerError::Invalid(format!(
                "unix sockets unsupported on this platform: {}",
                path.display()
            ))),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Session store root.
    pub root: PathBuf,
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Dispatch core configuration.
    pub dispatch: DispatchConfig,
}

/// A running daemon. Dropping it without [`Daemon::shutdown`] leaves the
/// OS to reap the threads — tests use that to approximate a hard kill.
pub struct Daemon {
    dispatcher: Arc<Dispatcher>,
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Open (or recover) the store under `config.root`, start the worker
    /// pool, bind the socket and begin accepting.
    pub fn start(config: DaemonConfig) -> Result<Daemon, RunnerError> {
        let store = SessionStore::open(&config.root)?;
        let dispatcher = Dispatcher::start(store, &config.dispatch)?;
        let (listener, endpoint) = Listener::bind(&config.endpoint)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let dispatcher = Arc::clone(&dispatcher);
            let stop = Arc::clone(&stop);
            let poke = endpoint.clone();
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(listener, dispatcher, stop, poke))
                .map_err(|e| RunnerError::Io(format!("spawn accept thread: {e}")))?
        };
        Ok(Daemon {
            dispatcher,
            endpoint,
            stop,
            accept: Some(accept),
        })
    }

    /// The resolved endpoint (the actual port when bound to `:0`).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Direct handle on the dispatch core (in-process callers: soak,
    /// bench, tests).
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    /// Block until a `Shutdown` request stops the daemon (the CLI's
    /// `serve` command). The requesting handler has already stopped the
    /// workers by the time the accept thread parks; the trailing
    /// `shutdown()` is an idempotent no-op that keeps the teardown path
    /// single.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.dispatcher.shutdown();
    }

    /// Graceful stop: stop accepting, abort active sessions at their next
    /// trial boundary, join everything. All in-flight work resumes on the
    /// next start over the same root.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the listener so a blocked accept() observes the flag.
        let _ = Conn::connect(&self.endpoint);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.dispatcher.shutdown();
    }
}

fn accept_loop(
    listener: Listener,
    dispatcher: Arc<Dispatcher>,
    stop: Arc<AtomicBool>,
    poke: Endpoint,
) {
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) if stop.load(Ordering::SeqCst) => return,
            Err(e) => {
                eprintln!("[serve] accept: {e}");
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let dispatcher = Arc::clone(&dispatcher);
        let stop = Arc::clone(&stop);
        let poke = poke.clone();
        let spawned = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_conn(conn, dispatcher, stop, poke));
        if let Err(e) = spawned {
            eprintln!("[serve] spawn connection handler: {e}");
        }
    }
}

/// Serve one connection until EOF, a malformed frame, or shutdown.
fn handle_conn(mut conn: Conn, dispatcher: Arc<Dispatcher>, stop: Arc<AtomicBool>, poke: Endpoint) {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    loop {
        // Drain every complete frame already buffered.
        loop {
            match decode_frame::<RequestFrame>(&buf) {
                FrameStatus::Complete { value, consumed } => {
                    buf.drain(..consumed);
                    let mut shutdown_after = false;
                    let resp = if value.v != PROTO_VERSION {
                        Response::Error {
                            message: format!(
                                "protocol version {} unsupported (daemon speaks {PROTO_VERSION})",
                                value.v
                            ),
                        }
                    } else {
                        match value.req {
                            Request::Submit { spec } => dispatcher.submit(&spec),
                            Request::Poll { session } => dispatcher.poll(&session),
                            Request::Steer { session, priority } => {
                                dispatcher.steer(&session, priority)
                            }
                            Request::Cancel { session } => dispatcher.cancel(&session),
                            Request::Snapshot { session } => dispatcher.snapshot(&session),
                            Request::Shutdown => {
                                shutdown_after = true;
                                Response::ShuttingDown
                            }
                        }
                    };
                    if write_response(&mut conn, &resp).is_err() {
                        return;
                    }
                    if shutdown_after {
                        stop.store(true, Ordering::SeqCst);
                        let _ = Conn::connect(&poke);
                        dispatcher.shutdown();
                        return;
                    }
                }
                FrameStatus::Incomplete => break,
                FrameStatus::Malformed(message) => {
                    let _ = write_response(&mut conn, &Response::Error { message });
                    return;
                }
            }
        }
        match conn.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if let Some(read) = chunk.get(..n) {
                    buf.extend_from_slice(read);
                }
            }
            Err(_) => return,
        }
    }
}

fn write_response(conn: &mut Conn, resp: &Response) -> Result<(), ()> {
    let frame = encode_frame(&response(resp.clone())).map_err(|_| ())?;
    conn.write_all(&frame).map_err(|_| ())?;
    conn.flush().map_err(|_| ())
}
