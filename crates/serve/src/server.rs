//! The daemon's front door: bind, start the reactor, wind down.
//!
//! All connection handling and every engine shard live in
//! [`crate::reactor`] — a single nonblocking readiness loop on one
//! thread. This module is the thin lifecycle wrapper around it: the
//! public API (`start`/`addr`/`join`/`stop`) is unchanged from the
//! thread-per-connection era, so bins and tests drive every design the
//! same way.

use crate::log::InputLog;
use crate::reactor;
use crate::{router, ServeConfig};
use jobsched_json::Json;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long [`Server::stop`] waits to connect when it wakes the loop;
/// the loop re-checks its stop flag at least every 500 ms regardless.
const WAKE_TIMEOUT: Duration = Duration::from_millis(200);

/// A running daemon: the reactor thread, which serves every connection
/// and every engine shard.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and start serving `config`. Returns once the listener
    /// is live; scheduling runs on a background thread until a `shutdown`
    /// request (see [`Server::join`]) or [`Server::stop`].
    pub fn start(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Server> {
        Server::launch(addr, config, None)
    }

    /// [`Server::start`] from a checkpoint: `checkpoint` is the `state`
    /// document of a `checkpoint` or `shutdown --checkpoint` reply (bare
    /// or still wrapped in the reply; `serve-checkpoint/1` for one
    /// shard, `serve-checkpoint/2` for several). It is decoded before
    /// `addr` is bound — a bad document is an `InvalidData` error and no
    /// port was ever open — and every shard has replayed its log before
    /// the first connection is accepted. Unlike the wire `restore` op
    /// this path has no size limit.
    pub fn start_restored(
        addr: impl ToSocketAddrs,
        config: ServeConfig,
        checkpoint: &Json,
    ) -> io::Result<Server> {
        let logs = router::restore_logs(&config, checkpoint)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Server::launch(addr, config, Some(logs))
    }

    fn launch(
        addr: impl ToSocketAddrs,
        config: ServeConfig,
        restored: Option<Vec<InputLog>>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = reactor::start(listener, config, Arc::clone(&stop), restored)?;
        Ok(Server {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0 in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the daemon stops (i.e. a client sent `shutdown`).
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Force the daemon down without a client connection (tests). The
    /// reactor notices the flag on its next wakeup and drops every
    /// engine with itself.
    pub fn stop(mut self) {
        if let Some(t) = self.thread.take() {
            self.interrupt();
            let _ = t.join();
        }
    }

    /// Raise the stop flag and wake the loop out of its wait by
    /// connecting to the daemon's own listening address.
    fn interrupt(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.thread.take().is_some() {
            self.interrupt();
        }
    }
}
