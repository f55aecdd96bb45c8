//! The daemon's front door: bind, start the reactor, wind down.
//!
//! All connection handling lives in [`crate::reactor`] — a single
//! nonblocking readiness loop multiplexing every socket, feeding N
//! engine shards. This module is the thin lifecycle wrapper around it:
//! the public API (`start`/`addr`/`join`/`stop`) is unchanged from the
//! thread-per-connection era, so bins and tests drive both designs the
//! same way.

use crate::log::InputLog;
use crate::reactor::{self, ReactorHandle};
use crate::{router, ServeConfig};
use jobsched_json::Json;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A running daemon: reactor thread + shard engine threads.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<ReactorHandle>,
}

impl Server {
    /// Bind `addr` and start serving `config`. Returns once the listener
    /// is live; scheduling runs on background threads until a `shutdown`
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
        let handle = reactor::start(listener, config, Arc::clone(&stop), restored)?;
        Ok(Server {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0 in tests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the daemon stops (i.e. a client sent `shutdown`).
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.thread.join();
        }
    }

    /// Force the daemon down without a client connection (tests). The
    /// reactor notices the flag on its next wakeup, drops the shard
    /// channels, and every engine thread exits at its next receive.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.out.wake();
            let _ = h.thread.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.out.wake();
        }
    }
}
