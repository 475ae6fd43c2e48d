//! The store-server: per-connection sessions serving namespaced
//! [`SweepStore`] directories over the JSON-lines protocol.
//!
//! The sockets are not handled here: the accept loop, the per-connection
//! reader (frame length cap, read timeout), the shared writer and the stop
//! signal are the daemon skeleton in [`mfa_dispatch::daemon`], shared with
//! the allocation daemon, and the frame codec is [`mfa_explore::wire`]'s.
//! This module is the skeleton's [`Handler`] for [`ToStore`] requests; a
//! session's state is the namespace its handshake bound.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mfa_dispatch::daemon::{Conn, Daemon, Handler, LineFault, StopSignal};
use mfa_explore::store::{ResultStore, SweepStore};

use crate::error::StoreNetError;
use crate::protocol::{FromStore, GetQuery, StoreServerStats, ToStore, PROTOCOL_VERSION};

/// Longest namespace a client may bind (a directory name under the root).
const NAMESPACE_MAX_LEN: usize = 64;

/// Configuration of a [`StoreServer`].
#[derive(Debug, Clone)]
pub struct StoreServerOptions {
    /// Per-frame read timeout of a session: a connection producing no
    /// complete frame within this window is answered with a typed error and
    /// dropped, so a stalled client cannot park a session thread forever
    /// (mirroring the serve daemon's `ServeOptions::read_timeout`). Store
    /// sessions are strict request/reply — the server never owes a waiting
    /// client a reply while it reads — so no in-flight request can be
    /// timed out under a blocked client; the default is still generous
    /// because sweep clients legitimately compute between frames, and a
    /// [`RemoteStore`](crate::RemoteStore) whose idle session was dropped
    /// transparently redials on its next request anyway. `None` waits
    /// indefinitely.
    pub read_timeout: Option<Duration>,
}

impl Default for StoreServerOptions {
    fn default() -> Self {
        StoreServerOptions {
            read_timeout: Some(Duration::from_secs(300)),
        }
    }
}

/// Validates a client-supplied namespace before it becomes a directory name.
/// The namespace travels from an untrusted socket straight into a filesystem
/// path, so everything that could escape the root (`..`, separators, hidden
/// prefixes) is rejected, not sanitised.
fn validate_namespace(namespace: &str) -> Result<(), String> {
    if namespace.is_empty() {
        return Err("namespace must not be empty".into());
    }
    if namespace.len() > NAMESPACE_MAX_LEN {
        return Err(format!(
            "namespace longer than {NAMESPACE_MAX_LEN} characters"
        ));
    }
    if namespace.starts_with('.') {
        return Err(format!("namespace '{namespace}' must not start with '.'"));
    }
    if let Some(bad) = namespace
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')))
    {
        return Err(format!(
            "namespace '{namespace}' has forbidden character '{bad}' \
             (allowed: ASCII letters, digits, '.', '_', '-')"
        ));
    }
    Ok(())
}

/// One open namespace's store, individually locked so sessions on
/// different namespaces never serialize behind one store's disk I/O.
type SharedStore = Arc<Mutex<SweepStore>>;

/// State shared by the connection sessions.
struct Shared {
    stop: StopSignal,
    root: PathBuf,
    options: StoreServerOptions,
    /// Open namespaces, one lock per store. A `BTreeMap` so stats
    /// aggregation walks them in a stable order; the map is append-only
    /// (stores stay open once bound), and its own lock is only held to look
    /// up or insert handles — never across store I/O.
    stores: Mutex<BTreeMap<String, SharedStore>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    puts: AtomicUsize,
}

impl Shared {
    fn stats(&self) -> StoreServerStats {
        // Snapshot the handles first so per-store stats (a disk-backed
        // index walk) never run under the namespace map lock.
        let stores: Vec<SharedStore> = {
            let map = self.stores.lock().expect("stores mutex poisoned");
            map.values().cloned().collect()
        };
        let mut stats = StoreServerStats {
            namespaces: stores.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            ..StoreServerStats::default()
        };
        for store in stores {
            let s = store.lock().expect("store mutex poisoned").stats();
            stats.entries += s.entries;
            stats.segments += s.segments;
            stats.orphan_tmp += s.orphan_tmp;
            stats.duplicate_entries += s.duplicate_entries;
            stats.corrupt_entries += s.corrupt_entries;
            stats.version_mismatches += s.version_mismatches;
        }
        stats
    }
}

/// A running store-server bound to a TCP address, serving the namespaces
/// under one root directory.
///
/// [`spawn`](StoreServer::spawn) binds the listener and starts the accept
/// loop; each client connection gets its own session thread (exiting at
/// client EOF). [`stop`](StoreServer::stop) shuts the accept loop down and
/// joins it — sessions hold no dirty state (every `put` is committed to disk
/// before `put-ok` is written), so they are simply abandoned.
pub struct StoreServer {
    daemon: Daemon,
    shared: Arc<Shared>,
}

impl StoreServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving the store
    /// directories under `root` (created on first use per namespace) with
    /// [`StoreServerOptions::default`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreNetError::Io`] when the address cannot be bound.
    pub fn spawn(addr: &str, root: impl Into<PathBuf>) -> Result<StoreServer, StoreNetError> {
        Self::spawn_with(addr, root, StoreServerOptions::default())
    }

    /// Like [`spawn`](Self::spawn) with explicit [`StoreServerOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreNetError::Io`] when the address cannot be bound.
    pub fn spawn_with(
        addr: &str,
        root: impl Into<PathBuf>,
        options: StoreServerOptions,
    ) -> Result<StoreServer, StoreNetError> {
        let shared = Arc::new(Shared {
            stop: StopSignal::default(),
            root: root.into(),
            options,
            stores: Mutex::new(BTreeMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            puts: AtomicUsize::new(0),
        });
        let daemon = Daemon::spawn(
            addr,
            Arc::clone(&shared),
            shared.stop.clone(),
            shared.options.read_timeout,
        )?;
        Ok(StoreServer { daemon, shared })
    }

    /// The bound address (with `:0` resolved to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// `true` once the server has been asked to stop (by a client's
    /// shutdown frame or a concurrent [`stop`](Self::stop)); the
    /// `store-server` binary polls this to know when to exit.
    pub fn is_stopped(&self) -> bool {
        self.shared.stop.is_raised()
    }

    /// A snapshot of the server's aggregate counters.
    pub fn stats(&self) -> StoreServerStats {
        self.shared.stats()
    }

    /// Stops the server: wakes the accept loop and joins it. Session
    /// threads exit when their clients disconnect; committed data is
    /// already on disk.
    pub fn stop(self) {
        self.daemon.stop();
    }
}

/// Runs `op` against the session's bound namespace, or builds the error
/// frame when no namespace is bound yet. Only the one namespace's store
/// lock is taken, so sessions on other namespaces proceed concurrently.
fn with_bound_store<T>(
    bound: &Option<SharedStore>,
    id: usize,
    op: impl FnOnce(&mut SweepStore) -> Result<T, StoreNetError>,
) -> Result<T, FromStore> {
    let Some(store) = bound else {
        return Err(FromStore::Error {
            id,
            message: "no namespace bound: open the session with a \
                      store-hello carrying a namespace"
                .into(),
        });
    };
    let mut store = store.lock().expect("store mutex poisoned");
    op(&mut store).map_err(|err| FromStore::Error {
        id,
        message: err.to_string(),
    })
}

impl Handler for Shared {
    type Request = ToStore;
    type Reply = FromStore;
    /// The namespace the session's handshake bound.
    type Session = Option<SharedStore>;
    const NAME: &'static str = "store-server";

    /// Serves one request of a session: the handshake (which binds the
    /// namespace), then get/put/stats/evict until EOF or shutdown.
    fn handle(
        &self,
        bound: &mut Option<SharedStore>,
        conn: &Arc<Conn>,
        request: ToStore,
    ) -> ControlFlow<()> {
        let reply = match request {
            ToStore::Hello {
                protocol,
                namespace,
            } => {
                if protocol != PROTOCOL_VERSION {
                    let _ = conn.send(&FromStore::Error {
                        id: 0,
                        message: format!(
                            "protocol version skew: store-server speaks \
                             {PROTOCOL_VERSION}, client sent {protocol}"
                        ),
                    });
                    return ControlFlow::Break(());
                }
                match bind_namespace(self, namespace) {
                    Ok(store) => {
                        *bound = store;
                        FromStore::Ready {
                            protocol: PROTOCOL_VERSION,
                        }
                    }
                    Err(message) => {
                        let _ = conn.send(&FromStore::Error { id: 0, message });
                        return ControlFlow::Break(());
                    }
                }
            }
            ToStore::Get { id, query } => {
                match with_bound_store(bound, id, |store| serve_get(store, &query)) {
                    Ok(entries) => {
                        if matches!(query, GetQuery::Points(_)) {
                            let hits = entries.iter().filter(|slot| slot.is_some()).count();
                            self.hits.fetch_add(hits, Ordering::Relaxed);
                            self.misses
                                .fetch_add(entries.len() - hits, Ordering::Relaxed);
                        }
                        FromStore::Entries { id, entries }
                    }
                    Err(reply) => reply,
                }
            }
            ToStore::Put { id, entries } => {
                let appended = entries.len();
                match with_bound_store(bound, id, |store| {
                    store.put(entries).map_err(StoreNetError::from)
                }) {
                    Ok(()) => {
                        self.puts.fetch_add(appended, Ordering::Relaxed);
                        FromStore::PutOk { id, appended }
                    }
                    Err(reply) => reply,
                }
            }
            ToStore::Stats { id } => FromStore::Stats {
                id,
                stats: self.stats(),
            },
            ToStore::Evict { id } => {
                match with_bound_store(bound, id, |store| store.gc().map_err(StoreNetError::from)) {
                    Ok(report) => FromStore::Evicted { id, report },
                    Err(reply) => reply,
                }
            }
            ToStore::Shutdown => {
                self.stop.raise();
                return ControlFlow::Break(());
            }
        };
        match conn.send(&reply) {
            Ok(()) => ControlFlow::Continue(()),
            Err(_) => ControlFlow::Break(()),
        }
    }

    /// Sessions are strict request/reply — the server never owes a client a
    /// reply while it reads — so a read timeout always means a stalled (or
    /// gone) client; a `RemoteStore` that was merely idle redials on its
    /// next request.
    fn refuse(&self, fault: &LineFault) -> FromStore {
        FromStore::Error {
            id: 0,
            message: fault.to_string(),
        }
    }
}

/// Validates and opens (creating if needed) the namespace a handshake
/// binds, handing the session its per-namespace store lock.
fn bind_namespace(
    shared: &Shared,
    namespace: Option<String>,
) -> Result<Option<SharedStore>, String> {
    let Some(namespace) = namespace else {
        return Ok(None);
    };
    validate_namespace(&namespace)?;
    let mut stores = shared.stores.lock().expect("stores mutex poisoned");
    if let Some(store) = stores.get(&namespace) {
        return Ok(Some(Arc::clone(store)));
    }
    let store = SweepStore::open(shared.root.join(&namespace))
        .map_err(|err| format!("cannot open namespace '{namespace}': {err}"))?;
    let store = Arc::new(Mutex::new(store));
    stores.insert(namespace, Arc::clone(&store));
    Ok(Some(store))
}

type Slots = Vec<Option<(mfa_alloc::fingerprint::Fingerprint, mfa_explore::StoreEntry)>>;

fn serve_get(store: &mut SweepStore, query: &GetQuery) -> Result<Slots, StoreNetError> {
    Ok(match query {
        GetQuery::Points(fps) => store
            .get_many(fps)?
            .into_iter()
            .zip(fps)
            .map(|(slot, fp)| slot.map(|entry| (*fp, entry)))
            .collect(),
        GetQuery::Series(series) => store.get_series(series)?.into_iter().map(Some).collect(),
        GetQuery::All => store.snapshot()?.into_iter().map(Some).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_validation_rejects_path_escapes() {
        for bad in [
            "",
            "..",
            "../evil",
            "a/b",
            "a\\b",
            ".hidden",
            "fig 2",
            "fig\u{e9}",
        ] {
            assert!(validate_namespace(bad).is_err(), "{bad:?}");
        }
        for good in ["fig2", "quick.zero-timing", "serve-cache", "A_b-c.9"] {
            assert!(validate_namespace(good).is_ok(), "{good:?}");
        }
        assert!(validate_namespace(&"n".repeat(NAMESPACE_MAX_LEN)).is_ok());
        assert!(validate_namespace(&"n".repeat(NAMESPACE_MAX_LEN + 1)).is_err());
    }
}
