//! The line-delimited TCP front end and its client.
//!
//! ## Protocol
//!
//! Requests are single lines (`\n`-terminated; SPARQL must be flattened
//! to one line — any whitespace works for the parser):
//!
//! | Request | Response |
//! |---|---|
//! | `QUERY <sparql>` | `OK <rows> <col> <col> ...` then one tab-separated N-Triples-encoded line per row, then `END` |
//! | `PROFILE <sparql>` | `OK PROFILE` then the `EXPLAIN ANALYZE` text (plan + measured execution profile), then `END` |
//! | `METRICS` | `OK METRICS` then the Prometheus text-format exposition, then `END` |
//! | `INSERT <s> <p> <o> .` | `OK pending inserts=<n> deletes=<n>` (staged, N-Triples term syntax) |
//! | `DELETE <s> <p> <o> .` | `OK pending inserts=<n> deletes=<n>` (staged) |
//! | `APPLY` | `OK applied inserted=<n> deleted=<n> predicates=<n> compacted=<n> epoch=<n>` (staged batch applied atomically) |
//! | `COMPACT` | `OK compacted predicates=<n> rebuilt=<n> epoch=<n>` (staged deltas folded into freshly frozen base tries; `rebuilt` counts them, two per folded (predicate, shard)) |
//! | `STATS` | `OK plan_hits=<n> plan_misses=<n> result_hits=<n> result_misses=<n> plan_entries=<n> cache_entries=<n> cache_bytes=<n> epoch=<n> updates=<n> updates_noop=<n> inserted=<n> deleted=<n> staged=<n> query_p50_us=<n> query_p99_us=<n> partitions=<n> max_shard_skew=<x.xx> load_mode=<mmap\|copy> mapped_bytes=<n> wal_seq=<n> wal_bytes=<n> wal_fsync_mode=<always\|never\|interval:<ms>\|off>` |
//! | `INVALIDATE` | `OK epoch=<n>` (caches dropped, epoch advanced) |
//! | `SAVE <path>` | `OK saved bytes=<n> triples=<n>` (snapshot written server-side; restart with `--snapshot <path>`; with a WAL attached, also truncates the log down to the new image) |
//! | `REPLAY <path>` | `OK replayed records=<n> inserted=<n> deleted=<n> epoch=<n>` (a WAL file on the server's filesystem replayed through the update path — replica catch-up) |
//! | `QUIT` | `OK bye`, then the connection closes |
//! | anything else | `ERR <message>` (single line; the connection stays open) |
//!
//! `PROFILE` executes the query with full instrumentation (bypassing the
//! result cache — the point is to measure a real run) on the plan a
//! `QUERY` of the same text runs, and renders that canonical plan
//! annotated with per-depth kernel choices, candidate counts, and
//! wall times; timing lines are `~`-prefixed, the rest is deterministic.
//! `METRICS` dumps every service metric (latency histograms, per-verb
//! request counters, cache hit/miss counters, occupancy gauges) in
//! Prometheus text format, `END`-framed like a query response.
//!
//! `SAVE` writes to — and `REPLAY` reads from — a path on the
//! **server's** filesystem: they are operator verbs for the trusted
//! deployments this line protocol serves, not something to expose to
//! untrusted internet traffic.
//!
//! When the server was started with `--wal <path>`, every applied batch
//! is appended to the write-ahead log (fsynced per `--fsync`) *before*
//! it stages, `STATS` reports `wal_seq=`/`wal_bytes=`/`wal_fsync_mode=`,
//! and a restart with the same `--wal` replays the tail since the last
//! `SAVE` — no acknowledged batch is lost.
//!
//! Updates are **batched per connection**: `INSERT`/`DELETE` lines stage
//! triples into the session's pending batch and nothing changes until
//! `APPLY`, which applies the whole batch atomically (deletes first, then
//! inserts — SPARQL Update convention) and reports what actually changed.
//! A connection that drops (or `QUIT`s) with a pending batch discards it.
//! The applied counts reflect real change: inserting a resident triple or
//! deleting an absent one counts zero and a fully no-op batch does not
//! advance the epoch.
//!
//! An applied batch stages its triples into per-predicate delta overlays
//! (cost proportional to the batch, not the predicate); `compacted=` in
//! the reply counts predicates whose overlays crossed the compaction
//! threshold and were folded inline. `COMPACT` folds everything staged on
//! demand — `STATS`' `staged=` gauge shows how many delta pairs are
//! resident and therefore what a `COMPACT` would reclaim.
//!
//! Responses are deterministic bytes: a `QUERY` answer is a pure function
//! of the store contents and the query text, whether it came from cache
//! or from a fresh (sequential or parallel) execution — tests assert this
//! byte-for-byte.
//!
//! ## Emit path
//!
//! [`respond_to`] is the only producer of protocol bytes and
//! `render_rows_into` the only row renderer: ids are read straight from
//! the result's tuple buffer and each term is written by
//! [`Term::write_ntriples`](eh_rdf::Term::write_ntriples) into a byte
//! buffer, with no allocation per row or per term. Each connection owns
//! one reply buffer. A result that fits the result-cache budget is
//! rendered once into its cache entry and sent as header + cached bytes +
//! `END` in one vectored write; a result too large to cache is rendered
//! and written in chunks of whole rows (about 64 KB), so the client
//! drains one chunk while the next is rendered and the full reply never
//! exists on the server. The store's read lock is held while a chunk is
//! rendered and released before it is written, so a reader that stalls
//! mid-reply cannot block `APPLY`. A reply that fits the buffer is one
//! `write`, the last chunk of a longer one carries `END`, and both ends
//! set `TCP_NODELAY`.

use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use eh_par::WorkQueue;
use eh_rdf::parse_ntriples;
use emptyheaded::UpdateBatch;

use crate::service::{render_rows_into, Answer, QueryService};
use crate::verb::{Request, Verb};

/// Bytes of reply rendered before they are handed to the socket: a reply
/// that fits goes out in one write, a longer one in chunks of whole rows
/// about this size. Loopback moves 64 KB per segment, and at that size a
/// chunk is rendered in tens of microseconds, so the peer is never left
/// waiting long for the first bytes.
const CHUNK_BYTES: usize = 64 << 10;

/// Per-connection protocol state: the update batch staged by
/// `INSERT`/`DELETE` lines, waiting for `APPLY`, and the connection's one
/// reply buffer, reused for every request.
#[derive(Debug, Default)]
pub struct Session {
    pending: UpdateBatch,
    chunk: Vec<u8>,
}

impl Session {
    /// A fresh session with nothing staged.
    pub fn new() -> Session {
        Session::default()
    }

    /// Triples currently staged (inserts + deletes).
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }
}

/// Write the full response (including trailing newline) for one request
/// line of a *stateful* session to `out`. This is the protocol's single
/// source of truth: the TCP server hands it the socket, and
/// [`respond_in_session`] collects the same bytes into a `String`.
///
/// Every reply is assembled in the session's chunk buffer and written
/// whole, except the rows of a `QUERY` answer: a result that is (or could
/// be) cached carries its rendered rows already and goes out as header +
/// those bytes + `END` in one vectored write, unconcatenated; a result
/// too large to cache is rendered into the buffer about 64 KB of whole
/// rows at a time, each chunk written while the peer drains the one
/// before, so the reply never exists in one piece on this side.
pub fn respond_to(
    service: &QueryService,
    session: &mut Session,
    line: &str,
    out: &mut impl Write,
) -> io::Result<()> {
    answer(service, session, Request::parse(line), out)
}

fn answer(
    service: &QueryService,
    session: &mut Session,
    request: Request<'_>,
    out: &mut impl Write,
) -> io::Result<()> {
    let Request { verb, command, rest } = request;
    if service.metrics_on() {
        service.metrics().note_request(verb);
    }
    let Session { pending, chunk: buf } = session;
    buf.clear();
    let operand = match verb {
        Verb::Query | Verb::Profile => "a SPARQL string",
        Verb::Insert | Verb::Delete => "an N-Triples triple",
        Verb::Save => "a file path",
        Verb::Replay => "a wal file path",
        _ => "",
    };
    match verb {
        _ if rest.is_empty() && !operand.is_empty() => {
            writeln!(buf, "ERR {} needs {operand} on the same line", verb.name())?
        }
        Verb::Query => match service.query_sparql(rest) {
            Ok(answer) => return write_answer(service, &answer, buf, out),
            Err(e) => write_err(buf, &e),
        },
        Verb::Profile => match service.profile_sparql(rest) {
            Ok(report) => {
                buf.extend_from_slice(b"OK PROFILE\n");
                buf.extend_from_slice(report.as_bytes());
                if !report.ends_with('\n') {
                    buf.push(b'\n');
                }
                buf.extend_from_slice(b"END\n");
            }
            Err(e) => write_err(buf, &e),
        },
        Verb::Metrics => {
            buf.extend_from_slice(b"OK METRICS\n");
            buf.extend_from_slice(service.metrics_text().as_bytes());
            buf.extend_from_slice(b"END\n");
        }
        Verb::Insert | Verb::Delete => match parse_ntriples(rest) {
            Ok(mut triples) if triples.len() == 1 => {
                let t = triples.pop().expect("length checked");
                if verb == Verb::Insert {
                    pending.insert(t);
                } else {
                    pending.delete(t);
                }
                writeln!(
                    buf,
                    "OK pending inserts={} deletes={}",
                    pending.inserts.len(),
                    pending.deletes.len()
                )?
            }
            Ok(_) => writeln!(buf, "ERR {} stages exactly one triple per line", verb.name())?,
            Err(e) => write_err(buf, &e),
        },
        Verb::Apply => {
            let s = service.update(std::mem::take(pending));
            writeln!(
                buf,
                "OK applied inserted={} deleted={} predicates={} compacted={} epoch={}",
                s.inserted, s.deleted, s.changed_predicates, s.compacted_predicates, s.epoch
            )?
        }
        Verb::Compact => {
            let s = service.compact();
            writeln!(
                buf,
                "OK compacted predicates={} rebuilt={} epoch={}",
                s.compacted_predicates, s.rebuilt_tries, s.epoch
            )?
        }
        Verb::Stats => {
            let s = service.stats();
            writeln!(
                buf,
                "OK plan_hits={} plan_misses={} result_hits={} result_misses={} \
                 plan_entries={} cache_entries={} cache_bytes={} epoch={} \
                 updates={} updates_noop={} inserted={} deleted={} staged={} \
                 query_p50_us={} query_p99_us={} partitions={} max_shard_skew={:.2} \
                 load_mode={} mapped_bytes={} wal_seq={} wal_bytes={} wal_fsync_mode={}",
                s.plan_hits,
                s.plan_misses,
                s.result_hits,
                s.result_misses,
                s.plan_cache_entries,
                s.result_cache_entries,
                s.result_cache_bytes,
                s.epoch,
                s.updates_applied,
                s.updates_noop,
                s.triples_inserted,
                s.triples_deleted,
                s.staged_pairs,
                s.query_p50_us,
                s.query_p99_us,
                s.partitions,
                s.max_shard_skew,
                s.load_mode,
                s.mapped_bytes,
                s.wal_seq,
                s.wal_bytes,
                s.wal_fsync.map_or("off".to_string(), |p| p.to_string())
            )?
        }
        Verb::Invalidate => writeln!(buf, "OK epoch={}", service.invalidate())?,
        Verb::Save => match service.save_snapshot(rest) {
            // The count comes from the saved image itself, so the reply
            // can't disagree with the file when an APPLY lands mid-save.
            Ok((bytes, triples)) => writeln!(buf, "OK saved bytes={bytes} triples={triples}")?,
            Err(e) => write_err(buf, &e),
        },
        Verb::Replay => match service.replay(rest) {
            Ok(r) => writeln!(
                buf,
                "OK replayed records={} inserted={} deleted={} epoch={}",
                r.replayed,
                r.inserted,
                r.deleted,
                service.engine().epoch()
            )?,
            Err(e) => write_err(buf, &e),
        },
        Verb::Quit => buf.extend_from_slice(b"OK bye\n"),
        Verb::Other if command.is_empty() => buf.extend_from_slice(b"ERR empty request\n"),
        Verb::Other => writeln!(
            buf,
            "ERR unknown command '{}' \
             (try QUERY/PROFILE/METRICS/INSERT/DELETE/APPLY/COMPACT/STATS/INVALIDATE/SAVE/REPLAY/QUIT)",
            command.to_ascii_uppercase()
        )?,
    }
    out.write_all(buf)
}

/// An `ERR` line for `e`, its message flattened to the one line the
/// protocol allows.
fn write_err(buf: &mut Vec<u8>, e: &dyn std::fmt::Display) {
    buf.extend_from_slice(b"ERR ");
    buf.extend_from_slice(e.to_string().replace(['\n', '\r'], " ").as_bytes());
    buf.push(b'\n');
}

/// A `QUERY` answer: `OK <rows> <col>...`, the rows, `END`.
fn write_answer(
    service: &QueryService,
    answer: &Answer,
    buf: &mut Vec<u8>,
    out: &mut impl Write,
) -> io::Result<()> {
    let result = &answer.result;
    write!(buf, "OK {}", result.cardinality())?;
    for col in &answer.columns {
        buf.push(b' ');
        buf.extend_from_slice(col.as_bytes());
    }
    buf.push(b'\n');
    if let Some(rows) = result.rendered() {
        // Rendered once, when the entry was built; every hit sends the
        // same bytes from where they lie.
        let mut parts = [IoSlice::new(buf), IoSlice::new(rows.as_bytes()), IoSlice::new(b"END\n")];
        return write_all_vectored(out, &mut parts);
    }
    let total = result.cardinality();
    let mut next = 0;
    while next < total {
        {
            // The read lock covers rendering only, never a write to the
            // socket, so a reader that stalls mid-reply cannot hold up
            // `APPLY`. Letting updates in between chunks is safe: the
            // rows are ids fixed when the query ran, and the dictionary
            // only grows — an id decodes to the same term for the
            // lifetime of the store.
            let store = service.store();
            while next < total && buf.len() < CHUNK_BYTES {
                render_rows_into(result, &store, next..next + 1, buf);
                next += 1;
            }
        }
        if next < total {
            out.write_all(buf)?;
            buf.clear();
        }
    }
    // The last rows and `END` leave together: no trailing short segment.
    buf.extend_from_slice(b"END\n");
    out.write_all(buf)
}

/// `write_all` for several buffers: one `writev` when the socket takes
/// them whole, continuing from wherever a short write stopped.
fn write_all_vectored(out: &mut impl Write, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match out.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn collect(service: &QueryService, session: &mut Session, request: Request<'_>) -> String {
    let mut out = Vec::new();
    answer(service, session, request, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("protocol replies are UTF-8")
}

/// [`respond_to`] collected into a `String`: the reference response for
/// one request line, for tests and in-process callers without a socket.
pub fn respond_in_session(service: &QueryService, session: &mut Session, line: &str) -> String {
    collect(service, session, Request::parse(line))
}

/// Stateless convenience for read-only traffic (`QUERY`/`STATS`/...):
/// each call gets a throwaway [`Session`]. The update verbs need state
/// that survives across lines, so here they answer `ERR` instead of
/// silently staging into a batch nobody can ever `APPLY`.
pub fn respond(service: &QueryService, line: &str) -> String {
    let request = Request::parse(line);
    if matches!(request.verb, Verb::Insert | Verb::Delete | Verb::Apply) {
        return format!(
            "ERR {} needs a stateful session (connect over TCP)\n",
            request.verb.name()
        );
    }
    collect(service, &mut Session::new(), request)
}

/// Longest accepted request line (1 MiB — generous for any SPARQL text).
/// Longer lines answer `ERR` and drop the session: without a cap, one
/// client streaming bytes with no newline would grow server memory
/// without bound.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Serve one accepted connection: answer request lines until the client
/// sends `QUIT` or disconnects. Each connection owns a [`Session`], so
/// its staged updates die with it unless `APPLY`ed. I/O errors end the
/// session quietly — the peer is gone, there is nobody left to report to.
fn handle_connection(service: &QueryService, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut session = Session::new();
    let mut line = String::new();
    loop {
        line.clear();
        match Read::take(&mut reader, MAX_REQUEST_BYTES).read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // The cap cut a multi-byte character in half, or the
                // bytes were never valid UTF-8 — either way, explain
                // before dropping the session.
                let _ =
                    reader.get_mut().write_all(b"ERR request line too long or not valid UTF-8\n");
                return;
            }
            Err(_) => return,
        }
        if line.len() as u64 >= MAX_REQUEST_BYTES && !line.ends_with('\n') {
            let _ = reader.get_mut().write_all(b"ERR request line too long\n");
            return;
        }
        // The socket is written unbuffered: every byte of the reply has
        // left the process when `answer` returns, so there is nothing to
        // flush before blocking on the next request line.
        let request = Request::parse(&line);
        if answer(service, &mut session, request, reader.get_mut()).is_err() {
            return;
        }
        // QUIT with trailing text still quits: the "OK bye" reply and
        // the close come from the same parse.
        if request.verb == Verb::Quit {
            return;
        }
    }
}

/// Run the TCP front end until `shutdown` turns true: the calling thread
/// accepts connections and a pool of
/// [`server_sessions`](crate::ServiceConfig::server_sessions) workers
/// answers them, so N clients execute concurrently against the one shared
/// store (each request still runs on the engine's
/// [`eh_par::RuntimeConfig`] for execution parallelism — the two pools
/// are deliberately separate, because a session occupies its worker for
/// the whole connection, idle time included).
///
/// Shutdown drains rather than hangs: in-flight requests finish and their
/// responses are written, then every session's read side is shut down, so
/// workers blocked waiting for a next request wake with EOF and exit —
/// an idle client cannot pin the server open. The listener is switched to
/// non-blocking so the accept loop can observe the flag; a failed accept
/// is retried, never fatal.
///
/// Known limit: a connected session occupies its pool worker until it
/// disconnects, so `server_sessions` *idle* clients stall later arrivals
/// (accepted, queued, not yet served) until one leaves — there is no idle
/// timeout yet. Size the pool for the expected number of concurrent
/// connections, not concurrent queries.
pub fn serve(service: &QueryService, listener: TcpListener, shutdown: &AtomicBool) {
    let workers = service.config().server_sessions.max(1);
    listener.set_nonblocking(true).expect("listener into non-blocking mode");
    let queue: WorkQueue<(u64, TcpStream)> = WorkQueue::new();
    // Read-side handles of live sessions, for shutdown wake-up. Workers
    // remove their entry when a session ends, so the map tracks only
    // open connections.
    let sessions: std::sync::Mutex<std::collections::HashMap<u64, TcpStream>> =
        std::sync::Mutex::new(std::collections::HashMap::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (queue, sessions) = (&queue, &sessions);
            scope.spawn(move || {
                while let Some((id, stream)) = queue.pop() {
                    // The gauge counts sessions being *served* (connected
                    // and assigned a worker), bracketing the whole
                    // connection lifetime including idle stretches.
                    if service.metrics_on() {
                        service.metrics().active_sessions.inc();
                    }
                    handle_connection(service, stream);
                    if service.metrics_on() {
                        service.metrics().active_sessions.dec();
                    }
                    sessions.lock().unwrap_or_else(std::sync::PoisonError::into_inner).remove(&id);
                }
            });
        }
        let mut next_id = 0u64;
        while !shutdown.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Hand the connection to the pool in blocking mode. A
                    // session that cannot be registered (fd exhaustion)
                    // is refused outright: unregistered sessions would be
                    // unreachable by the shutdown wake-up below.
                    let _ = stream.set_nonblocking(false);
                    // Replies are written whole or in 64 KB chunks, never
                    // in dribbles: Nagle's algorithm could only hold the
                    // tail of a multi-chunk reply back for a delayed ACK.
                    let _ = stream.set_nodelay(true);
                    match stream.try_clone() {
                        Ok(handle) => {
                            sessions
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .insert(next_id, handle);
                            queue.push((next_id, stream));
                            next_id += 1;
                        }
                        Err(_) => drop(stream),
                    }
                }
                Err(_) => {
                    // Idle poll or a transient failure (fd exhaustion,
                    // an aborted handshake): 20 ms bounds shutdown
                    // latency and the retry rate. Only `shutdown` ends
                    // the loop.
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        queue.close();
        // Wake workers parked in read_line on idle sessions: closing the
        // read side delivers EOF without cutting off a response that is
        // still being written.
        for stream in sessions.lock().unwrap_or_else(std::sync::PoisonError::into_inner).values() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
    });
}

/// A minimal blocking client for the line protocol, used by the examples,
/// the stress test, and the `ledger` benchmark's TCP workloads.
pub struct Client {
    stream: TcpStream,
    /// Receive buffer, reused across requests and grown to the largest
    /// reply seen; all of it is initialised, `send` tracks how much holds
    /// the current reply.
    buf: Vec<u8>,
}

impl Client {
    /// Connect to a serving [`QueryService`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addr: SocketAddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("no address resolved"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, buf: vec![0; CHUNK_BYTES] })
    }

    /// Send one request line and read the complete framed response
    /// (multi-line for `QUERY`/`PROFILE`/`METRICS`, single-line
    /// otherwise), returned verbatim.
    pub fn send(&mut self, request: &str) -> io::Result<String> {
        let framed = Request::parse(request).verb.is_framed();
        let flattened;
        let line = if request.bytes().any(|b| b == b'\n' || b == b'\r') {
            flattened = request.replace(['\n', '\r'], " ");
            &flattened
        } else {
            request
        };
        write_all_vectored(
            &mut self.stream,
            &mut [IoSlice::new(line.as_bytes()), IoSlice::new(b"\n")],
        )?;
        // One request is in flight, so everything that arrives is this
        // reply, and it is complete when it ends the way its kind ends: a
        // framed `OK` reply with a line `END` (no row can be that line —
        // every rendered term starts with `<` or `"`), anything else with
        // its first newline.
        let mut filled = 0;
        loop {
            if filled == self.buf.len() {
                self.buf.resize(2 * filled, 0);
            }
            match self.stream.read(&mut self.buf[filled..])? {
                0 if filled == 0 => return Err(io::Error::other("server closed the connection")),
                0 => return Err(io::Error::other("response truncated")),
                n => filled += n,
            }
            let reply = &self.buf[..filled];
            let terminator: &[u8] =
                if framed && reply.starts_with(b"OK") { b"\nEND\n" } else { b"\n" };
            if reply.ends_with(terminator) {
                let text = std::str::from_utf8(reply)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                return Ok(text.to_owned());
            }
        }
    }

    /// `QUERY` convenience: newlines in the SPARQL text are flattened.
    pub fn query(&mut self, sparql: &str) -> io::Result<String> {
        self.send(&format!("QUERY {sparql}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use eh_rdf::{Term, Triple, TripleStore};
    use emptyheaded::{Engine, OptFlags, PlannerConfig, SharedStore};

    fn store() -> SharedStore {
        SharedStore::from_triples(vec![
            Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("b")),
            Triple::new(Term::iri("b"), Term::iri("p"), Term::iri("c")),
            Triple::new(Term::iri("a"), Term::iri("q"), Term::literal("lit")),
        ])
    }

    fn config(threads: usize) -> ServiceConfig {
        ServiceConfig {
            planner: PlannerConfig::with_flags(OptFlags::all()).with_threads(threads),
            result_cache_bytes: 1 << 20,
            plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
            server_sessions: ServiceConfig::DEFAULT_SERVER_SESSIONS,
            record_metrics: true,
            slow_query_ms: None,
        }
    }

    #[test]
    fn respond_formats_queries_stats_and_errors() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        let r = respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert_eq!(r, "OK 2 x y\n<a>\t<b>\n<b>\t<c>\nEND\n");
        let r = respond(&svc, "QUERY SELECT ?x WHERE { ?x <q> \"lit\" }");
        assert_eq!(r, "OK 1 x\n<a>\nEND\n");
        assert!(respond(&svc, "QUERY SELECT nope").starts_with("ERR "));
        assert!(respond(&svc, "QUERY").starts_with("ERR "));
        assert!(respond(&svc, "").starts_with("ERR empty"));
        assert!(respond(&svc, "FLY me to the moon").starts_with("ERR unknown command"));
        let stats = respond(&svc, "STATS");
        assert!(stats.starts_with("OK plan_hits=") && stats.contains("epoch=0"), "{stats}");
        assert_eq!(respond(&svc, "INVALIDATE"), "OK epoch=1\n");
        assert_eq!(respond(&svc, "quit"), "OK bye\n");
    }

    #[test]
    fn update_verbs_stage_and_apply_in_a_session() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        let mut session = Session::new();
        let before =
            respond_in_session(&svc, &mut session, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert!(before.starts_with("OK 2"), "{before}");

        // Stage: nothing visible until APPLY.
        let r = respond_in_session(&svc, &mut session, "INSERT <c> <p> <d> .");
        assert_eq!(r, "OK pending inserts=1 deletes=0\n");
        let r = respond_in_session(&svc, &mut session, "delete <a> <p> <b> .");
        assert_eq!(r, "OK pending inserts=1 deletes=1\n");
        assert_eq!(session.pending_ops(), 2);
        let unchanged =
            respond_in_session(&svc, &mut session, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert_eq!(unchanged, before);

        let r = respond_in_session(&svc, &mut session, "APPLY");
        assert_eq!(r, "OK applied inserted=1 deleted=1 predicates=1 compacted=0 epoch=1\n");
        assert_eq!(session.pending_ops(), 0);
        let after =
            respond_in_session(&svc, &mut session, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert_eq!(after, "OK 2 x y\n<b>\t<c>\n<c>\t<d>\nEND\n");

        // Malformed and empty stagings answer ERR without side effects.
        assert!(respond_in_session(&svc, &mut session, "INSERT <a> <b>").starts_with("ERR "));
        assert!(respond_in_session(&svc, &mut session, "INSERT").starts_with("ERR "));
        // An empty APPLY is a no-op: nothing changed, epoch stays, and it
        // lands in the updates_noop series, not the applied counter.
        let r = respond_in_session(&svc, &mut session, "APPLY");
        assert_eq!(r, "OK applied inserted=0 deleted=0 predicates=0 compacted=0 epoch=1\n");
        let stats = respond_in_session(&svc, &mut session, "STATS");
        assert!(stats.contains("updates=1 updates_noop=1 inserted=1 deleted=1"), "{stats}");

        // The applied batch staged its triples as overlay deltas (visible
        // in STATS) and an explicit COMPACT folds them into the base,
        // advancing the epoch; a second COMPACT has nothing to fold.
        assert!(stats.contains("staged=2"), "{stats}");
        let r = respond_in_session(&svc, &mut session, "COMPACT");
        assert!(r.starts_with("OK compacted predicates=1 rebuilt="), "{r}");
        assert!(r.ends_with("epoch=2\n"), "{r}");
        let stats = respond_in_session(&svc, &mut session, "STATS");
        assert!(stats.contains("staged=0"), "{stats}");
        let r = respond_in_session(&svc, &mut session, "COMPACT");
        assert_eq!(r, "OK compacted predicates=0 rebuilt=0 epoch=2\n");
        // Query answers are unchanged by compaction.
        let post = respond_in_session(&svc, &mut session, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert_eq!(post, "OK 2 x y\n<b>\t<c>\n<c>\t<d>\nEND\n");
    }

    #[test]
    fn profile_verb_reports_a_measured_run() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        let r = respond(&svc, "PROFILE SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert!(r.starts_with("OK PROFILE\n"), "{r}");
        assert!(r.ends_with("END\n"), "{r}");
        assert!(r.contains("profile:"), "{r}");
        assert!(r.contains("kernels {"), "{r}");
        assert!(r.contains("result rows: 2"), "{r}");
        assert!(respond(&svc, "PROFILE").starts_with("ERR PROFILE needs"));
        assert!(respond(&svc, "PROFILE SELECT nope").starts_with("ERR "));
    }

    #[test]
    fn metrics_verb_exposes_parseable_nonzero_series() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        // Traffic: one miss, one hit, one update.
        respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        let mut session = Session::new();
        respond_in_session(&svc, &mut session, "INSERT <c> <p> <d> .");
        respond_in_session(&svc, &mut session, "APPLY");

        let m = respond(&svc, "METRICS");
        assert!(m.starts_with("OK METRICS\n") && m.ends_with("END\n"), "{m}");
        let body = &m["OK METRICS\n".len()..m.len() - "END\n".len()];
        let samples = eh_obs::parse_exposition(body).expect("exposition parses");
        let total = |name: &str| -> f64 {
            samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
        };
        assert!(total("eh_query_latency_us_count") >= 2.0, "{body}");
        assert!(total("eh_result_cache_hits_total") >= 1.0, "{body}");
        assert!(total("eh_result_cache_misses_total") >= 1.0, "{body}");
        assert!(total("eh_update_apply_latency_us_count") >= 1.0, "{body}");
        assert!(total("eh_updates_applied_total") >= 1.0, "{body}");
        // Per-verb counters carry the verb label.
        let query_requests: f64 = samples
            .iter()
            .filter(|s| s.name == "eh_requests_total" && s.label("verb") == Some("query"))
            .map(|s| s.value)
            .sum();
        assert!(query_requests >= 2.0, "{body}");
    }

    #[test]
    fn stats_reports_latency_percentiles() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        let stats = respond(&svc, "STATS");
        assert!(stats.contains("query_p50_us="), "{stats}");
        assert!(stats.contains("query_p99_us="), "{stats}");
        let p50: u64 = stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("query_p50_us="))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        // The histogram quantizes to bucket upper bounds (>= 1), so any
        // recorded query yields a non-zero percentile.
        assert!(p50 >= 1, "{stats}");
    }

    #[test]
    fn metrics_off_records_nothing() {
        let store = store();
        let mut cfg = config(1);
        cfg.record_metrics = false;
        let svc = QueryService::new(store.clone(), cfg);
        respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        let stats = respond(&svc, "STATS");
        assert!(stats.contains("query_p50_us=0 query_p99_us=0"), "{stats}");
        let m = respond(&svc, "METRICS");
        let body = &m["OK METRICS\n".len()..m.len() - "END\n".len()];
        let samples = eh_obs::parse_exposition(body).expect("exposition parses");
        let count: f64 =
            samples.iter().filter(|s| s.name == "eh_query_latency_us_count").map(|s| s.value).sum();
        assert_eq!(count, 0.0, "{body}");
    }

    #[test]
    fn slow_query_log_captures_over_threshold_queries() {
        let store = store();
        let mut cfg = config(1);
        cfg.slow_query_ms = Some(0); // everything is "slow"
        let svc = QueryService::new(store.clone(), cfg);
        assert!(svc.slow_queries().is_empty());
        respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        let log = svc.slow_queries();
        assert_eq!(log.len(), 1, "{log:?}");
        assert!(log[0].contains("SELECT ?x ?y"), "{log:?}");
        let m = respond(&svc, "METRICS");
        assert!(m.contains("eh_slow_queries_total 1"), "{m}");
    }

    #[test]
    fn save_verb_writes_a_loadable_snapshot() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        let q = "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }";
        let expect = respond(&svc, q);

        let path = std::env::temp_dir().join(format!("eh-save-verb-{}.snap", std::process::id()));
        let r = respond(&svc, &format!("SAVE {}", path.display()));
        assert!(r.starts_with("OK saved bytes="), "{r}");
        assert!(r.contains("triples=3"), "{r}");

        // A service restarted from the snapshot serves identical bytes —
        // and starts warm (its base tries came off the image, before any
        // query ran).
        let restarted = QueryService::from_snapshot(&path, config(1)).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(restarted.store().shard_stats()[0].arena_bytes > 0);
        assert_eq!(respond(&restarted, q), expect);

        // Failure modes answer ERR, they don't kill the session.
        assert!(respond(&svc, "SAVE").starts_with("ERR SAVE needs"));
        assert!(respond(&svc, "SAVE /nonexistent-dir-zzz/x.snap").starts_with("ERR "));
    }

    #[test]
    fn mmap_loaded_service_reports_its_mode_and_serves_identical_bytes() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        let q = "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }";
        let expect = respond(&svc, q);
        // A cold-built service is a copy load with nothing mapped.
        let stats = respond(&svc, "STATS");
        assert!(stats.contains("load_mode=copy mapped_bytes=0"), "{stats}");

        let path = std::env::temp_dir().join(format!("eh-mmap-verb-{}.snap", std::process::id()));
        assert!(respond(&svc, &format!("SAVE {}", path.display())).starts_with("OK saved"));

        let mapped = QueryService::from_snapshot_mmap(&path, config(1)).unwrap();
        let copied = QueryService::from_snapshot(&path, config(1)).unwrap();
        assert_eq!(respond(&mapped, q), expect);
        assert_eq!(respond(&copied, q), expect);

        let file_len = std::fs::metadata(&path).unwrap().len();
        let stats = respond(&mapped, "STATS");
        assert!(
            stats.contains(&format!("load_mode=mmap mapped_bytes={file_len}")),
            "{stats} (file is {file_len} bytes)"
        );
        let stats = respond(&copied, "STATS");
        assert!(stats.contains("load_mode=copy mapped_bytes=0"), "{stats}");

        // The gauge tracks the same number through the METRICS verb.
        let m = respond(&mapped, "METRICS");
        assert!(m.contains(&format!("eh_mapped_bytes {file_len}")), "{m}");
        let m = respond(&copied, "METRICS");
        assert!(m.contains("eh_mapped_bytes 0"), "{m}");

        // Updates keep working on the mapped service: the overlays and
        // later compactions own their memory, independent of the mapping.
        let mut session = Session::new();
        let r = respond_in_session(&mapped, &mut session, "INSERT <c> <p> <d> .");
        assert!(r.starts_with("OK pending"), "{r}");
        let r = respond_in_session(&mapped, &mut session, "APPLY");
        assert!(r.starts_with("OK applied inserted=1"), "{r}");
        let r = respond_in_session(&mapped, &mut session, "COMPACT");
        assert!(r.starts_with("OK compacted predicates=1"), "{r}");
        let after = respond(&mapped, q);
        assert_eq!(after, "OK 3 x y\n<a>\t<b>\n<b>\t<c>\n<c>\t<d>\nEND\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stateless_respond_rejects_update_verbs() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(1));
        assert!(respond(&svc, "INSERT <c> <p> <d> .").starts_with("ERR INSERT"));
        assert!(respond(&svc, "delete <a> <p> <b> .").starts_with("ERR DELETE"));
        assert!(respond(&svc, "APPLY").starts_with("ERR APPLY"));
        // Read-only verbs still answer normally.
        assert!(respond(&svc, "STATS").starts_with("OK "));
    }

    #[test]
    fn updates_over_tcp_match_a_cold_engine_on_the_new_data() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (svc_ref, shutdown_ref) = (&svc, &shutdown);
            scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

            let mut writer = Client::connect(addr).unwrap();
            let mut reader = Client::connect(addr).unwrap();
            let q = "SELECT ?x ?y WHERE { ?x <p> ?y }";
            // Warm the caches pre-update from a second connection.
            let warm = reader.query(q).unwrap();
            assert!(warm.starts_with("OK 2"), "{warm}");

            assert!(writer.send("INSERT <c> <p> <d> .").unwrap().starts_with("OK pending"));
            assert!(writer.send("DELETE <b> <p> <c> .").unwrap().starts_with("OK pending"));
            let applied = writer.send("APPLY").unwrap();
            assert_eq!(
                applied,
                "OK applied inserted=1 deleted=1 predicates=1 compacted=0 epoch=1\n"
            );

            // Both connections now see the post-update rows, and the bytes
            // equal a cold service built directly over the new contents.
            let cold_store = TripleStore::from_triples(vec![
                Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("b")),
                Triple::new(Term::iri("c"), Term::iri("p"), Term::iri("d")),
                Triple::new(Term::iri("a"), Term::iri("q"), Term::literal("lit")),
            ]);
            let cold_svc = QueryService::new(cold_store, config(1));
            let expect = respond(&cold_svc, &format!("QUERY {q}"));
            assert_eq!(reader.query(q).unwrap(), expect);
            assert_eq!(writer.query(q).unwrap(), expect);

            writer.send("QUIT").ok();
            reader.send("QUIT").ok();
            drop(writer);
            drop(reader);
            shutdown.store(true, Ordering::Release);
        });
    }

    #[test]
    fn idle_clients_do_not_starve_active_ones() {
        let store = store();
        // Single engine thread, but the session pool (default 8) is
        // sized independently: idle connections must not block service.
        let svc = QueryService::new(store.clone(), config(1));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (svc_ref, shutdown_ref) = (&svc, &shutdown);
            scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

            // Three clients connect and say nothing...
            let idlers: Vec<Client> = (0..3).map(|_| Client::connect(addr).unwrap()).collect();
            // ... and a fourth still gets answered.
            let mut active = Client::connect(addr).unwrap();
            let r = active.query("SELECT ?x ?y WHERE { ?x <p> ?y }").unwrap();
            assert!(r.starts_with("OK 2"), "{r}");
            active.send("QUIT").ok();
            drop(active);
            drop(idlers);
            shutdown.store(true, Ordering::Release);
        });
    }

    #[test]
    fn control_characters_in_terms_cannot_break_framing() {
        // An IRI containing newline/tab is invalid N-Triples, but a store
        // built through the API can hold one; the wire format must escape
        // it rather than let a row masquerade as the END marker.
        let store = TripleStore::from_triples(vec![Triple::new(
            Term::iri("a\nEND\nb"),
            Term::iri("p"),
            Term::iri("c\td"),
        )]);
        let svc = QueryService::new(store.clone(), config(1));
        let r = respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        assert_eq!(r, "OK 1 x y\n<a\\nEND\\nb>\t<c\\td>\nEND\n");
    }

    /// `SELECT ?x ?y WHERE { ?x <p> ?y }` over this store returns rows
    /// whose rendered block is exactly `block_bytes` long (0 = no rows).
    fn store_with_row_block(block_bytes: usize) -> SharedStore {
        // A row is `<s>\t<o>\n`: six bytes around the two bodies.
        const ROW: usize = 128;
        let row = |i: usize, bytes: usize| {
            let s = format!("s{i:07}");
            let o = "o".repeat(bytes - 6 - s.len());
            Triple::new(Term::iri(s), Term::iri("p"), Term::iri(o))
        };
        let rows = block_bytes / ROW;
        let mut triples: Vec<Triple> = (0..rows.saturating_sub(1)).map(|i| row(i, ROW)).collect();
        match rows {
            0 if block_bytes > 0 => triples.push(row(0, block_bytes)),
            0 => {}
            _ => triples.push(row(rows - 1, ROW + block_bytes % ROW)),
        }
        // A bystander, so the store is never empty.
        triples.push(Triple::new(Term::iri("a"), Term::iri("q"), Term::iri("b")));
        SharedStore::from_triples(triples)
    }

    #[test]
    fn tcp_replies_equal_respond_at_every_chunk_boundary() {
        let blocks = [0, 20, CHUNK_BYTES - 1, CHUNK_BYTES, CHUNK_BYTES + 1, 3 * CHUNK_BYTES + 7];
        for block_bytes in blocks {
            // Budget 0 streams every reply chunk by chunk; with 1 MiB the
            // rows are rendered into the cache entry and sent from there.
            for budget in [0, 1 << 20] {
                let mut cfg = config(1);
                cfg.result_cache_bytes = budget;
                let svc = QueryService::new(store_with_row_block(block_bytes), cfg);
                let q = "SELECT ?x ?y WHERE { ?x <p> ?y }";
                let expect = respond(&svc, &format!("QUERY {q}"));
                let header = format!("OK {} x y\n", expect.lines().count() - 2);
                assert!(expect.starts_with(&header) && expect.ends_with("\nEND\n"), "{header}");
                assert_eq!(expect.len(), header.len() + block_bytes + "END\n".len());

                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap();
                let shutdown = AtomicBool::new(false);
                std::thread::scope(|scope| {
                    let (svc_ref, shutdown_ref) = (&svc, &shutdown);
                    scope.spawn(move || serve(svc_ref, listener, shutdown_ref));
                    let mut client = Client::connect(addr).unwrap();
                    // Twice: with a budget, a miss and then a hit.
                    for _ in 0..2 {
                        let got = client.query(q).unwrap();
                        assert!(got == expect, "{block_bytes}-byte block, budget {budget}");
                    }
                    // The connection is still in step after a long reply.
                    assert_eq!(client.send("QUIT").unwrap(), "OK bye\n");
                    shutdown.store(true, Ordering::Release);
                });
                assert_eq!(svc.stats().result_hits > 0, budget > 0);
            }
        }
    }

    #[test]
    fn client_reassembles_a_reply_delivered_one_byte_per_write() {
        // A stand-in server that answers each request line with the next
        // canned reply, one byte per `write`, so the client meets every
        // possible split of header, rows and terminator.
        let replies = [
            ("QUERY SELECT ?x", "OK 3 x\n<a>\n<END>\n\"END\"\nEND\n"),
            ("QUERY SELECT ?x", "OK 0 x\nEND\n"),
            ("query nonsense", "ERR no SELECT\n"),
            ("PROFILE SELECT ?x", "OK PROFILE\nplan: é€😀\n~ 3 us\nEND\n"),
            ("STATS", "OK plan_hits=0\n"),
            ("QUERYX SELECT ?x", "ERR unknown command 'QUERYX'\n"),
        ];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                stream.set_nodelay(true).unwrap();
                let mut reader = BufReader::new(stream);
                for (request, reply) in replies {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    assert_eq!(line, format!("{request}\n"));
                    for byte in reply.as_bytes() {
                        reader.get_mut().write_all(std::slice::from_ref(byte)).unwrap();
                    }
                }
            });
            let mut client = Client::connect(addr).unwrap();
            for (request, reply) in replies {
                assert_eq!(client.send(request).unwrap(), reply, "{request}");
            }
            // The stand-in hangs up: the next request gets an error, not
            // a hang or half a reply.
            assert!(client.send("STATS").is_err());
        });
    }

    #[test]
    fn client_flattens_newlines_in_the_request() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                reader.get_mut().write_all(line.as_bytes()).unwrap();
            });
            let mut client = Client::connect(addr).unwrap();
            assert_eq!(client.send("STATS\r\nnow\nplease").unwrap(), "STATS  now please\n");
        });
    }

    /// A peer that takes the first write of a reply and then stops
    /// reading: the second write signals `stalled` and blocks until
    /// `resume` fires.
    struct StallingPeer {
        received: Vec<u8>,
        writes: usize,
        stalled: std::sync::mpsc::Sender<()>,
        resume: std::sync::mpsc::Receiver<()>,
    }

    impl Write for StallingPeer {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            if self.writes == 1 {
                self.stalled.send(()).unwrap();
                self.resume.recv().unwrap();
            }
            self.writes += 1;
            self.received.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_stalled_reader_does_not_block_apply_and_still_gets_the_old_bytes() {
        use std::sync::mpsc::channel;
        use std::sync::Arc;
        const PATIENCE: Duration = Duration::from_secs(20);

        let mut cfg = config(1);
        cfg.result_cache_bytes = 0;
        let svc = Arc::new(QueryService::new(store_with_row_block(4 * CHUNK_BYTES), cfg));
        let q = "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }";
        let before = respond(&svc, q);

        // Plain threads, not a scope: if the lock were held across the
        // stalled write, APPLY would never return, and the timeout below
        // must be able to fail the test instead of joining forever.
        let (stalled_tx, stalled) = channel();
        let (resume, resume_rx) = channel();
        let reader = std::thread::spawn({
            let svc = Arc::clone(&svc);
            move || {
                let mut peer = StallingPeer {
                    received: Vec::new(),
                    writes: 0,
                    stalled: stalled_tx,
                    resume: resume_rx,
                };
                respond_to(&svc, &mut Session::new(), q, &mut peer).unwrap();
                (peer.received, peer.writes)
            }
        });
        stalled.recv_timeout(PATIENCE).expect("the reply spans several writes");

        // Mid-reply, a second session changes the very rows being sent
        // and grows the dictionary.
        let (applied_tx, applied) = channel();
        std::thread::spawn({
            let svc = Arc::clone(&svc);
            move || {
                let mut session = Session::new();
                let row0 = format!("DELETE <s0000000> <p> <{}> .", "o".repeat(128 - 6 - 8));
                respond_in_session(&svc, &mut session, &row0);
                respond_in_session(
                    &svc,
                    &mut session,
                    "INSERT <fresh-subject> <p> <fresh-object> .",
                );
                applied_tx.send(respond_in_session(&svc, &mut session, "APPLY")).unwrap();
            }
        });
        let applied = applied.recv_timeout(PATIENCE).expect("APPLY waited for a stalled reader");
        assert!(applied.starts_with("OK applied inserted=1 deleted=1"), "{applied}");

        resume.send(()).unwrap();
        let (received, writes) = reader.join().unwrap();
        assert!(writes >= 4, "{writes} writes");
        assert!(String::from_utf8(received).unwrap() == before);
        // A request that starts after the update sees it.
        let after = respond(&svc, q);
        assert!(after.contains("<fresh-subject>\t<fresh-object>\n"));
        assert!(!after.contains("<s0000000>"));
        assert_eq!(after.len(), before.len() - 128 + "<fresh-subject>\t<fresh-object>\n".len());
    }

    #[test]
    fn a_tcp_reader_that_pauses_after_the_header_gets_the_pre_update_reply() {
        let mut cfg = config(1);
        cfg.result_cache_bytes = 0;
        let svc = QueryService::new(store_with_row_block(6 * CHUNK_BYTES), cfg);
        let q = "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }";
        let before = respond(&svc, q);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (svc_ref, shutdown_ref) = (&svc, &shutdown);
            scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

            let mut slow = BufReader::with_capacity(64, TcpStream::connect(addr).unwrap());
            slow.get_mut().write_all(format!("{q}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            slow.read_line(&mut reply).unwrap();
            assert!(before.starts_with(&reply) && reply.starts_with("OK "), "{reply}");

            let mut writer = Client::connect(addr).unwrap();
            writer.send("INSERT <fresh-subject> <p> <fresh-object> .").unwrap();
            let applied = writer.send("APPLY").unwrap();
            assert!(applied.starts_with("OK applied inserted=1"), "{applied}");

            while !reply.ends_with("\nEND\n") {
                assert_ne!(slow.read_line(&mut reply).unwrap(), 0, "reply truncated");
            }
            assert!(reply == before);
            assert_ne!(writer.send(q).unwrap(), before);
            shutdown.store(true, Ordering::Release);
        });
    }

    #[test]
    fn shutdown_drains_despite_idle_and_sloppy_clients() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (svc_ref, shutdown_ref) = (&svc, &shutdown);
            let server = scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

            // An idle client that connects and never sends anything, and
            // one that sends "QUIT now" (trailing text must still quit).
            let idle = Client::connect(addr).unwrap();
            let mut sloppy = Client::connect(addr).unwrap();
            assert_eq!(sloppy.send("QUIT now").unwrap(), "OK bye\n");
            // Give the acceptor a moment to hand both sessions to workers.
            std::thread::sleep(std::time::Duration::from_millis(50));
            shutdown.store(true, Ordering::Release);
            // The idle session must not pin the server open: serve()
            // returns, so this join completes (a regression hangs here).
            server.join().unwrap();
            drop(idle);
        });
    }

    #[test]
    fn stats_reports_wal_off_without_a_log() {
        let svc = QueryService::new(store(), config(1));
        let stats = respond(&svc, "STATS");
        assert!(stats.contains("wal_seq=0 wal_bytes=0 wal_fsync_mode=off"), "{stats}");
    }

    #[test]
    fn wal_surfaces_in_stats_metrics_and_recovery() {
        let wal_path = std::env::temp_dir().join(format!("eh-srv-wal-{}.wal", std::process::id()));
        std::fs::remove_file(&wal_path).ok();

        let mut svc = QueryService::new(store(), config(1));
        let r = svc.open_wal(&wal_path).unwrap();
        assert_eq!(r.replayed, 0);
        let mut session = Session::new();
        respond_in_session(&svc, &mut session, "INSERT <c> <p> <d> .");
        let applied = respond_in_session(&svc, &mut session, "APPLY");
        assert!(applied.starts_with("OK applied inserted=1"), "{applied}");
        // A no-op batch is logged too (it held the sequence when it ran).
        respond_in_session(&svc, &mut session, "INSERT <c> <p> <d> .");
        respond_in_session(&svc, &mut session, "APPLY");

        let stats = respond(&svc, "STATS");
        assert!(stats.contains("wal_seq=2"), "{stats}");
        assert!(stats.contains("wal_fsync_mode=always"), "{stats}");
        let wal_bytes: u64 = stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("wal_bytes="))
            .unwrap()
            .parse()
            .unwrap();
        assert!(wal_bytes > 24, "{stats}");

        let m = respond(&svc, "METRICS");
        assert!(m.contains("eh_wal_appends_total 2"), "{m}");
        assert!(m.contains(&format!("eh_wal_bytes {wal_bytes}")), "{m}");
        assert!(m.contains("eh_wal_fsync_us_count 2"), "{m}");

        // Recovery: fresh service over the same base store + the log
        // serves the same bytes as the crashed one would have.
        let expect = respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
        let mut recovered = QueryService::new(store(), config(1));
        let r = recovered.open_wal(&wal_path).unwrap();
        assert_eq!((r.replayed, r.inserted), (2, 1));
        assert_eq!(respond(&recovered, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }"), expect);
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn replay_verb_applies_a_shipped_log() {
        let wal_path =
            std::env::temp_dir().join(format!("eh-srv-replay-{}.wal", std::process::id()));
        std::fs::remove_file(&wal_path).ok();

        // A primary logs one batch.
        let mut primary = QueryService::new(store(), config(1));
        primary.open_wal(&wal_path).unwrap();
        let mut session = Session::new();
        respond_in_session(&primary, &mut session, "INSERT <c> <p> <d> .");
        respond_in_session(&primary, &mut session, "APPLY");
        let expect = respond(&primary, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");

        // A follower replays the shipped log over the same base store.
        let follower = QueryService::new(store(), config(1));
        let r = respond(&follower, &format!("REPLAY {}", wal_path.display()));
        assert_eq!(r, "OK replayed records=1 inserted=1 deleted=0 epoch=1\n");
        assert_eq!(respond(&follower, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }"), expect);

        // Failure modes answer ERR, they don't kill the session.
        assert!(respond(&follower, "REPLAY").starts_with("ERR REPLAY needs"));
        assert!(respond(&follower, "REPLAY /nonexistent-zzz/x.wal").starts_with("ERR "));
        std::fs::remove_file(&wal_path).ok();
    }

    /// One decoder behind every replay loop: a checksum-valid frame whose
    /// payload is not a batch refuses `REPLAY` with exactly the typed
    /// reason the engine's own replay reports.
    #[test]
    fn replay_verb_reports_the_engines_payload_decode_error() {
        let wal_path =
            std::env::temp_dir().join(format!("eh-srv-replay-bad-{}.wal", std::process::id()));
        std::fs::remove_file(&wal_path).ok();
        {
            let (mut wal, _) = eh_wal::Wal::open(&wal_path, eh_wal::FsyncPolicy::Never).unwrap();
            wal.append(&[0xFF]).unwrap();
        }
        let service = QueryService::new(store(), config(1));
        let over_wire = respond_in_session(
            &service,
            &mut Session::new(),
            &format!("REPLAY {}", wal_path.display()),
        );
        let engine = Engine::new(store(), OptFlags::all());
        let direct = engine.replay(&wal_path).expect_err("the payload does not decode");
        assert!(direct.to_string().contains("payload decode: "), "{direct}");
        assert_eq!(over_wire, format!("ERR {direct}\n"));
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn save_verb_truncates_an_attached_wal() {
        let wal_path =
            std::env::temp_dir().join(format!("eh-srv-wal-save-{}.wal", std::process::id()));
        let snap_path =
            std::env::temp_dir().join(format!("eh-srv-wal-save-{}.snap", std::process::id()));
        std::fs::remove_file(&wal_path).ok();

        let mut svc = QueryService::new(store(), config(1));
        svc.open_wal(&wal_path).unwrap();
        let mut session = Session::new();
        respond_in_session(&svc, &mut session, "INSERT <c> <p> <d> .");
        respond_in_session(&svc, &mut session, "APPLY");
        assert!(std::fs::metadata(&wal_path).unwrap().len() > 24);

        let r = respond(&svc, &format!("SAVE {}", snap_path.display()));
        assert!(r.starts_with("OK saved"), "{r}");
        // The folded record is gone; only the 24-byte header remains.
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), 24);
        let stats = respond(&svc, "STATS");
        assert!(stats.contains("wal_seq=1 wal_bytes=24"), "{stats}");
        std::fs::remove_file(&wal_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn server_round_trip_over_tcp() {
        let store = store();
        let svc = QueryService::new(store.clone(), config(2));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let svc_ref = &svc;
            let shutdown_ref = &shutdown;
            scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

            let mut client = Client::connect(addr).unwrap();
            let direct = respond(&svc, "QUERY SELECT ?x ?y WHERE { ?x <p> ?y }");
            let wire = client.query("SELECT ?x ?y\nWHERE { ?x <p> ?y }").unwrap();
            assert_eq!(wire, direct);
            // Second client: the same bytes again (now cache-served).
            let mut second = Client::connect(addr).unwrap();
            assert_eq!(second.query("SELECT ?x ?y WHERE { ?x <p> ?y }").unwrap(), direct);
            // The direct respond() call was the miss; both wire queries hit.
            let stats = second.send("STATS").unwrap();
            assert!(stats.contains("result_hits=2"), "{stats}");
            // Multi-line verbs frame correctly through the client too,
            // and the session gauge sees both live connections.
            let profile = second.send("PROFILE SELECT ?x ?y WHERE { ?x <p> ?y }").unwrap();
            assert!(profile.starts_with("OK PROFILE\n") && profile.ends_with("END\n"), "{profile}");
            let metrics = second.send("METRICS").unwrap();
            assert!(metrics.starts_with("OK METRICS\n") && metrics.ends_with("END\n"), "{metrics}");
            assert!(metrics.contains("eh_active_sessions 2"), "{metrics}");
            assert_eq!(client.send("QUIT").unwrap(), "OK bye\n");
            drop(client);
            drop(second);
            shutdown.store(true, Ordering::Release);
        });
    }
}
