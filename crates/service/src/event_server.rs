//! The event-driven server: one `poll(2)` loop multiplexing every TCP
//! connection onto a [`FrameHandler`] — a node's
//! [`Service`](crate::Service) or a cluster [`Router`](crate::Router).
//! It is the crate's only TCP listener.
//!
//! Per connection the loop runs a small state machine:
//!
//! ```text
//!              first bytes
//!   Detecting ─────────────┬── "AFWIRE01…" ──> Binary (FrameDecoder)
//!                          └── anything else ─> Json  (JsonLines)
//! ```
//!
//! * **Reads** are nonblocking; complete frames are handed to the
//!   handler's one answer entry ([`FrameHandler::answer`]). Cheap verbs
//!   answer inline. A node queues solver verbs for its
//!   workers, a router queues forwards for its forwarder pool; either
//!   way the answer arrives later, on another thread.
//! * **Responses** carry a per-connection sequence number; a `BTreeMap`
//!   holds answers that finish out of order so bytes are written in
//!   request order — checkable by a pipelining client.
//! * **Answers write through**: the thread that completes the answer
//!   whose turn it is writes it to the socket itself, under the
//!   connection's outbox lock. Only leftovers (a full socket), a closing
//!   connection or a failed write reach the loop, through a mutexed list
//!   plus a socketpair [`Waker`] that pulls it out of `poll` — so an
//!   answered request costs the loop no wake-up.
//! * **Backpressure**: a connection whose write buffer passes the high
//!   watermark stops being read (`POLLIN` dropped) until the buffer
//!   drains below the low watermark — a slow reader throttles itself,
//!   not the server.
//! * **Oversized frames** (both protocols) are rejected from the length
//!   prefix / line cap *before* buffering, counted by the handler and
//!   answered with the edge codec's oversized answer.
//! * **Idle sweep**: a connection that made no read progress for the idle
//!   timeout and is owed nothing is closed — the slow-loris guard.
//! * **End of stream**: a final JSON line without its newline is still
//!   answered before the connection closes.
//!
//! Shutdown (the `shutdown` verb, or the handler's own shutdown) stops
//! the accept loop and frame reads, flushes every owed response, then
//! drains the handler.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use arrayflow_resilience::CancelToken;
use arrayflow_wire::event::{set_backlog, wake_pair, Poller, Waker, POLLIN, POLLOUT};
use arrayflow_wire::{detect, Detect, FrameDecoder, FrameEvent};

use crate::proto::{ErrorKind, ServiceError};
use crate::server::{answer_line, Edge, Frame, FrameHandler, JsonLines, Respond};

/// Write-buffer high watermark: a connection buffering more response
/// bytes than this stops being read until it drains.
const WRITE_HIGH_WATER: usize = 1 << 20;
/// Write-buffer low watermark: reading resumes below this.
const WRITE_LOW_WATER: usize = 64 << 10;
/// Read chunk size.
const READ_CHUNK: usize = 64 << 10;
/// The idle timeout unless [`EventServer::idle_timeout`] sets another.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Connections an answering thread flagged for the loop (see [`Outbox`]).
type Flagged = Arc<Mutex<Vec<u64>>>;

enum Proto {
    /// Accumulating the first bytes until the protocol is known.
    Detecting(Vec<u8>),
    Json(JsonLines),
    Binary(FrameDecoder),
}

/// A connection's write side, shared with the threads that answer its
/// frames. Whichever thread completes the answer that is next in request
/// order writes it straight to the socket; the loop hears only about what
/// it must act on — bytes the socket would not take, a connection that is
/// closing, a failed write — so a delivered answer costs no wake-up.
struct Outbox {
    stream: Arc<TcpStream>,
    /// Bytes the socket has not taken yet, response order.
    out: VecDeque<u8>,
    /// Sequence number of the next response allowed into `out`.
    next_to_send: u64,
    /// Responses that completed out of order, waiting their turn.
    ready: BTreeMap<u64, Vec<u8>>,
    /// Last response delivery, for the idle sweep.
    delivered: Instant,
    /// Set by the loop: the connection closes once it is owed nothing.
    closing: bool,
    /// A write failed; the loop reaps the connection.
    broken: bool,
}

impl Outbox {
    /// Takes answer `seq` and writes everything now in order. Returns
    /// whether the loop must look at the connection.
    fn deliver(&mut self, seq: u64, bytes: Vec<u8>) -> bool {
        self.ready.insert(seq, bytes);
        while let Some(bytes) = self.ready.remove(&self.next_to_send) {
            self.out.extend(bytes);
            self.next_to_send += 1;
        }
        self.delivered = Instant::now();
        self.flush();
        self.closing || self.broken || !self.out.is_empty()
    }

    /// Writes as much of `out` as the socket accepts.
    fn flush(&mut self) {
        while !self.out.is_empty() && !self.broken {
            // One write per answer: a wrapped ring buffer would otherwise
            // go out as two segments.
            let head = self.out.make_contiguous();
            match (&*self.stream).write(head) {
                Ok(0) => self.broken = true,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.broken = true,
            }
        }
    }
}

struct Conn {
    stream: Arc<TcpStream>,
    proto: Proto,
    outbox: Arc<Mutex<Outbox>>,
    /// Sequence number assigned to the next frame read off this conn.
    next_seq: u64,
    /// No more frames are read; the conn closes once fully flushed.
    closing: bool,
    /// POLLIN withheld because `out` passed the high watermark.
    paused: bool,
    /// Interest bits currently registered with the poller.
    interest: i16,
    /// Shared with every frame this connection handed over; cancelled
    /// when the connection is reaped so the handler sheds its dead work.
    cancel: CancelToken,
    /// Last read progress, for the idle sweep.
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        let stream = Arc::new(stream);
        let outbox = Outbox {
            stream: Arc::clone(&stream),
            out: VecDeque::new(),
            next_to_send: 0,
            ready: BTreeMap::new(),
            delivered: Instant::now(),
            closing: false,
            broken: false,
        };
        Conn {
            stream,
            proto: Proto::Detecting(Vec::new()),
            outbox: Arc::new(Mutex::new(outbox)),
            next_seq: 0,
            closing: false,
            paused: false,
            interest: POLLIN,
            cancel: CancelToken::new(),
            last_activity: Instant::now(),
        }
    }

    /// All assigned frames answered and all bytes written.
    fn flushed(&self, outbox: &Outbox) -> bool {
        outbox.out.is_empty() && outbox.next_to_send == self.next_seq
    }
}

/// An event-driven TCP listener over a shared [`FrameHandler`].
/// Unix-only (`poll(2)`); other platforms serve over stdio.
pub struct EventServer<H> {
    listener: TcpListener,
    handler: Arc<H>,
    idle_timeout: Duration,
}

impl<H: FrameHandler> EventServer<H> {
    /// Binds `addr` and prepares the event loop.
    pub fn bind(addr: &str, handler: Arc<H>) -> io::Result<EventServer<H>> {
        Ok(EventServer::attach(TcpListener::bind(addr)?, handler))
    }

    /// Wraps an already-bound listener (tests pick port 0 this way).
    pub fn attach(listener: TcpListener, handler: Arc<H>) -> EventServer<H> {
        EventServer {
            listener,
            handler,
            idle_timeout: IDLE_TIMEOUT,
        }
    }

    /// Sets the idle timeout (`serve --idle-timeout-ms`, default 60 s): a
    /// connection that has sent no bytes for this long and is owed no
    /// answer — including a slow-loris peer parked mid-frame — is closed
    /// and counted through [`FrameHandler::reaped`]. `Duration::ZERO`
    /// disables the sweep.
    pub fn idle_timeout(mut self, timeout: Duration) -> EventServer<H> {
        self.idle_timeout = timeout;
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the event loop until shutdown, then drains the handler.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        // std's listen backlog is 128; a connect flood overflows that
        // long before the loop itself is the bottleneck. Best-effort —
        // the loop works either way, slow-accept clients just retry.
        let _ = set_backlog(self.listener.as_raw_fd(), 4096);
        let (mut wake, waker) = wake_pair()?;
        let flagged: Flagged = Arc::new(Mutex::new(Vec::new()));
        let dispatch = Dispatch {
            handler: &self.handler,
            flagged: &flagged,
            waker: &waker,
        };

        let mut poller = Poller::new();
        let listener_fd = self.listener.as_raw_fd();
        let wake_fd = wake.fd();
        poller.register(listener_fd, POLLIN);
        poller.register(wake_fd, POLLIN);

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut by_fd: HashMap<RawFd, u64> = HashMap::new();
        let mut next_conn_id: u64 = 0;
        let mut accepting = true;
        let mut accept_paused = false;
        let mut events = Vec::new();
        let mut touched: Vec<u64> = Vec::new();
        let mut dead: Vec<u64> = Vec::new();
        let mut buf = vec![0u8; READ_CHUNK];

        loop {
            if accept_paused && accepting {
                accept_paused = false;
                poller.reregister(listener_fd, POLLIN);
            }
            // A bounded wait so an external shutdown() is noticed promptly
            // even with no traffic.
            poller.wait(Some(Duration::from_millis(100)), &mut events)?;
            touched.clear();
            dead.clear();

            for ev in &events {
                if ev.fd == listener_fd {
                    if !accepting {
                        continue;
                    }
                    loop {
                        match self.listener.accept() {
                            Ok((stream, _)) => {
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                let _ = stream.set_nodelay(true);
                                self.handler.connected();
                                let id = next_conn_id;
                                next_conn_id += 1;
                                let fd = stream.as_raw_fd();
                                conns.insert(id, Conn::new(stream));
                                by_fd.insert(fd, id);
                                poller.register(fd, POLLIN);
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            // Out of file descriptors, say: the pending
                            // connection stays queued, so stop polling the
                            // listener until the next tick instead of
                            // spinning on it.
                            Err(_) => {
                                accept_paused = true;
                                poller.reregister(listener_fd, 0);
                                break;
                            }
                        }
                    }
                    continue;
                }
                if ev.fd == wake_fd {
                    wake.drain();
                    continue;
                }
                let Some(&id) = by_fd.get(&ev.fd) else {
                    continue;
                };
                let conn = conns.get_mut(&id).expect("by_fd and conns in sync");
                if ev.broken() {
                    dead.push(id);
                    continue;
                }
                let mut broken = false;
                if ev.readable() && !conn.closing && !conn.paused {
                    broken = dispatch.read(conn, id, &mut buf);
                }
                if ev.writable() {
                    conn.outbox.lock().unwrap().flush();
                }
                if broken {
                    dead.push(id);
                } else {
                    touched.push(id);
                }
            }

            // Connections an answering thread flagged; one that died
            // while its job ran is gone already.
            touched.append(&mut flagged.lock().unwrap());

            // Slow-loris guard: a connection that made no read progress for
            // the idle timeout and is owed nothing (no in-flight response,
            // nothing buffered) is reaped — half-open peers and half-frame
            // writers can no longer pin a slot forever. ZERO disables it.
            if !self.idle_timeout.is_zero() {
                for (&id, conn) in conns.iter() {
                    let outbox = conn.outbox.lock().unwrap();
                    if !conn.closing
                        && conn.flushed(&outbox)
                        && conn.last_activity.max(outbox.delivered).elapsed() >= self.idle_timeout
                    {
                        self.handler.reaped();
                        dead.push(id);
                    }
                }
            }

            // Global shutdown: stop accepting, stop reading, drain.
            if self.handler.is_shutdown() {
                if accepting {
                    accepting = false;
                    poller.deregister(listener_fd);
                }
                for (&id, conn) in conns.iter_mut() {
                    if !conn.closing {
                        conn.closing = true;
                        touched.push(id);
                    }
                }
            }

            // Re-register interest and reap finished/dead connections.
            for &id in touched.iter() {
                let Some(conn) = conns.get_mut(&id) else {
                    continue;
                };
                let mut outbox = conn.outbox.lock().unwrap();
                outbox.closing = conn.closing;
                let pending = outbox.out.len();
                if pending >= WRITE_HIGH_WATER {
                    conn.paused = true;
                } else if conn.paused && pending <= WRITE_LOW_WATER {
                    conn.paused = false;
                }
                if outbox.broken || conn.closing && conn.flushed(&outbox) {
                    dead.push(id);
                    continue;
                }
                drop(outbox);
                let mut want = if pending > 0 { POLLOUT } else { 0 };
                if !conn.closing && !conn.paused {
                    want |= POLLIN;
                }
                if want != conn.interest {
                    conn.interest = want;
                    poller.reregister(conn.stream.as_raw_fd(), want);
                }
            }
            for &id in dead.iter() {
                if let Some(conn) = conns.remove(&id) {
                    // Nobody is left to read the answers: flag every job
                    // this connection submitted so the handler sheds them
                    // instead of burning work on a dead connection.
                    conn.cancel.cancel();
                    let fd = conn.stream.as_raw_fd();
                    poller.deregister(fd);
                    by_fd.remove(&fd);
                }
            }

            if self.handler.is_shutdown() && conns.is_empty() {
                break;
            }
        }
        self.handler.drain();
        Ok(())
    }
}

/// How one connection's frames reach the handler and their answers come
/// back.
struct Dispatch<'a, H> {
    handler: &'a Arc<H>,
    flagged: &'a Flagged,
    waker: &'a Waker,
}

impl<H: FrameHandler> Dispatch<'_, H> {
    /// Reads everything available from one connection and feeds the state
    /// machine. Returns `true` when the connection is gone.
    fn read(&self, conn: &mut Conn, id: u64, buf: &mut [u8]) -> bool {
        loop {
            match (&*conn.stream).read(buf) {
                Ok(0) => {
                    // EOF: no more frames will arrive. A final JSON line
                    // without its newline is still answered; then flush
                    // what is owed.
                    if let Proto::Json(lines) = &mut conn.proto {
                        if let Some(event) = lines.finish() {
                            let respond = self.respond(id, &mut conn.next_seq, &conn.outbox, true);
                            answer_line(self.handler, event, &conn.cancel, respond);
                        }
                    }
                    conn.closing = true;
                    return false;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    self.feed(conn, id, &buf[..n]);
                    if conn.closing || conn.outbox.lock().unwrap().out.len() >= WRITE_HIGH_WATER {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
    }

    /// Routes a chunk of fresh bytes through the connection's protocol
    /// state.
    fn feed(&self, conn: &mut Conn, id: u64, chunk: &[u8]) {
        // Resolve detection first so the real protocol sees the whole prefix.
        if let Proto::Detecting(prefix) = &mut conn.proto {
            prefix.extend_from_slice(chunk);
            let max = self.handler.max_frame_bytes();
            let decided = match detect(prefix) {
                Detect::NeedMore => return,
                Detect::Binary => Proto::Binary(FrameDecoder::new(max)),
                Detect::Json => Proto::Json(JsonLines::new(max)),
            };
            let buffered = std::mem::take(prefix);
            conn.proto = decided;
            return self.feed(conn, id, &buffered);
        }
        let Conn {
            proto,
            outbox,
            next_seq,
            cancel,
            closing,
            ..
        } = conn;
        match proto {
            Proto::Detecting(_) => unreachable!("detection resolved above"),
            Proto::Json(lines) => {
                for event in lines.feed(chunk) {
                    let respond = self.respond(id, next_seq, outbox, true);
                    answer_line(self.handler, event, cancel, respond);
                }
            }
            Proto::Binary(decoder) => {
                decoder.extend(chunk);
                loop {
                    match decoder.next() {
                        Ok(None) => break,
                        Ok(Some(FrameEvent::Oversized { declared, .. })) => {
                            self.handler.oversized();
                            let cap = self.handler.max_frame_bytes();
                            let answer = Edge::oversized(Some(declared), cap);
                            self.respond(id, next_seq, outbox, false)(answer);
                        }
                        Ok(Some(FrameEvent::Frame { tag, payload })) => {
                            let respond = self.respond(id, next_seq, outbox, false);
                            let frame = Frame::Binary(tag, &payload);
                            self.handler.answer(frame, cancel.clone(), respond);
                        }
                        Err(e) => {
                            // Framing is unrecoverable (bad magic mid-stream,
                            // CRC mismatch): answer once, then close.
                            let err = ServiceError::new(
                                ErrorKind::Protocol,
                                format!("unrecoverable framing error: {e}"),
                            );
                            let answer = Edge::Binary(0).encode(Err(err));
                            self.respond(id, next_seq, outbox, false)(answer);
                            *closing = true;
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Where the answer to the connection's next frame goes: into its
    /// outbox under the next sequence number, waking the loop only when
    /// the outbox needs it. A JSON answer gets its newline here.
    fn respond(
        &self,
        conn: u64,
        next_seq: &mut u64,
        outbox: &Arc<Mutex<Outbox>>,
        json: bool,
    ) -> Respond {
        let seq = *next_seq;
        *next_seq += 1;
        let (outbox, flagged) = (Arc::clone(outbox), Arc::clone(self.flagged));
        let waker = self.waker.clone();
        Box::new(move |mut bytes| {
            if json {
                bytes.push(b'\n');
            }
            if outbox.lock().unwrap().deliver(seq, bytes) {
                flagged.lock().unwrap().push(conn);
                waker.wake();
            }
        })
    }
}
