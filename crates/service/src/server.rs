//! What every edge shares: the [`FrameHandler`] contract the event loop
//! and the stdio loop serve (a node's [`Service`] or a cluster
//! [`Router`](crate::Router)), the one edge codec (`Edge`) that decodes a
//! frame of either protocol and encodes its answer, the one newline
//! framer (`JsonLines`), and the stdio loop. TCP serving is the event
//! loop in [`crate::event_server`].
//!
//! Every frame, from a TCP connection, stdin or an in-process caller
//! ([`Service::handle_frame`]), is answered through the handler's one
//! answer entry, [`FrameHandler::answer`].
//!
//! Framing is resilient by construction: lines longer than the configured
//! maximum are discarded (bounded memory) and answered with a `protocol`
//! error, after which the stream keeps working; and a final unterminated
//! line at end of stream still gets a response.

use std::io::{self, BufWriter, Read, Write};
use std::sync::{mpsc, Arc};

use arrayflow_resilience::CancelToken;
use arrayflow_wire::proto::Request;

use crate::binproto::{decode_request, response_frame};
use crate::json::Json;
use crate::proto::{encode_outcome, ErrorKind, JsonRequest, ServiceError};
use crate::service::{Answer, Service};

/// One frame as a transport cut it from its stream.
#[derive(Debug, Clone, Copy)]
pub enum Frame<'a> {
    /// A JSON line, without its newline.
    Json(&'a [u8]),
    /// An `AFWIRE01` frame: its tag and CRC-checked payload.
    Binary(u8, &'a [u8]),
}

/// How a handler hands one frame's answer back to the transport: the
/// encoded response, a JSON line without its newline or a whole binary
/// frame. Called exactly once, from any thread.
pub type Respond = Box<dyn FnOnce(Vec<u8>) + Send>;

/// What the loops serve: a node's [`Service`] or a cluster
/// [`Router`](crate::Router). The loop owns the sockets (or stdin),
/// protocol sniffing, framing, response order, idle reaping,
/// backpressure and the shutdown drain; the handler decides what a frame
/// means.
pub trait FrameHandler: Send + Sync + 'static {
    /// Answers one frame through `respond`: before returning for cheap
    /// verbs and errors, later and from another thread for queued work.
    /// `cancel` is the connection's token, cancelled when the connection
    /// is reaped.
    fn answer(self: &Arc<Self>, frame: Frame<'_>, cancel: CancelToken, respond: Respond);
    /// The cap on one frame, either protocol.
    fn max_frame_bytes(&self) -> usize;
    /// Counts one frame over the cap. The transport discards it unread
    /// and answers it with the edge's oversized answer.
    fn oversized(&self);
    /// True once shutdown began — the `shutdown` verb is answered inline
    /// and starts it: the loop stops accepting and reading, and closes
    /// each connection once it is owed nothing.
    fn is_shutdown(&self) -> bool;
    /// Waits until every accepted frame's work is done; the loop's last
    /// step.
    fn drain(&self);
    /// Counts one accepted connection.
    fn connected(&self);
    /// Counts one connection the idle sweep closed.
    fn reaped(&self);
}

/// A request as an edge decoded it: the request and its deadline
/// budget, or the protocol error that stopped the decode.
pub(crate) type Decoded = Result<(Request, Option<u64>), ServiceError>;

/// The one edge codec: the protocol a frame arrived on, with the id its
/// answer echoes. Both handlers decode through it and encode their
/// outcomes with it, so the protocols differ only here.
pub(crate) enum Edge {
    /// A JSON line's `id`, any JSON value (`null` when none could be
    /// recovered).
    Json(Json),
    /// A binary frame's request id; 0, the protocol's "unattributable"
    /// id, when the frame did not decode.
    Binary(u64),
}

impl Edge {
    /// Decodes one frame onto the request model, recovering the id its
    /// answer echoes even when the decode fails.
    pub(crate) fn decode(frame: Frame<'_>) -> (Edge, Decoded) {
        match frame {
            Frame::Json(line) => match JsonRequest::decode(line) {
                Ok(r) => (Edge::Json(r.id), Ok((r.request, r.deadline_ms))),
                Err((id, e)) => (Edge::Json(id), Err(e)),
            },
            Frame::Binary(tag, payload) => {
                let decoded = decode_request(tag, payload);
                let id = decoded.as_ref().map_or(0, |(req, _)| req.id());
                (Edge::Binary(id), decoded)
            }
        }
    }

    /// Encodes one outcome: a JSON line without its newline, or a whole
    /// response frame.
    pub(crate) fn encode(&self, outcome: Result<Answer, ServiceError>) -> Vec<u8> {
        match self {
            Edge::Json(id) => encode_outcome(id, outcome).into_bytes(),
            Edge::Binary(id) => response_frame(*id, outcome),
        }
    }

    /// The answer to a frame over the `cap`-byte cap, which nobody read:
    /// a JSON line (`declared` is `None`), or a binary frame whose length
    /// prefix declared `declared` bytes. It carries the unattributable id.
    pub(crate) fn oversized(declared: Option<u64>, cap: usize) -> Vec<u8> {
        let (edge, message) = match declared {
            None => (Edge::Json(Json::Null), format!("frame exceeds {cap} bytes")),
            Some(declared) => (
                Edge::Binary(0),
                format!("frame of {declared} bytes exceeds the {cap} byte cap"),
            ),
        };
        edge.encode(Err(ServiceError::new(ErrorKind::Protocol, message)))
    }
}

/// Hands one event of the JSON framer to `handler`: a line to its answer
/// entry, a line over the cap to its oversized hook and the edge's
/// oversized answer. The event loop and the stdio loop both call it.
pub(crate) fn answer_line<H: FrameHandler>(
    handler: &Arc<H>,
    event: JsonEvent,
    cancel: &CancelToken,
    respond: Respond,
) {
    match event {
        JsonEvent::Line(line) => handler.answer(Frame::Json(&line), cancel.clone(), respond),
        JsonEvent::Oversized => {
            handler.oversized();
            respond(Edge::oversized(None, handler.max_frame_bytes()));
        }
    }
}

/// Hands `ask` a [`Respond`] and waits for the bytes it is given: how a
/// caller on its own thread (the stdio loop, [`Service::handle_frame`])
/// takes an answer from the one answer entry.
pub(crate) fn wait_for(ask: impl FnOnce(Respond)) -> Vec<u8> {
    let (tx, rx) = mpsc::channel();
    ask(Box::new(move |bytes| {
        // The receiver waits below until this has run.
        let _ = tx.send(bytes);
    }));
    rx.recv()
        .expect("a handler answers every frame exactly once")
}

/// What [`JsonLines`] cut from the stream.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum JsonEvent {
    /// A complete line, without its newline.
    Line(Vec<u8>),
    /// A line over the cap, discarded in full.
    Oversized,
}

/// Incremental newline framing with a hard size cap, fed whatever bytes
/// arrived. A line over the cap is discarded in bounded memory (never
/// buffered whole), reported once at its terminating newline, and the
/// stream stays usable. [`JsonLines::finish`] flushes a final line that
/// never got its newline.
pub(crate) struct JsonLines {
    line: Vec<u8>,
    max: usize,
    dropping: bool,
}

impl JsonLines {
    pub(crate) fn new(max: usize) -> Self {
        JsonLines {
            line: Vec::new(),
            max,
            dropping: false,
        }
    }

    /// Frames `chunk` onto the pending partial line.
    pub(crate) fn feed(&mut self, mut chunk: &[u8]) -> Vec<JsonEvent> {
        let mut events = Vec::new();
        while let Some(nl) = chunk.iter().position(|&b| b == b'\n') {
            self.take(&chunk[..nl]);
            events.push(self.end_line());
            chunk = &chunk[nl + 1..];
        }
        self.take(chunk);
        events
    }

    /// End of stream: the unterminated final line, if any.
    pub(crate) fn finish(&mut self) -> Option<JsonEvent> {
        (self.dropping || !self.line.is_empty()).then(|| self.end_line())
    }

    fn take(&mut self, bytes: &[u8]) {
        if self.dropping {
            // Discard until the newline resynchronizes the stream.
        } else if self.line.len() + bytes.len() > self.max {
            self.line.clear();
            self.dropping = true;
        } else {
            self.line.extend_from_slice(bytes);
        }
    }

    fn end_line(&mut self) -> JsonEvent {
        if std::mem::take(&mut self.dropping) {
            JsonEvent::Oversized
        } else {
            JsonEvent::Line(std::mem::take(&mut self.line))
        }
    }
}

/// Serves the JSON protocol over stdin/stdout (pipe mode) until end of
/// input or until shutdown began, as a TCP connection is served: every
/// line goes through the one answer entry, and its answer is written
/// before the next line is read. Then drains the worker pool. Counts as
/// one connection in the statistics.
pub fn run_stdio(service: Arc<Service>) -> io::Result<()> {
    service.connected();
    let mut stdin = io::stdin().lock();
    let mut writer = BufWriter::new(io::stdout().lock());
    let mut lines = JsonLines::new(service.max_frame_bytes());
    let cancel = CancelToken::new();
    let mut buf = vec![0u8; 64 << 10];
    'serve: while !service.is_shutdown() {
        let n = match stdin.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let events = match n {
            0 => lines.finish().into_iter().collect(),
            n => lines.feed(&buf[..n]),
        };
        for event in events {
            let answer = wait_for(|respond| answer_line(&service, event, &cancel, respond));
            writer.write_all(&answer)?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            if service.is_shutdown() {
                break 'serve;
            }
        }
        if n == 0 {
            break;
        }
    }
    service.shutdown();
    service.join_workers();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(bytes: &[u8]) -> JsonEvent {
        JsonEvent::Line(bytes.to_vec())
    }

    /// Feeds `chunks` as they arrive, then ends the stream.
    fn frame(chunks: &[&[u8]], cap: usize) -> Vec<JsonEvent> {
        let mut j = JsonLines::new(cap);
        let mut got: Vec<JsonEvent> = chunks.iter().flat_map(|c| j.feed(c)).collect();
        got.extend(j.finish());
        assert_eq!(j.finish(), None, "the flush is one-shot");
        got
    }

    #[test]
    fn json_lines_split_cap_and_flush_at_end_of_stream() {
        use JsonEvent::Oversized;
        assert_eq!(
            frame(&[b"abc\nlongerthan8bytes\nde", b"f\n"], 8),
            [line(b"abc"), Oversized, line(b"def")]
        );
        // Empty and unterminated lines.
        assert_eq!(
            frame(&[b"alpha\nbeta\n\ngamma"], 64),
            [line(b"alpha"), line(b"beta"), line(b""), line(b"gamma")]
        );
        // An oversized line is discarded and the stream resyncs.
        let long = [vec![b'x'; 1000], b"\nok\n".to_vec()].concat();
        assert_eq!(frame(&[&long], 16), [Oversized, line(b"ok")]);
        // An endless line is reported once, at end of stream.
        assert_eq!(frame(&[&vec![b'y'; 1 << 20]], 16), [Oversized]);
        // The cap is inclusive.
        assert_eq!(frame(&[b"1234\n12345\n"], 4), [line(b"1234"), Oversized]);
    }

    #[test]
    fn oversized_line_uses_bounded_memory() {
        let mut j = JsonLines::new(1024);
        let chunk = vec![b'x'; 64 << 10];
        for _ in 0..64 {
            assert!(j.feed(&chunk).is_empty(), "no newline yet");
            assert!(j.line.capacity() <= 2048, "dropping keeps the buffer small");
        }
        assert_eq!(j.feed(b"\n"), vec![JsonEvent::Oversized]);
    }
}
