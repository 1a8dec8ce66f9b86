//! What every edge shares: the [`FrameHandler`] contract the event loop
//! serves (a node's [`Service`] or a cluster [`Router`](crate::Router)),
//! the one newline framer (`JsonLines`), and the stdio loop, which
//! speaks the JSON protocol of [`crate::proto`] against one shared
//! [`Service`]. TCP serving is the event loop in
//! [`crate::event_server`].
//!
//! Framing is resilient by construction: lines longer than the configured
//! maximum are discarded (bounded memory) and answered with a `protocol`
//! error, after which the stream keeps working; and a final unterminated
//! line at end of stream still gets a response.

use std::io::{self, BufWriter, Read, Write};
use std::sync::Arc;

use arrayflow_resilience::CancelToken;

use crate::service::{FrameResponse, Service};

/// How a handler hands one frame's answer back to the transport: the
/// encoded response, a JSON line without its newline or a whole binary
/// frame. Called exactly once, from any thread.
pub type Respond = Box<dyn FnOnce(Vec<u8>) + Send>;

/// What one event loop serves: a node's [`Service`] or a cluster
/// [`Router`](crate::Router). The loop owns the sockets, protocol
/// sniffing, framing, response order, idle reaping, backpressure and the
/// shutdown drain; the handler decides what a frame means.
pub trait FrameHandler: Send + Sync + 'static {
    /// Answers one JSON line (without its newline). `cancel` is the
    /// connection's token, cancelled when the connection is reaped.
    fn answer_json(self: &Arc<Self>, line: &[u8], cancel: CancelToken, respond: Respond);
    /// Answers one `AFWIRE01` frame: its tag and CRC-checked payload.
    fn answer_binary(
        self: &Arc<Self>,
        tag: u8,
        payload: &[u8],
        cancel: CancelToken,
        respond: Respond,
    );
    /// The cap on one frame, either protocol.
    fn max_frame_bytes(&self) -> usize;
    /// The answer to a JSON line over the cap, discarded unread.
    fn oversized_json(&self) -> String;
    /// The answer to a binary frame whose length prefix declares
    /// `declared` bytes, over the cap.
    fn oversized_binary(&self, declared: u64) -> Vec<u8>;
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

/// Serves the protocol over stdin/stdout (pipe mode) until EOF or a
/// `shutdown` request, then drains the worker pool. Counts as one
/// connection in the statistics.
pub fn run_stdio(service: Arc<Service>) -> io::Result<()> {
    service.connected();
    let mut stdin = io::stdin().lock();
    let mut writer = BufWriter::new(io::stdout().lock());
    let mut lines = JsonLines::new(service.config().max_frame_bytes);
    let mut buf = vec![0u8; 64 << 10];
    'serve: loop {
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
            let resp = match event {
                JsonEvent::Line(line) => service.handle_frame(&line),
                JsonEvent::Oversized => FrameResponse {
                    line: service.oversized_json(),
                    shutdown: false,
                },
            };
            writer.write_all(resp.line.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            if resp.shutdown {
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
