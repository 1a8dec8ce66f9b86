//! The blocking transports' pieces: newline framing with a hard size cap
//! ([`FrameReader`]) and the stdio loop, speaking the JSON protocol of
//! [`crate::proto`] against one shared [`Service`]. TCP serving is the
//! event loop in [`crate::event_server`].
//!
//! Framing is resilient by construction: lines longer than the configured
//! maximum are discarded (bounded memory) and answered with a `protocol`
//! error, after which the stream keeps working; and a final unterminated
//! line at EOF still gets a response.

use std::io::{self, BufRead, BufWriter, Write};
use std::sync::Arc;

use crate::service::Service;

/// What [`FrameReader::next_frame`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line; the payload is in the reader's buffer.
    Complete,
    /// A line longer than the maximum was discarded in full.
    Oversized,
}

/// Incremental newline framing over any [`BufRead`], with a hard size cap.
///
/// Oversized lines are discarded chunk-by-chunk — the frame never
/// materializes in memory — and reported as [`Frame::Oversized`] once
/// their terminating newline (or EOF) is reached, so the stream stays in
/// sync and the connection stays usable.
pub struct FrameReader<R> {
    inner: R,
    max: usize,
    buf: Vec<u8>,
    discarding: bool,
    // The buffer holds a delivered frame (clear it on the next call) as
    // opposed to a partial line awaiting more input after a read timeout.
    delivered: bool,
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps `inner`, capping accepted lines at `max` bytes.
    pub fn new(inner: R, max: usize) -> Self {
        Self {
            inner,
            max,
            buf: Vec::new(),
            discarding: false,
            delivered: false,
        }
    }

    /// The payload of the last [`Frame::Complete`].
    pub fn frame(&self) -> &[u8] {
        &self.buf
    }

    /// Reads until a frame completes, EOF (`Ok(None)`), or an I/O error.
    /// Timeout-flavored errors (`WouldBlock`/`TimedOut`) surface to the
    /// caller with all partial state preserved — call again to resume.
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        if self.delivered {
            self.buf.clear();
            self.delivered = false;
        }
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF. A pending oversized or partial final line still
                // yields one last frame; the next call reports EOF.
                if self.discarding {
                    self.discarding = false;
                    return Ok(Some(Frame::Oversized));
                }
                if !self.buf.is_empty() {
                    self.delivered = true;
                    return Ok(Some(Frame::Complete));
                }
                return Ok(None);
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    let oversized = self.discarding || self.buf.len() + nl > self.max;
                    if !oversized {
                        self.buf.extend_from_slice(&chunk[..nl]);
                    }
                    self.inner.consume(nl + 1);
                    if oversized {
                        self.discarding = false;
                        self.buf.clear();
                        return Ok(Some(Frame::Oversized));
                    }
                    self.delivered = true;
                    return Ok(Some(Frame::Complete));
                }
                None => {
                    let len = chunk.len();
                    if !self.discarding {
                        if self.buf.len() + len > self.max {
                            self.discarding = true;
                            self.buf.clear();
                        } else {
                            self.buf.extend_from_slice(chunk);
                        }
                    }
                    self.inner.consume(len);
                }
            }
        }
    }
}

/// Serves the protocol over stdin/stdout (pipe mode) until EOF or a
/// `shutdown` request, then drains the worker pool. Counts as one
/// connection in the statistics.
pub fn run_stdio(service: Arc<Service>) -> io::Result<()> {
    service.record_connection();
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut writer = BufWriter::new(stdout.lock());
    let mut frames = FrameReader::new(stdin.lock(), service.config().max_frame_bytes);
    loop {
        match frames.next_frame()? {
            Some(Frame::Complete) => {
                let resp = service.handle_frame(frames.frame());
                writer.write_all(resp.line.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                if resp.shutdown {
                    break;
                }
            }
            Some(Frame::Oversized) => {
                let line = service.oversized_frame_response();
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
            }
            None => break,
        }
    }
    service.shutdown();
    service.join_workers();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_reader_splits_lines() {
        let data: &[u8] = b"alpha\nbeta\n\ngamma"; // incl. empty + unterminated
        let mut fr = FrameReader::new(data, 64);
        assert_eq!(fr.next_frame().unwrap(), Some(Frame::Complete));
        assert_eq!(fr.frame(), b"alpha");
        assert_eq!(fr.next_frame().unwrap(), Some(Frame::Complete));
        assert_eq!(fr.frame(), b"beta");
        assert_eq!(fr.next_frame().unwrap(), Some(Frame::Complete));
        assert_eq!(fr.frame(), b"");
        assert_eq!(fr.next_frame().unwrap(), Some(Frame::Complete));
        assert_eq!(fr.frame(), b"gamma");
        assert_eq!(fr.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_reader_discards_oversized_and_resyncs() {
        let mut data = vec![b'x'; 1000];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut fr = FrameReader::new(&data[..], 16);
        assert_eq!(fr.next_frame().unwrap(), Some(Frame::Oversized));
        assert_eq!(fr.next_frame().unwrap(), Some(Frame::Complete));
        assert_eq!(fr.frame(), b"ok");
        assert_eq!(fr.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_reader_bounds_memory_on_endless_line() {
        // 1 MiB of newline-free bytes against a 16-byte cap: the buffer
        // never grows past one BufRead chunk.
        let data = vec![b'y'; 1 << 20];
        let mut fr = FrameReader::new(&data[..], 16);
        assert_eq!(fr.next_frame().unwrap(), Some(Frame::Oversized));
        assert!(fr.buf.capacity() <= 64 * 1024);
        assert_eq!(fr.next_frame().unwrap(), None);
    }

    #[test]
    fn frame_reader_exact_boundary() {
        let mut fr = FrameReader::new(&b"1234\n12345\n"[..], 4);
        assert_eq!(fr.next_frame().unwrap(), Some(Frame::Complete));
        assert_eq!(fr.frame(), b"1234");
        assert_eq!(fr.next_frame().unwrap(), Some(Frame::Oversized));
        assert_eq!(fr.next_frame().unwrap(), None);
    }
}
