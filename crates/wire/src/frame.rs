//! The `AFWIRE01` binary frame: length-prefixed, CRC-framed, one frame
//! per request or response.
//!
//! ```text
//! ┌────────────────────────────── one frame ──────────────────────────┐
//! │ magic "AFWIRE01" (8 bytes)                                        │
//! │ version u8 (= 1)                                                  │
//! │ tag u8 (request verb or response tag, see `proto`)                │
//! │ payload_len LEB128 varint                                         │
//! │ crc32(payload) u32 LE                                             │
//! │ payload (payload_len bytes)                                       │
//! └───────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every frame carries the magic, so framing is stateless: a reader can
//! validate each frame independently, and protocol auto-detection only
//! needs the first bytes of a connection ([`detect`]).
//!
//! The decoder enforces the payload size cap **from the length prefix,
//! before allocating**: a frame whose declared length exceeds the cap is
//! reported as [`FrameEvent::Oversized`] and its payload is discarded
//! chunk-by-chunk in bounded memory — mirroring the service's JSON line
//! framer — after which the stream stays in sync and
//! the connection stays usable. Corrupted framing (bad magic, bad
//! version, malformed length, CRC mismatch) is unrecoverable on a binary
//! stream and surfaces as a [`FrameError`]; the connection should close.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::codec::{put_varint, DecodeError, Reader};
use crate::crc::crc32;

/// Leading bytes of every binary frame.
pub const MAGIC: [u8; 8] = *b"AFWIRE01";
/// Protocol version carried after the magic.
pub const VERSION: u8 = 1;
/// Longest possible frame header: magic + version + tag + 10-byte varint
/// + CRC.
pub const MAX_HEADER_LEN: usize = 8 + 1 + 1 + 10 + 4;

/// Why a binary stream became undecodable. Unlike an oversized payload
/// (a well-framed frame that is merely too big), these mean the framing
/// itself cannot be trusted; the connection should be closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first bytes were not the `AFWIRE01` magic.
    BadMagic,
    /// The version byte was not [`VERSION`].
    BadVersion(u8),
    /// The payload length varint was malformed.
    BadLength,
    /// The payload did not match its CRC.
    BadCrc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic (expected AFWIRE01)"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadLength => write!(f, "malformed payload length"),
            FrameError::BadCrc => write!(f, "payload CRC mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// What [`FrameDecoder::next`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete, CRC-validated frame.
    Frame {
        /// The tag byte (request verb or response tag).
        tag: u8,
        /// The validated payload.
        payload: Vec<u8>,
    },
    /// A well-framed payload whose declared length exceeds the cap. The
    /// payload was **not** allocated; it is discarded as it streams in,
    /// and the next frame decodes normally.
    Oversized {
        /// The tag byte of the rejected frame.
        tag: u8,
        /// The length its prefix declared.
        declared: u64,
    },
}

/// Encodes one frame around `payload`.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAX_HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(tag);
    put_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// How the first bytes of a connection classify its protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detect {
    /// The prefix matches the binary magic (all 8 bytes seen).
    Binary,
    /// The prefix diverges from the magic: newline-framed JSON.
    Json,
    /// Fewer than 8 bytes seen, all matching the magic so far.
    NeedMore,
}

/// Classifies a connection from its first bytes. Binary requires the full
/// 8-byte magic; any earlier divergence means JSON (a JSON request is an
/// object, so its first byte `{` — or any hostile byte — diverges at
/// position 0 unless the client really is speaking `AFWIRE01`).
pub fn detect(prefix: &[u8]) -> Detect {
    let n = prefix.len().min(MAGIC.len());
    if prefix[..n] != MAGIC[..n] {
        return Detect::Json;
    }
    if prefix.len() >= MAGIC.len() {
        Detect::Binary
    } else {
        Detect::NeedMore
    }
}

/// A frame header: everything before the payload.
struct Head {
    tag: u8,
    /// The declared payload length.
    len: u64,
    crc: u32,
    /// The header's own length in bytes.
    size: usize,
}

/// What the front of a buffer holds.
enum Parsed {
    Head(Head),
    /// An incomplete header that needs at least this many more bytes.
    Short(usize),
}

/// Parses the frame header at the front of `buf` — the one header parser
/// of [`FrameDecoder`] and [`read_frame`]. Rejects as soon as the bytes
/// seen diverge from the magic or the version, or the length varint is
/// malformed.
fn parse_head(buf: &[u8]) -> Result<Parsed, FrameError> {
    let n = buf.len().min(MAGIC.len());
    if buf[..n] != MAGIC[..n] {
        return Err(FrameError::BadMagic);
    }
    // Magic, version and tag.
    const FIXED: usize = MAGIC.len() + 2;
    if buf.len() < FIXED {
        return Ok(Parsed::Short(FIXED - buf.len()));
    }
    if buf[8] != VERSION {
        return Err(FrameError::BadVersion(buf[8]));
    }
    let mut r = Reader::new(&buf[FIXED..]);
    let len = match r.varint() {
        Ok(len) => len,
        // At least one more length byte, then the CRC.
        Err(DecodeError::Truncated) => return Ok(Parsed::Short(5)),
        Err(_) => return Err(FrameError::BadLength),
    };
    if r.remaining() < 4 {
        return Ok(Parsed::Short(4 - r.remaining()));
    }
    let size = buf.len() - r.remaining() + 4;
    let crc = u32::from_le_bytes(buf[size - 4..size].try_into().expect("four bytes"));
    Ok(Parsed::Head(Head {
        tag: buf[9],
        len,
        crc,
        size,
    }))
}

/// An incremental frame decoder with a hard payload cap, suitable for a
/// nonblocking event loop: feed it whatever bytes arrived, then drain
/// events.
pub struct FrameDecoder {
    max_payload: usize,
    buf: Vec<u8>,
    /// Remaining bytes of an oversized payload being discarded.
    skip: u64,
}

impl FrameDecoder {
    /// A decoder rejecting payloads longer than `max_payload` (from the
    /// length prefix, before any allocation).
    pub fn new(max_payload: usize) -> Self {
        FrameDecoder {
            max_payload,
            buf: Vec::new(),
            skip: 0,
        }
    }

    /// Appends newly received bytes. While discarding an oversized
    /// payload, consumed bytes are never buffered — memory stays bounded
    /// by one read chunk plus one frame header.
    pub fn extend(&mut self, mut bytes: &[u8]) {
        if self.skip > 0 {
            let d = (self.skip).min(bytes.len() as u64) as usize;
            self.skip -= d as u64;
            bytes = &bytes[d..];
        }
        if !bytes.is_empty() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes currently buffered (payload in flight).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Decodes the next event, `Ok(None)` when more bytes are needed.
    /// Errors are sticky in practice: the stream is desynced and the
    /// caller should close the connection.
    // Not `Iterator`: `Ok(None)` means "need more bytes", not exhaustion,
    // and the error must stop iteration — neither fits the trait contract.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<FrameEvent>, FrameError> {
        // Finish discarding an oversized payload that was partly buffered.
        if self.skip > 0 {
            let d = (self.skip).min(self.buf.len() as u64) as usize;
            self.buf.drain(..d);
            self.skip -= d as u64;
            if self.skip > 0 {
                return Ok(None);
            }
        }
        let Head {
            tag,
            len,
            crc,
            size,
        } = match parse_head(&self.buf)? {
            Parsed::Head(head) => head,
            Parsed::Short(_) => return Ok(None),
        };
        if len > self.max_payload as u64 {
            // Reject from the prefix: consume the header, discard the
            // payload as it arrives, never allocate it.
            self.buf.drain(..size);
            self.skip = len;
            let d = (self.skip).min(self.buf.len() as u64) as usize;
            self.buf.drain(..d);
            self.skip -= d as u64;
            return Ok(Some(FrameEvent::Oversized { tag, declared: len }));
        }
        let len = len as usize;
        if self.buf.len() < size + len {
            return Ok(None);
        }
        let payload = self.buf[size..size + len].to_vec();
        self.buf.drain(..size + len);
        if crc32(&payload) != crc {
            return Err(FrameError::BadCrc);
        }
        Ok(Some(FrameEvent::Frame { tag, payload }))
    }
}

/// Reads exactly one frame from a blocking reader (the client side),
/// consuming no byte past it. Framing errors and oversized payloads
/// surface as `io::ErrorKind::InvalidData`.
pub fn read_frame(reader: &mut impl Read, max_payload: usize) -> io::Result<(u8, Vec<u8>)> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    // Read only the bytes the header is known to still need, so a reader
    // shared with later frames never loses one.
    let mut buf = [0u8; MAX_HEADER_LEN];
    let mut have = 0;
    let head = loop {
        match parse_head(&buf[..have]).map_err(|e| invalid(e.to_string()))? {
            Parsed::Head(head) => break head,
            Parsed::Short(need) => {
                reader.read_exact(&mut buf[have..have + need])?;
                have += need;
            }
        }
    };
    if head.len > max_payload as u64 {
        let cap = format!("frame payload of {} bytes exceeds cap", head.len);
        return Err(invalid(cap));
    }
    let mut payload = vec![0u8; head.len as usize];
    reader.read_exact(&mut payload)?;
    if crc32(&payload) != head.crc {
        return Err(invalid(FrameError::BadCrc.to_string()));
    }
    Ok((head.tag, payload))
}

/// A blocking request/response connection, the one way the service's
/// client, the cluster router's backend pool and the store replicator
/// dial a peer: a connect timeout and `TCP_NODELAY`, every read and write
/// of an exchange bounded by its deadline, and buffered reads capped per
/// response. `io::ErrorKind::InvalidData` means the peer answered over
/// the cap or unframeably: drop the connection. Any other error is
/// transport.
pub struct Connection {
    stream: BufReader<TcpStream>,
}

impl Connection {
    /// Dials the first address `addr` resolves to, giving up after
    /// `connect_timeout`.
    pub fn dial(addr: &str, connect_timeout: Duration) -> io::Result<Connection> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream: BufReader::new(stream),
        })
    }

    /// Writes one request frame and reads back one frame whose payload
    /// is at most `max_payload` bytes ([`read_frame`]); each read and
    /// write waits at most `timeout`.
    pub fn exchange_frame(
        &mut self,
        frame: &[u8],
        timeout: Duration,
        max_payload: usize,
    ) -> io::Result<(u8, Vec<u8>)> {
        self.send(frame, timeout)?;
        read_frame(&mut self.stream, max_payload)
    }

    /// Writes one newline-terminated request line and reads back one
    /// response line, trailing newline included, of at most `max_len`
    /// bytes before the newline; each read and write waits at most
    /// `timeout`.
    pub fn exchange_line(
        &mut self,
        line: &[u8],
        timeout: Duration,
        max_len: usize,
    ) -> io::Result<Vec<u8>> {
        self.send(line, timeout)?;
        let mut response = Vec::new();
        let limit = (max_len as u64).saturating_add(1);
        (&mut self.stream)
            .take(limit)
            .read_until(b'\n', &mut response)?;
        if response.last() == Some(&b'\n') {
            Ok(response)
        } else if response.len() > max_len {
            let cap = format!("response line exceeds the {max_len} byte cap");
            Err(io::Error::new(io::ErrorKind::InvalidData, cap))
        } else {
            Err(io::ErrorKind::UnexpectedEof.into())
        }
    }

    fn send(&mut self, bytes: &[u8], timeout: Duration) -> io::Result<()> {
        let stream = self.stream.get_mut();
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.write_all(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_whole_and_byte_by_byte() {
        let frame = encode_frame(0x02, b"hello payload");
        // Whole.
        let mut d = FrameDecoder::new(1 << 20);
        d.extend(&frame);
        match d.next().unwrap().unwrap() {
            FrameEvent::Frame { tag, payload } => {
                assert_eq!(tag, 0x02);
                assert_eq!(payload, b"hello payload");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.next().unwrap(), None);
        // One byte at a time.
        let mut d = FrameDecoder::new(1 << 20);
        let mut got = 0;
        for b in &frame {
            d.extend(std::slice::from_ref(b));
            while let Some(ev) = d.next().unwrap() {
                assert!(matches!(ev, FrameEvent::Frame { .. }));
                got += 1;
            }
        }
        assert_eq!(got, 1);
    }

    #[test]
    fn oversized_is_rejected_from_the_prefix_without_allocation() {
        // Header declaring 1 GiB: the decoder must reject before the
        // payload exists, and keep memory bounded while it streams past.
        let mut head = Vec::new();
        head.extend_from_slice(&MAGIC);
        head.push(VERSION);
        head.push(0x02);
        put_varint(&mut head, 1 << 30);
        head.extend_from_slice(&0u32.to_le_bytes());
        let mut d = FrameDecoder::new(4096);
        d.extend(&head);
        assert_eq!(
            d.next().unwrap(),
            Some(FrameEvent::Oversized {
                tag: 0x02,
                declared: 1 << 30
            })
        );
        // Stream the (discarded) payload through in chunks, then a good
        // frame: memory stays bounded and the stream resyncs.
        let chunk = vec![0xAB; 64 * 1024];
        let mut sent = 0u64;
        while sent < 1 << 30 {
            let n = chunk.len().min(((1u64 << 30) - sent) as usize);
            d.extend(&chunk[..n]);
            sent += n as u64;
            assert!(
                d.buffered() <= chunk.len(),
                "decoder buffered a rejected payload"
            );
            assert_eq!(d.next().unwrap(), None);
        }
        let good = encode_frame(0x01, b"ok");
        d.extend(&good);
        assert!(matches!(
            d.next().unwrap(),
            Some(FrameEvent::Frame { tag: 0x01, .. })
        ));
    }

    #[test]
    fn corrupt_framing_is_an_error() {
        // Bad magic.
        let mut d = FrameDecoder::new(4096);
        d.extend(b"XFWIRE01");
        assert_eq!(d.next(), Err(FrameError::BadMagic));
        // Early divergence: one wrong byte is enough.
        let mut d = FrameDecoder::new(4096);
        d.extend(b"AX");
        assert_eq!(d.next(), Err(FrameError::BadMagic));
        // Bad version.
        let mut d = FrameDecoder::new(4096);
        let mut f = encode_frame(0x01, b"x");
        f[8] = 9;
        d.extend(&f);
        assert_eq!(d.next(), Err(FrameError::BadVersion(9)));
        // Bad CRC.
        let mut d = FrameDecoder::new(4096);
        let mut f = encode_frame(0x01, b"payload");
        let n = f.len();
        f[n - 1] ^= 0x40;
        d.extend(&f);
        assert_eq!(d.next(), Err(FrameError::BadCrc));
    }

    #[test]
    fn truncation_never_panics_and_stays_pending() {
        let frame = encode_frame(0x02, b"some payload here");
        for cut in 0..frame.len() {
            let mut d = FrameDecoder::new(4096);
            d.extend(&frame[..cut]);
            assert_eq!(d.next().unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn detect_classifies_prefixes() {
        assert_eq!(detect(b"{\"verb\""), Detect::Json);
        assert_eq!(detect(b"AFWIRE01"), Detect::Binary);
        assert_eq!(detect(b"AFWIRE0"), Detect::NeedMore);
        assert_eq!(detect(b"AFWIRE0X"), Detect::Json);
        assert_eq!(detect(b""), Detect::NeedMore);
        assert_eq!(detect(b"A"), Detect::NeedMore);
        assert_eq!(detect(b"B"), Detect::Json);
    }

    #[test]
    fn connection_caps_lines_and_frames() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64];
            // Line exchange: a fitting line, then one byte over the cap.
            let _ = stream.read(&mut buf).unwrap();
            stream.write_all(b"0123456789\n").unwrap();
            let _ = stream.read(&mut buf).unwrap();
            stream.write_all(b"0123456789A\n").unwrap();
            // Frame exchange on a second connection: a fitting frame,
            // then one whose payload is over the cap.
            let (mut stream, _) = listener.accept().unwrap();
            let _ = stream.read(&mut buf).unwrap();
            stream.write_all(&encode_frame(0x81, b"fits")).unwrap();
            let _ = stream.read(&mut buf).unwrap();
            stream.write_all(&encode_frame(0x81, b"too long")).unwrap();
        });
        let timeout = Duration::from_secs(5);
        let mut conn = Connection::dial(&addr, timeout).unwrap();
        let line = conn.exchange_line(b"a\n", timeout, 10).unwrap();
        assert_eq!(line, b"0123456789\n");
        let err = conn.exchange_line(b"b\n", timeout, 10).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut conn = Connection::dial(&addr, timeout).unwrap();
        let frame = conn.exchange_frame(b"x", timeout, 4).unwrap();
        assert_eq!(frame, (0x81, b"fits".to_vec()));
        let err = conn.exchange_frame(b"y", timeout, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        peer.join().unwrap();
    }

    #[test]
    fn blocking_read_frame_round_trips() {
        let frame = encode_frame(0x03, b"stats please");
        let mut cursor = &frame[..];
        let (tag, payload) = read_frame(&mut cursor, 1 << 20).unwrap();
        assert_eq!((tag, payload.as_slice()), (0x03, &b"stats please"[..]));
        // Oversized via blocking read is InvalidData, not an allocation.
        let mut head = Vec::new();
        head.extend_from_slice(&MAGIC);
        head.push(VERSION);
        head.push(0x02);
        put_varint(&mut head, u64::MAX / 2);
        head.extend_from_slice(&0u32.to_le_bytes());
        let mut cursor = &head[..];
        let err = read_frame(&mut cursor, 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A length varint that never terminates is malformed, not a hang.
        let mut head = encode_frame(0x02, b"")[..10].to_vec();
        head.extend_from_slice(&[0xFF; 10]);
        let err = read_frame(&mut &head[..], 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("length"), "{err}");
    }
}
