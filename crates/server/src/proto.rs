//! The wire protocol spoken between `tcgen serve` and `tcgen client`.
//!
//! Everything on the socket is a *frame*: a little-endian length prefix
//! followed by a fixed header and an opaque payload. The header carries
//! a protocol version (so either end can reject a peer it does not
//! understand), a frame type, a request id (so one connection can carry
//! several jobs at once), and a CRC-32 of the payload (so a corrupted
//! byte surfaces as a loud protocol error rather than a silently wrong
//! container):
//!
//! ```text
//! u32 len          bytes that follow (header tail + payload), 10 ..= 10 + MAX_PAYLOAD
//! u8  version      PROTO_VERSION
//! u8  frame_type   frame_type::* constant
//! u32 request_id   client-chosen; responses echo it
//! u32 crc          CRC-32 (IEEE) of the payload
//! [payload]        len - 10 bytes
//! ```
//!
//! A job is opened with `REQ_OPEN` (a [`JobRequest`]), fed input bytes
//! in `REQ_DATA` chunks, and started with `REQ_END`. The server streams
//! the result back as `RSP_DATA` chunks terminated by `RSP_END`, or
//! reports a per-job failure as one `RSP_ERR` frame whose payload is a
//! UTF-8 message — the daemon never exits because a job went wrong.
//!
//! The declared length is validated *before* any allocation: a hostile
//! or corrupt length prefix cannot make the server reserve gigabytes.

use std::io::{self, Read, Write};

/// Protocol version stamped into (and required of) every frame. It
/// changes whenever a payload layout does, so the version check refuses
/// a peer that speaks another layout.
pub const PROTO_VERSION: u8 = 2;

/// Header bytes after the length prefix: version, type, request id, CRC.
pub const HEADER_TAIL: usize = 10;

/// Hard cap on a single frame's payload. Larger inputs are carried as
/// multiple `REQ_DATA` / `RSP_DATA` chunks.
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Chunk size the built-in client and daemon use when streaming data.
pub const CHUNK: usize = 1 << 20;

/// Frame type constants. Requests have the high bit clear, responses set.
pub mod frame_type {
    /// Opens a job: payload is an encoded [`super::JobRequest`].
    pub const REQ_OPEN: u8 = 0x01;
    /// Appends input bytes to an open job.
    pub const REQ_DATA: u8 = 0x02;
    /// Marks the input complete and queues the job for execution.
    pub const REQ_END: u8 = 0x03;
    /// Asks for the daemon's telemetry report (JSON payload back).
    pub const REQ_STATS: u8 = 0x04;
    /// Asks the daemon to drain in-flight jobs and exit.
    pub const REQ_SHUTDOWN: u8 = 0x05;
    /// Subscribes to a stats stream: the payload is a `u32` LE interval
    /// in milliseconds, and the daemon sends one `RSP_DATA` frame per
    /// tick (each a complete JSON report) until the connection closes.
    pub const REQ_STATS_STREAM: u8 = 0x06;
    /// A chunk of a job's result.
    pub const RSP_DATA: u8 = 0x81;
    /// Marks a job's result complete.
    pub const RSP_END: u8 = 0x82;
    /// A per-job failure; payload is a UTF-8 error message.
    pub const RSP_ERR: u8 = 0x8F;
}

/// What a `REQ_OPEN` asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Compress the input trace under the request's spec and options.
    Compress,
    /// Decompress the input container under the request's spec.
    Decompress,
    /// Decode the input container's prelude/footer; returns JSON.
    Inspect,
    /// Extract `range_start..range_end` records from a checkpointed
    /// container.
    Extract,
    /// Diagnostic: sleep `range_start` milliseconds, then echo the
    /// input. Exists so tests can overlap long-running jobs on one CPU.
    DebugSleep,
    /// Diagnostic: panic inside the job. Exists so tests can prove a
    /// panicking job becomes an error frame, not a dead daemon.
    DebugPanic,
}

impl JobKind {
    /// The wire byte for this kind.
    pub fn id(self) -> u8 {
        match self {
            JobKind::Compress => 0,
            JobKind::Decompress => 1,
            JobKind::Inspect => 2,
            JobKind::Extract => 3,
            JobKind::DebugSleep => 0xFD,
            JobKind::DebugPanic => 0xFE,
        }
    }

    /// Decodes a wire byte; `None` for unknown kinds.
    pub fn from_id(id: u8) -> Option<Self> {
        match id {
            0 => Some(JobKind::Compress),
            1 => Some(JobKind::Decompress),
            2 => Some(JobKind::Inspect),
            3 => Some(JobKind::Extract),
            0xFD => Some(JobKind::DebugSleep),
            0xFE => Some(JobKind::DebugPanic),
            _ => None,
        }
    }

    /// A stable lowercase name for logs and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Compress => "compress",
            JobKind::Decompress => "decompress",
            JobKind::Inspect => "inspect",
            JobKind::Extract => "extract",
            JobKind::DebugSleep => "sleep",
            JobKind::DebugPanic => "panic",
        }
    }
}

/// The decoded payload of a `REQ_OPEN` frame: what to run and under
/// which engine options. Zero counts mean "the engine default", exactly
/// like omitting the flag on the `tcgen` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// What to do with the input.
    pub kind: JobKind,
    /// Scheduling priority on the shared pool (higher runs first).
    pub priority: u8,
    /// Post-compression backend id ([`tcgen_engine::Backend::id`]).
    pub profile: u8,
    /// Worker threads for block segments (0 = engine default).
    pub threads: u32,
    /// Records per block (0 = engine default).
    pub block_records: u32,
    /// Checkpoint interval in blocks (0 = none).
    pub checkpoint_blocks: u32,
    /// First record for `Extract`; sleep milliseconds for `DebugSleep`.
    pub range_start: u64,
    /// One past the last record for `Extract`.
    pub range_end: u64,
    /// Trace specification source; empty for spec-free kinds
    /// (`Inspect`, the diagnostics).
    pub spec: String,
    /// End-to-end request trace id (0 = none). Minted by the client,
    /// stamped into every span the job records on the daemon, and
    /// echoed in slow-request and failure log lines. Carried on the
    /// wire as an optional extension, so a zero id adds no bytes.
    pub trace_id: u64,
}

impl JobRequest {
    /// A request for `kind` with every option at the engine default.
    pub fn new(kind: JobKind, spec: impl Into<String>) -> Self {
        JobRequest {
            kind,
            priority: 0,
            profile: 0,
            threads: 0,
            block_records: 0,
            checkpoint_blocks: 0,
            range_start: 0,
            range_end: 0,
            spec: spec.into(),
            trace_id: 0,
        }
    }
}

/// Fixed-size prefix of an encoded [`JobRequest`], before the spec text.
const OPEN_FIXED: usize = 4 + 3 * 4 + 2 * 8 + 4;

/// Extension-flag bit: an 8-byte LE trace id follows the spec text.
const EXT_TRACE_ID: u8 = 0x01;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The bytes violate the protocol; the message says how. A
    /// connection that produces this is closed — resynchronising with a
    /// peer that frames incorrectly is not possible.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::Malformed(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            ProtoError::Malformed(_) => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// A `frame_type::*` constant (unknown values are the receiver's
    /// problem to reject — framing does not police them).
    pub frame_type: u8,
    /// The request this frame belongs to.
    pub request_id: u32,
    /// The frame's payload, CRC-verified.
    pub payload: Vec<u8>,
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) of a frame
/// payload: blockzip's slicing-by-8 function, the one the TCGZ container
/// uses for its checksums.
pub use tcgen_engine::blockzip::crc::crc32;

/// Writes one frame. The payload must not exceed [`MAX_PAYLOAD`];
/// callers stream bigger data as multiple chunks.
pub fn write_frame(
    w: &mut impl Write,
    frame_type: u8,
    request_id: u32,
    payload: &[u8],
) -> io::Result<()> {
    assert!(payload.len() <= MAX_PAYLOAD, "frame payload exceeds MAX_PAYLOAD");
    let len = (HEADER_TAIL + payload.len()) as u32;
    let mut header = [0u8; 4 + HEADER_TAIL];
    header[0..4].copy_from_slice(&len.to_le_bytes());
    header[4] = PROTO_VERSION;
    header[5] = frame_type;
    header[6..10].copy_from_slice(&request_id.to_le_bytes());
    header[10..14].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame. Returns `Ok(None)` on a clean end of stream (EOF
/// exactly at a frame boundary); EOF anywhere else is
/// [`ProtoError::Malformed`] ("truncated frame"). The declared length
/// is validated against [`MAX_PAYLOAD`] before the payload buffer is
/// allocated.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ProtoError> {
    let mut len_bytes = [0u8; 4];
    match read_exact_or_eof(r, &mut len_bytes)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial => {
            return Err(ProtoError::Malformed("truncated frame: short length prefix".into()))
        }
        ReadOutcome::Full => {}
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len < HEADER_TAIL {
        return Err(ProtoError::Malformed(format!(
            "frame length {len} is shorter than the {HEADER_TAIL}-byte header"
        )));
    }
    if len > HEADER_TAIL + MAX_PAYLOAD {
        return Err(ProtoError::Malformed(format!(
            "declared frame length {len} exceeds the {MAX_PAYLOAD}-byte payload cap"
        )));
    }
    let mut tail = [0u8; HEADER_TAIL];
    r.read_exact(&mut tail)
        .map_err(|_| ProtoError::Malformed("truncated frame: short header".into()))?;
    let version = tail[0];
    if version != PROTO_VERSION {
        return Err(ProtoError::Malformed(format!(
            "unsupported protocol version {version} (expected {PROTO_VERSION})"
        )));
    }
    let frame_type = tail[1];
    let request_id = u32::from_le_bytes(tail[2..6].try_into().unwrap());
    let crc = u32::from_le_bytes(tail[6..10].try_into().unwrap());
    let mut payload = vec![0u8; len - HEADER_TAIL];
    r.read_exact(&mut payload)
        .map_err(|_| ProtoError::Malformed("truncated frame: short payload".into()))?;
    let actual = crc32(&payload);
    if actual != crc {
        return Err(ProtoError::Malformed(format!(
            "payload CRC mismatch: declared {crc:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(Some(Frame { frame_type, request_id, payload }))
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

/// Like `read_exact`, but distinguishes "EOF before any byte" (a clean
/// close) from "EOF mid-buffer" (a truncated frame).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 { ReadOutcome::Eof } else { ReadOutcome::Partial })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Encodes a [`JobRequest`] as a `REQ_OPEN` payload. The former
/// reserved byte at offset 3 is an extension-flags field: bit 0 says an
/// 8-byte trace id trails the spec text. A request without a trace id
/// sets no flags and carries no trailer.
pub fn encode_open(req: &JobRequest) -> Vec<u8> {
    let ext = if req.trace_id != 0 { EXT_TRACE_ID } else { 0 };
    let mut out = Vec::with_capacity(OPEN_FIXED + req.spec.len() + 8);
    out.push(req.kind.id());
    out.push(req.priority);
    out.push(req.profile);
    out.push(ext);
    out.extend_from_slice(&req.threads.to_le_bytes());
    out.extend_from_slice(&req.block_records.to_le_bytes());
    out.extend_from_slice(&req.checkpoint_blocks.to_le_bytes());
    out.extend_from_slice(&req.range_start.to_le_bytes());
    out.extend_from_slice(&req.range_end.to_le_bytes());
    out.extend_from_slice(&(req.spec.len() as u32).to_le_bytes());
    out.extend_from_slice(req.spec.as_bytes());
    if ext & EXT_TRACE_ID != 0 {
        out.extend_from_slice(&req.trace_id.to_le_bytes());
    }
    out
}

/// Decodes a `REQ_OPEN` payload. The embedded spec length is validated
/// against the actual payload size before anything is copied.
pub fn decode_open(payload: &[u8]) -> Result<JobRequest, ProtoError> {
    if payload.len() < OPEN_FIXED {
        return Err(ProtoError::Malformed(format!(
            "REQ_OPEN payload is {} bytes, need at least {OPEN_FIXED}",
            payload.len()
        )));
    }
    let kind = JobKind::from_id(payload[0]).ok_or_else(|| {
        ProtoError::Malformed(format!("unknown job kind {:#04x}", payload[0]))
    })?;
    let ext = payload[3];
    if ext & !EXT_TRACE_ID != 0 {
        return Err(ProtoError::Malformed(format!(
            "unknown REQ_OPEN extension flags {ext:#04x}"
        )));
    }
    let trailer = if ext & EXT_TRACE_ID != 0 { 8 } else { 0 };
    let u32_at = |off: usize| u32::from_le_bytes(payload[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(payload[off..off + 8].try_into().unwrap());
    let spec_len = u32_at(32) as usize;
    if payload.len() - OPEN_FIXED != spec_len + trailer {
        return Err(ProtoError::Malformed(format!(
            "REQ_OPEN declares a {spec_len}-byte spec (+{trailer} extension) but carries {}",
            payload.len() - OPEN_FIXED
        )));
    }
    let spec_end = OPEN_FIXED + spec_len;
    let spec = std::str::from_utf8(&payload[OPEN_FIXED..spec_end])
        .map_err(|_| ProtoError::Malformed("spec text is not UTF-8".into()))?
        .to_string();
    let trace_id = if trailer != 0 { u64_at(spec_end) } else { 0 };
    Ok(JobRequest {
        kind,
        priority: payload[1],
        profile: payload[2],
        threads: u32_at(4),
        block_records: u32_at(8),
        checkpoint_blocks: u32_at(12),
        range_start: u64_at(16),
        range_end: u64_at(24),
        spec,
        trace_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame_type::REQ_DATA, 7, b"hello").unwrap();
        write_frame(&mut buf, frame_type::REQ_END, 7, b"").unwrap();
        let mut r = Cursor::new(buf);
        let a = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(a.frame_type, frame_type::REQ_DATA);
        assert_eq!(a.request_id, 7);
        assert_eq!(a.payload, b"hello");
        let b = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(b.frame_type, frame_type::REQ_END);
        assert!(b.payload.is_empty());
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at a frame boundary");
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame_type::REQ_DATA, 1, b"payload").unwrap();
        for cut in [2, 8, buf.len() - 1] {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(
                matches!(&err, ProtoError::Malformed(m) if m.contains("truncated")),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; HEADER_TAIL]);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("exceeds")), "{err}");
    }

    #[test]
    fn undersized_declared_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 3]);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("shorter")), "{err}");
    }

    #[test]
    fn corrupted_payload_fails_the_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame_type::RSP_DATA, 3, b"result bytes").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("CRC")), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame_type::REQ_END, 1, b"").unwrap();
        buf[4] = 9;
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("version")), "{err}");
    }

    #[test]
    fn job_requests_roundtrip() {
        let mut req = JobRequest::new(JobKind::Extract, "trace fmt\nfield a 8 LV(1)\n");
        req.priority = 5;
        req.profile = 2;
        req.threads = 3;
        req.block_records = 1024;
        req.checkpoint_blocks = 4;
        req.range_start = 100;
        req.range_end = 900;
        let decoded = decode_open(&encode_open(&req)).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn trace_ids_roundtrip_and_zero_keeps_the_legacy_encoding() {
        let mut req = JobRequest::new(JobKind::Compress, "spec text");
        let legacy = encode_open(&req);
        assert_eq!(legacy[3], 0, "no trace id => no extension flags");
        assert_eq!(legacy.len(), OPEN_FIXED + req.spec.len(), "no trailer either");
        assert_eq!(decode_open(&legacy).unwrap(), req);

        req.trace_id = 0xDEAD_BEEF_0042_1111;
        let tagged = encode_open(&req);
        assert_eq!(tagged[3], 1, "trace id sets extension bit 0");
        assert_eq!(tagged.len(), legacy.len() + 8);
        assert_eq!(&tagged[..3], &legacy[..3], "prefix unchanged");
        assert_eq!(&tagged[4..legacy.len()], &legacy[4..], "spec bytes unchanged");
        assert_eq!(decode_open(&tagged).unwrap(), req);
    }

    #[test]
    fn unknown_extension_flags_and_short_trailers_are_rejected() {
        let mut payload = encode_open(&JobRequest::new(JobKind::Compress, "s"));
        payload[3] = 0x82;
        let err = decode_open(&payload).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("extension flags")));

        let mut req = JobRequest::new(JobKind::Compress, "s");
        req.trace_id = 7;
        let mut payload = encode_open(&req);
        payload.truncate(payload.len() - 3); // cut into the trace id
        let err = decode_open(&payload).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("declares")), "{err}");
    }

    #[test]
    fn open_payloads_with_lying_spec_lengths_are_rejected() {
        let mut payload = encode_open(&JobRequest::new(JobKind::Compress, "spec text"));
        payload[32..36].copy_from_slice(&2u32.to_le_bytes());
        let err = decode_open(&payload).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("declares")), "{err}");
        let err = decode_open(&[0u8; 8]).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("at least")), "{err}");
    }

    #[test]
    fn unknown_job_kinds_are_rejected() {
        let mut payload = encode_open(&JobRequest::new(JobKind::Compress, ""));
        payload[0] = 0x77;
        let err = decode_open(&payload).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("unknown job kind")));
    }
}
