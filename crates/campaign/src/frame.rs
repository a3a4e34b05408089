//! The one frame format: every byte stream this crate writes — the
//! supervisor ⇄ subprocess pipe, every TCP connection to or from
//! `cdsspec-netd`, and each journal record — is a sequence of frames:
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes of UTF-8]
//! ```
//!
//! The layout is the journal's original on-disk record format, so
//! journals written before the pipe and the socket adopted it replay
//! unchanged.
//!
//! A frame that fails *any* check — truncated header, truncated
//! payload, a length over [`MAX_FRAME`], CRC mismatch, non-UTF-8 — is
//! [`FrameError::Corrupt`]. There is one stance toward it everywhere:
//! the stream is dead from that byte on. A link that carried it is
//! treated exactly like a SIGKILLed worker (its lease requeues), and a
//! journal truncates its tail there. Corruption can cost work, never
//! misparse into a different message.

use crate::hash::crc32;
use std::io::{Read, Write};

/// Hard cap on one frame's payload. No campaign record or protocol
/// message approaches it (results with large frontiers run to
/// kilobytes); honoring a garbage length word beyond it would mean a
/// multi-gigabyte read.
pub const MAX_FRAME: usize = 64 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly between frames.
    Closed,
    /// The stream ended mid-frame or carried a frame that fails
    /// validation (truncation, oversize, CRC mismatch, bad UTF-8).
    /// Indistinguishable from peer death — treated exactly like it.
    Corrupt(String),
    /// The stream itself failed outside a frame (a read error before a
    /// frame began, or a failed reply write in [`crate::worker::serve`]).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "stream closed"),
            FrameError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Encode `payload` as one frame: header, then the bytes.
pub fn frame_bytes(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(8 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(bytes).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Write one frame with a single `write_all`, then flush.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    w.write_all(&frame_bytes(payload))?;
    w.flush()
}

/// Read one frame. Distinguishes a clean end *between* frames
/// ([`FrameError::Closed`]) from every flavor of mid-frame death or
/// corruption ([`FrameError::Corrupt`]).
pub fn read_frame(r: &mut impl Read) -> Result<String, FrameError> {
    let mut header = [0u8; 8];
    // First byte by hand: EOF here is a clean close, EOF anywhere later
    // is a truncated frame.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    r.read_exact(&mut header[1..])
        .map_err(|_| FrameError::Corrupt("truncated header".into()))?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let want_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(FrameError::Corrupt(format!(
            "frame length {len} exceeds cap {MAX_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|_| FrameError::Corrupt("truncated payload".into()))?;
    let got_crc = crc32(&payload);
    if got_crc != want_crc {
        return Err(FrameError::Corrupt(format!(
            "crc mismatch: header {want_crc:#010x}, payload {got_crc:#010x}"
        )));
    }
    String::from_utf8(payload).map_err(|_| FrameError::Corrupt("payload is not UTF-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_over_a_cursor() {
        for payload in ["", "x", "{\"msg\":\"exit\"}", "π — non-ascii"] {
            let mut cursor = Cursor::new(frame_bytes(payload));
            assert_eq!(read_frame(&mut cursor).unwrap(), payload);
            assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
        }
    }

    #[test]
    fn header_is_little_endian_length_then_crc() {
        let bytes = frame_bytes("123456789");
        assert_eq!(bytes[0..4], [9, 0, 0, 0]);
        // The canonical CRC-32/IEEE check value, 0xCBF43926.
        assert_eq!(bytes[4..8], [0x26, 0x39, 0xF4, 0xCB]);
        assert_eq!(&bytes[8..], b"123456789");
    }

    #[test]
    fn corrupt_frames_are_rejected_not_misparsed() {
        let corrupt = |bytes: Vec<u8>| {
            matches!(
                read_frame(&mut Cursor::new(bytes)),
                Err(FrameError::Corrupt(_))
            )
        };
        // A flipped payload bit: the CRC catches it.
        let mut bytes = frame_bytes("{\"msg\":\"heartbeat\",\"task\":4}");
        *bytes.last_mut().unwrap() ^= 0x01;
        assert!(corrupt(bytes));
        // Truncated payload.
        let mut bytes = frame_bytes("hello");
        bytes.truncate(bytes.len() - 2);
        assert!(corrupt(bytes));
        // Truncated header.
        assert!(corrupt(vec![0u8; 5]));
        // Oversized length word.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(corrupt(bytes));
        // A length of exactly the cap is legal (and merely truncated here).
        let mut bytes = (MAX_FRAME as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 12]);
        match read_frame(&mut Cursor::new(bytes)) {
            Err(FrameError::Corrupt(why)) => assert_eq!(why, "truncated payload"),
            other => panic!("expected a truncated payload, got {other:?}"),
        }
    }
}
