//! The append-only campaign journal.
//!
//! Every durable campaign event is one record appended to a single file
//! and fsync'd before the campaign acts on it:
//!
//! ```text
//! cdsspec-journal v1\n                              (magic header, once)
//! [len: u32 LE][crc32: u32 LE][payload: len bytes]  (per record)
//! ```
//!
//! Each record is one [`crate::frame`] frame — the codec the worker
//! links use too — whose payload is a JSON object (see [`crate::json`]).
//! On open, the journal replays the records with [`read_frame`]; the
//! first frame that fails to read — truncated, over the cap, or failing
//! its CRC: the fingerprint of a crash mid-append — ends the replay, and
//! the file is **truncated back to the last valid record** so subsequent
//! appends continue from a clean state. A bad
//! *header* is not recoverable (the file is not ours) and is reported as
//! a typed error instead.
//!
//! Compaction ([`Journal::compact`]) rewrites a record set atomically via
//! a temp file + rename, for retiring a finished campaign's history.

use crate::error::ParseError;
use crate::frame::{frame_bytes, read_frame, write_frame};
use crate::fsio::write_atomic;
use crate::json::Json;
use std::fs::{File, OpenOptions};
use std::io::{Cursor, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic first line of every journal file.
pub const MAGIC: &str = "cdsspec-journal v1\n";

/// What [`Journal::open`] recovered from an existing file.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every valid record, in append order.
    pub records: Vec<Json>,
    /// Bytes of truncated/corrupted tail that were discarded (0 for a
    /// clean file).
    pub dropped_bytes: u64,
}

/// An open journal, positioned for appending.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Open (or create) the journal at `path`, replaying and validating
    /// its contents. A corrupted or truncated tail is cut back to the
    /// last valid record; a foreign or unversioned header is a
    /// [`ParseError::BadMagic`].
    pub fn open(path: &Path) -> Result<(Journal, Recovery), ParseError> {
        let io_err = |error: std::io::Error| ParseError::Io {
            path: path.to_path_buf(),
            error,
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io_err)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io_err)?;

        if bytes.is_empty() {
            file.write_all(MAGIC.as_bytes()).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
            return Ok((
                Journal {
                    file,
                    path: path.to_path_buf(),
                },
                Recovery::default(),
            ));
        }
        if !bytes.starts_with(MAGIC.as_bytes()) {
            let found: String = String::from_utf8_lossy(&bytes[..bytes.len().min(24)]).into_owned();
            return Err(ParseError::BadMagic {
                path: path.to_path_buf(),
                found,
                expected: "cdsspec-journal v1",
            });
        }

        let mut recovery = Recovery::default();
        let mut cursor = Cursor::new(&bytes);
        cursor.set_position(MAGIC.len() as u64);
        let mut valid_end = MAGIC.len();
        // Any error ends the replay: a clean close at a record boundary
        // leaves `valid_end` at the file's end; anything else is a torn
        // or corrupted tail, cut off below.
        while let Ok(payload) = read_frame(&mut cursor) {
            let Ok(record) = Json::parse(&payload) else {
                break; // CRC passed but payload is not our JSON: corrupt
            };
            recovery.records.push(record);
            valid_end = cursor.position() as usize;
        }
        if valid_end < bytes.len() {
            recovery.dropped_bytes = (bytes.len() - valid_end) as u64;
            file.set_len(valid_end as u64).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        file.seek(SeekFrom::End(0)).map_err(io_err)?;
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            recovery,
        ))
    }

    /// Append one record and fsync it. When this returns, the record
    /// survives a crash of this process and of the machine.
    pub fn append(&mut self, record: &Json) -> Result<(), ParseError> {
        let io_err = |error: std::io::Error| ParseError::Io {
            path: self.path.clone(),
            error,
        };
        write_frame(&mut self.file, &record.encode()).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically rewrite `path` to contain exactly `records` (temp file
    /// in the same directory, fsync, rename). Used to retire history the
    /// campaign no longer needs.
    pub fn compact(path: &Path, records: &[Json]) -> Result<(), ParseError> {
        let mut bytes = Vec::from(MAGIC.as_bytes());
        for record in records {
            bytes.extend_from_slice(&frame_bytes(&record.encode()));
        }
        write_atomic(path, &bytes).map_err(|error| ParseError::Io {
            path: path.to_path_buf(),
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cdsspec-journal-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.bin")
    }

    fn rec(n: u64) -> Json {
        Json::obj(vec![("rec", Json::str("test")), ("n", Json::num(n))])
    }

    #[test]
    fn append_and_reopen() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, recovery) = Journal::open(&path).unwrap();
            assert!(recovery.records.is_empty());
            j.append(&rec(1)).unwrap();
            j.append(&rec(2)).unwrap();
        }
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1), rec(2)]);
        assert_eq!(recovery.dropped_bytes, 0);
    }

    /// A journal spelled out byte by byte in the on-disk format written
    /// before the wire shared its codec: magic line, then per record a
    /// literal little-endian `[len][crc32]` header and the payload.
    #[test]
    fn hand_written_journal_replays_and_its_torn_tail_is_cut() {
        let path = temp_path("literal");
        let mut bytes = MAGIC.as_bytes().to_vec();
        bytes.extend_from_slice(&[7, 0, 0, 0, 0x7e, 0x3b, 0x4b, 0xd4]);
        bytes.extend_from_slice(b"{\"n\":1}");
        bytes.extend_from_slice(&[7, 0, 0, 0, 0xbd, 0x68, 0x66, 0xff]);
        bytes.extend_from_slice(b"{\"n\":2}");
        let valid_len = bytes.len();
        // A third record torn mid-payload by a crash.
        bytes.extend_from_slice(&[7, 0, 0, 0, 0xfc, 0x59, 0x7d, 0xe6]);
        bytes.extend_from_slice(b"{\"n\"");
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovery) = Journal::open(&path).unwrap();
        let n = |k: u64| Json::obj(vec![("n", Json::num(k))]);
        assert_eq!(recovery.records, vec![n(1), n(2)]);
        assert_eq!(recovery.dropped_bytes, 12);
        assert_eq!(std::fs::read(&path).unwrap(), bytes[..valid_len]);
    }

    #[test]
    fn truncated_tail_recovers_to_last_valid_record() {
        let path = temp_path("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&rec(1)).unwrap();
            j.append(&rec(2)).unwrap();
        }
        // Chop bytes off the last frame, simulating a crash mid-append.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let (mut j, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1)], "partial record dropped");
        assert!(recovery.dropped_bytes > 0);
        // The file was physically truncated; appending continues cleanly.
        j.append(&rec(3)).unwrap();
        drop(j);
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1), rec(3)]);
        assert_eq!(recovery.dropped_bytes, 0);
    }

    #[test]
    fn corrupted_payload_byte_is_caught_by_crc() {
        let path = temp_path("bitrot");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&rec(1)).unwrap();
            j.append(&rec(2)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit in the *second* record's payload (last byte of file).
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1)]);
        assert!(recovery.dropped_bytes > 0);
    }

    #[test]
    fn garbage_length_prefix_is_tail_corruption_not_allocation() {
        let path = temp_path("hugelen");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(&rec(1)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        bytes.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(1)]);
    }

    #[test]
    fn foreign_file_is_a_typed_error() {
        let path = temp_path("foreign");
        std::fs::write(&path, "not a journal at all\n").unwrap();
        match Journal::open(&path) {
            Err(ParseError::BadMagic { found, .. }) => {
                assert!(found.starts_with("not a journal"));
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }
        let rendered = Journal::open(&path).unwrap_err().to_string();
        assert!(rendered.contains("delete the file"), "{rendered}");
    }

    #[test]
    fn compact_rewrites_atomically() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            for n in 0..10 {
                j.append(&rec(n)).unwrap();
            }
        }
        Journal::compact(&path, &[rec(42)]).unwrap();
        let (_, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovery.records, vec![rec(42)]);
    }
}
