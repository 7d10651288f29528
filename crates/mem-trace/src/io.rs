//! Compact binary (de)serialization of traces, so generated workloads can
//! be saved and replayed without regeneration (the paper's methodology
//! gathers traces once and reuses them across every cache configuration).
//!
//! Format (`CSRT`, version 1, little-endian):
//!
//! ```text
//! magic  b"CSRT"      4 bytes
//! ver    u8           = 1
//! procs  u32
//! count  u64
//! count x { proc u16, op u8 (0 read / 1 write), addr u64 }
//! ```

use crate::record::{ProcId, Trace, TraceRecord};
use cache_sim::{AccessType, Addr};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"CSRT";
const VERSION: u8 = 1;
/// Processor ids are written as `u16`.
const MAX_PROCS: usize = 1 << 16;

/// Errors produced when decoding a trace.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a CSRT trace or has an unsupported version.
    Format(String),
}

impl std::fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::Format(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            ReadTraceError::Format(_) => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

/// Writes `trace` to `w` in CSRT format. A `&mut` reference may be passed
/// as the writer.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`], before writing any byte, for a
/// trace of more than 65,536 processors, whose ids the format cannot hold;
/// otherwise propagates any underlying I/O error.
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    if trace.num_procs() > MAX_PROCS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "{} processors: CSRT holds at most {MAX_PROCS}",
                trace.num_procs()
            ),
        ));
    }
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&(trace.num_procs() as u32).to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(trace.len().min(1 << 16) * 11);
    for rec in trace {
        buf.extend_from_slice(&(rec.proc.0 as u16).to_le_bytes());
        buf.push(match rec.op {
            AccessType::Read => 0,
            AccessType::Write => 1,
        });
        buf.extend_from_slice(&rec.addr.0.to_le_bytes());
        if buf.len() >= 1 << 20 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Reads a CSRT trace from `r`. A `&mut` reference may be passed as the
/// reader.
///
/// # Errors
///
/// Returns [`ReadTraceError::Format`] for a bad magic, version, or
/// truncated/invalid payload, and [`ReadTraceError::Io`] for I/O failures.
pub fn read_trace<R: Read>(mut r: R) -> Result<Trace, ReadTraceError> {
    let mut head = [0u8; 4 + 1 + 4 + 8];
    r.read_exact(&mut head)?;
    if &head[0..4] != MAGIC {
        return Err(ReadTraceError::Format("bad magic".into()));
    }
    if head[4] != VERSION {
        return Err(ReadTraceError::Format(format!(
            "unsupported version {}",
            head[4]
        )));
    }
    let procs = u32::from_le_bytes(head[5..9].try_into().expect("fixed slice")) as usize;
    let count = u64::from_le_bytes(head[9..17].try_into().expect("fixed slice"));
    if procs == 0 {
        return Err(ReadTraceError::Format("zero processors".into()));
    }
    let mut trace = Trace::new(procs);
    let mut rec = [0u8; 11];
    for i in 0..count {
        r.read_exact(&mut rec)
            .map_err(|e| ReadTraceError::Format(format!("truncated at record {i}: {e}")))?;
        let proc = u16::from_le_bytes(rec[0..2].try_into().expect("fixed slice")) as usize;
        if proc >= procs {
            return Err(ReadTraceError::Format(format!(
                "record {i}: processor {proc} out of range"
            )));
        }
        let op = match rec[2] {
            0 => AccessType::Read,
            1 => AccessType::Write,
            other => {
                return Err(ReadTraceError::Format(format!(
                    "record {i}: bad op byte {other}"
                )))
            }
        };
        let addr = Addr(u64::from_le_bytes(
            rec[3..11].try_into().expect("fixed slice"),
        ));
        trace.push(TraceRecord {
            proc: ProcId(proc),
            addr,
            op,
        });
    }
    Ok(trace)
}

/// Writes `trace` to the file at `path`.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_trace<P: AsRef<std::path::Path>>(trace: &Trace, path: P) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_trace(trace, io::BufWriter::new(f))
}

/// Reads a trace from the file at `path`.
///
/// # Errors
///
/// See [`read_trace`].
pub fn load_trace<P: AsRef<std::path::Path>>(path: P) -> Result<Trace, ReadTraceError> {
    let f = std::fs::File::open(path).map_err(ReadTraceError::Io)?;
    read_trace(io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::synthetic::UniformRandom;
    use crate::Workload;

    #[test]
    fn roundtrip_preserves_every_record() {
        let w = UniformRandom {
            refs: 5000,
            blocks: 512,
            procs: 3,
            write_fraction: 0.4,
        };
        let t = w.generate(9);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write to Vec");
        let back = read_trace(buf.as_slice()).expect("read back");
        assert_eq!(back.num_procs(), t.num_procs());
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_trace(&b"NOPE\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"[..]);
        assert!(matches!(err, Err(ReadTraceError::Format(_))));
    }

    #[test]
    fn rejects_truncated_payload() {
        let w = UniformRandom {
            refs: 10,
            blocks: 8,
            procs: 1,
            write_fraction: 0.0,
        };
        let t = w.generate(1);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).expect("write");
        buf.truncate(buf.len() - 5);
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(ReadTraceError::Format(_))
        ));
    }

    #[test]
    fn rejects_out_of_range_processor() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CSRT");
        buf.push(1);
        buf.extend_from_slice(&1u32.to_le_bytes()); // 1 processor
        buf.extend_from_slice(&1u64.to_le_bytes()); // 1 record
        buf.extend_from_slice(&5u16.to_le_bytes()); // proc 5: out of range
        buf.push(0);
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_trace(buf.as_slice()),
            Err(ReadTraceError::Format(_))
        ));
    }

    #[test]
    fn refuses_processor_ids_beyond_u16() {
        let mut t = Trace::new(70_000);
        t.push(TraceRecord::read(ProcId(69_999), Addr(0)));
        let mut buf = Vec::new();
        let err = write_trace(&t, &mut buf).expect_err("ids past u16");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing is written");
        // The largest trace the format holds still round-trips.
        let mut t = Trace::new(MAX_PROCS);
        t.push(TraceRecord::read(ProcId(MAX_PROCS - 1), Addr(0)));
        write_trace(&t, &mut buf).expect("ids fit u16");
        assert_eq!(
            read_trace(buf.as_slice()).expect("read back").records(),
            t.records()
        );
    }

    #[test]
    fn file_helpers_roundtrip() {
        let dir = std::env::temp_dir().join("csrt_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("t.csrt");
        let w = UniformRandom {
            refs: 100,
            blocks: 16,
            procs: 2,
            write_fraction: 0.5,
        };
        let t = w.generate(4);
        save_trace(&t, &path).expect("save");
        let back = load_trace(&path).expect("load");
        assert_eq!(back.records(), t.records());
        std::fs::remove_file(&path).ok();
    }
}
