//! Deterministic chaos clients for server robustness tests.
//!
//! Every helper here models one hostile client the serve layer must
//! survive (DESIGN.md §12): a slowloris trickling bytes forever, a client
//! that hangs up mid-request, and generators for garbage / mutated
//! protocol lines. They are plain `std::net` blocking calls driven by the
//! workspace [`Rng`], so a chaos run is replayable from
//! its seed — a failing fuzz case is one `(seed, iteration)` pair away
//! from a unit test.
//!
//! Like the rest of the crate this module depends on `std` alone; the
//! serve crate's chaos suite and the bench soak driver both build on it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::rng::Rng;

/// How a [`slow_sender`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowSendOutcome {
    /// All bytes were trickled out and the connection was still up.
    Sent,
    /// The server closed (or reset) the connection mid-trickle — e.g. the
    /// idle reaper or the request-line byte cap fired.
    ServerClosed,
}

/// Slowloris: connect and trickle `payload` one byte at a time, sleeping
/// `per_byte` between writes and never completing a line. Returns how far
/// it got and why it stopped. A hardened server must bound what this
/// client can pin (reader memory via the line cap, thread lifetime via the
/// idle reaper) — the assertion belongs to the caller.
pub fn slow_sender(
    addr: &str,
    payload: &[u8],
    per_byte: Duration,
) -> std::io::Result<(usize, SlowSendOutcome)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    for (i, byte) in payload.iter().enumerate() {
        if let Err(e) = stream.write_all(std::slice::from_ref(byte)) {
            return if is_disconnect(&e) {
                Ok((i, SlowSendOutcome::ServerClosed))
            } else {
                Err(e)
            };
        }
        std::thread::sleep(per_byte);
    }
    Ok((payload.len(), SlowSendOutcome::Sent))
}

/// Mid-request disconnect: connect, send a request line *without* its
/// terminating newline, and hang up immediately. The server must treat the
/// torn request as a closed connection — no response owed, no thread or
/// queue slot leaked.
pub fn drop_mid_request(addr: &str, partial: &str) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(partial.as_bytes())?;
    // Dropping the stream here closes the socket with the line unfinished.
    Ok(())
}

/// Hold a connection open, fully silent, for `hold`; returns `true` if the
/// server had already hung up by the end (idle reaping observed via EOF).
pub fn silent_camper(addr: &str, hold: Duration) -> std::io::Result<bool> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(hold))?;
    let mut probe = [0u8; 1];
    // The server sends nothing unprompted, so a clean 0-byte read within
    // the hold window can only mean the reaper closed us.
    match (&stream).read(&mut probe) {
        Ok(0) => Ok(true),
        Ok(_) => Ok(false),
        Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
            Ok(false)
        }
        Err(e) if is_disconnect_kind(e.kind()) => Ok(true),
        Err(e) => Err(e),
    }
}

/// One PRNG garbage line: printable-biased random bytes with no `\n` (the
/// caller owns framing) and at least one non-whitespace byte, so a server
/// that skips blank lines still owes exactly one response.
pub fn garbage_line(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.range_usize(1, max_len.max(2));
    let mut line = String::with_capacity(len);
    for _ in 0..len {
        let c = match rng.index(10) {
            // Mostly JSON-ish punctuation and ASCII so the parser gets
            // deep before failing...
            0..=5 => (rng.range_u64(0x20, 0x7e) as u8) as char,
            6 => *['{', '}', '[', ']', '"', ':', ',']
                .get(rng.index(7))
                .unwrap(),
            // ...with some multi-byte UTF-8 and control bytes mixed in.
            7 => '\u{00e9}',
            8 => '\u{2603}',
            _ => '\u{0001}',
        };
        line.push(c);
    }
    if line.bytes().all(|b| b.is_ascii_whitespace()) {
        line.push('x');
    }
    line
}

/// Mutate one well-formed protocol line into a near-miss: truncate it,
/// flip a byte, splice random bytes in, or double a span. The result never
/// contains `\n` and never becomes whitespace-only.
pub fn mutate_line(rng: &mut Rng, line: &str) -> String {
    let mut bytes: Vec<u8> = line.bytes().collect();
    if bytes.is_empty() {
        return "x".into();
    }
    match rng.index(4) {
        0 => {
            // Truncate: simulate a writer that died mid-line.
            let keep = rng.range_usize(1, bytes.len().max(2));
            bytes.truncate(keep);
        }
        1 => {
            // Flip one byte to a random printable.
            let at = rng.index(bytes.len());
            bytes[at] = rng.range_u64(0x20, 0x7e) as u8;
        }
        2 => {
            // Splice a short random run into the middle.
            let at = rng.index(bytes.len() + 1);
            let n = rng.range_usize(1, 8);
            let run: Vec<u8> = (0..n).map(|_| rng.range_u64(0x20, 0x7e) as u8).collect();
            bytes.splice(at..at, run);
        }
        _ => {
            // Duplicate a span: `{"op":"op":"predict"...`.
            let a = rng.index(bytes.len());
            let b = rng.range_usize(a, bytes.len());
            let span: Vec<u8> = bytes[a..b.max(a + 1).min(bytes.len())].to_vec();
            bytes.splice(a..a, span);
        }
    }
    bytes.retain(|&b| b != b'\n');
    let out = String::from_utf8_lossy(&bytes).into_owned();
    if out.bytes().all(|b| b.is_ascii_whitespace()) {
        "x".into()
    } else {
        out
    }
}

fn is_disconnect(e: &std::io::Error) -> bool {
    is_disconnect_kind(e.kind())
}

fn is_disconnect_kind(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotConnected
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn garbage_lines_are_framed_and_nonblank() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..500 {
            let line = garbage_line(&mut rng, 64);
            assert!(!line.contains('\n'));
            assert!(line.bytes().any(|b| !b.is_ascii_whitespace()));
        }
    }

    #[test]
    fn mutations_are_framed_and_nonblank() {
        let mut rng = Rng::seed_from_u64(8);
        let base = r#"{"op":"predict","node":3}"#;
        for _ in 0..500 {
            let line = mutate_line(&mut rng, base);
            assert!(!line.contains('\n'));
            assert!(line.bytes().any(|b| !b.is_ascii_whitespace()));
        }
    }

    #[test]
    fn mutations_are_deterministic_per_seed() {
        let base = r#"{"op":"top_k","node":1,"k":2}"#;
        let run = |seed: u64| -> Vec<String> {
            let mut rng = Rng::seed_from_u64(seed);
            (0..64).map(|_| mutate_line(&mut rng, base)).collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
