//! The line-delimited request/response protocol `encore-serve` speaks
//! over its unix socket.
//!
//! Every request starts with one verb line; `check` requests follow it
//! with length-prefixed target payload frames so config file contents —
//! which are full of newlines — never have to be escaped:
//!
//! ```text
//! request    := check-req | "apps" LF | "reload" SP app LF | "stats" LF
//!             | "shutdown" LF
//! check-req  := "check" SP app SP count LF target*          (count targets)
//! target     := "target" SP name SP len LF raw(len) LF
//!
//! response   := "ok" SP count LF line*        (admin verbs: count lines)
//!             | "ok" SP count LF report*      (check: count report frames)
//!             | "busy" LF                     (check not admitted: too
//!                                             many waiting, or stopping;
//!                                             or any request on a
//!                                             connection past the bound)
//!             | "error" SP message LF
//! report     := "report" SP name SP len LF raw(len) LF
//! ```
//!
//! `app` and `name` are single tokens (no whitespace, no control bytes);
//! `len` counts the raw UTF-8 bytes of the frame body, which is followed
//! by exactly one terminating LF.  A request whose *grammar* is broken
//! cannot be resynchronized mid-stream (the reader no longer knows where
//! the next verb line starts), so servers answer `error` and close the
//! connection; well-formed requests that merely fail (unknown app, failed
//! reload) get an `error` response on a connection that stays usable.
//!
//! The framing carries explicit ceilings — [`MAX_TARGETS`] per check and
//! [`MAX_PAYLOAD`] bytes per target — so a malformed or malicious length
//! prefix cannot make the server allocate unboundedly.  Neither side
//! sizes a buffer from a length prefix: a frame body's buffer grows only
//! with the bytes that arrive.

use std::io::{self, BufRead, Read, Write};

/// Most targets accepted in one `check` request.
pub const MAX_TARGETS: usize = 1024;

/// Largest accepted target payload, in bytes (1 MiB — config files are
/// orders of magnitude smaller).
pub const MAX_PAYLOAD: usize = 1 << 20;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Check `targets` (name, config payload) against the detector
    /// registered under `app`.
    Check {
        app: String,
        targets: Vec<(String, String)>,
    },
    /// List the registered apps and their readiness.
    Apps,
    /// Force a snapshot reload for one app.
    Reload { app: String },
    /// Service counters: requests, queue depth, rejections, ...
    Stats,
    /// Stop the service: no more checks are admitted, and the admitted
    /// ones still run before it exits.
    Shutdown,
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `ok <n>` followed by `n` plain info lines (admin verbs).
    Lines(Vec<String>),
    /// `ok <n>` followed by `n` report frames (the `check` verb); each
    /// body is the deterministic [`Report::render`] output, byte-identical
    /// to a direct `check_fleet` call.
    ///
    /// [`Report::render`]: encore::Report::render
    Reports(Vec<(String, String)>),
    /// The check was not admitted — too many checks are waiting for the
    /// check slot, or the service is stopping — or the connection was
    /// one past those the server serves at once, and was closed unread:
    /// try again later.
    Busy,
    /// The request failed; the message is a single line.
    Error(String),
}

/// Whether `token` is usable as an app or target name on a verb line.
pub fn valid_token(token: &str) -> bool {
    !token.is_empty() && token.chars().all(|c| !c.is_whitespace() && !c.is_control())
}

/// Read one line (through LF), erroring on EOF mid-request.
fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

fn unexpected_eof(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, message)
}

/// Read one `HEADER NAME LEN` frame line and its body: the `target`
/// frames of a check request (`max_len` [`MAX_PAYLOAD`]) and the `report`
/// frames of its response.  `None` when the stream ends before the frame
/// line; `Some(Err(reason))` for a malformed frame.
fn read_frame(
    reader: &mut impl BufRead,
    header: &str,
    max_len: usize,
) -> io::Result<Option<Result<(String, String), String>>> {
    let Some(frame) = read_line(reader)? else {
        return Ok(None);
    };
    let mut words = frame.split_whitespace();
    let (name, len) = match (words.next(), words.next(), words.next(), words.next()) {
        (Some(word), Some(name), Some(len), None) if word == header => (name, len),
        _ => return Ok(Some(Err(format!("bad {header} frame `{frame}`")))),
    };
    if !valid_token(name) {
        return Ok(Some(Err(format!("bad {header} name `{name}`"))));
    }
    let len: usize = match len.parse() {
        Ok(n) if n <= max_len => n,
        Ok(n) => return Ok(Some(Err(format!("{header} payload {n} exceeds {max_len}")))),
        Err(_) => return Ok(Some(Err(format!("bad {header} length in `{frame}`")))),
    };
    Ok(Some(
        read_body(reader, len)?.map(|body| (name.to_string(), body)),
    ))
}

/// Read one length-prefixed frame body plus its terminating LF.
///
/// The buffer grows with the bytes that actually arrive, never with the
/// prefix: a lying `len` ends in an EOF error, not a huge allocation.
fn read_body(reader: &mut impl BufRead, len: usize) -> io::Result<Result<String, String>> {
    let mut raw = Vec::new();
    reader.by_ref().take(len as u64).read_to_end(&mut raw)?;
    if raw.len() < len {
        return Err(unexpected_eof("stream ended inside a frame body"));
    }
    let mut terminator = [0u8; 1];
    reader.read_exact(&mut terminator)?;
    if terminator[0] != b'\n' {
        return Ok(Err("frame body is not followed by LF".to_string()));
    }
    match String::from_utf8(raw) {
        Ok(body) => Ok(Ok(body)),
        Err(_) => Ok(Err("frame body is not UTF-8".to_string())),
    }
}

/// Read one request off the wire.
///
/// Returns `None` at a clean end-of-stream (the client hung up between
/// requests), `Some(Err(reason))` for a malformed request — after which
/// the stream can no longer be resynchronized and must be closed — and
/// `Some(Ok(request))` otherwise.
///
/// # Errors
///
/// Propagates transport I/O failures, including EOF mid-request.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Result<Request, String>>> {
    Ok(read_request_timed(reader)?.map(|(request, _)| request))
}

/// [`read_request`] plus how long reading and parsing the request took.
///
/// The clock starts after the verb line arrives, so idle wire-wait
/// between requests is excluded; what remains is frame parsing plus the
/// time target payload frames take to cross the wire — the `parse` stage
/// of the per-request decomposition.
///
/// # Errors
///
/// Propagates transport I/O failures, including EOF mid-request.
pub fn read_request_timed(
    reader: &mut impl BufRead,
) -> io::Result<Option<(Result<Request, String>, std::time::Duration)>> {
    // Tolerate blank lines between requests (trailing newlines from shells).
    let line = loop {
        match read_line(reader)? {
            None => return Ok(None),
            Some(line) if line.is_empty() => continue,
            Some(line) => break line,
        }
    };
    let started = std::time::Instant::now();
    let parsed = finish_request(reader, &line)?;
    Ok(Some((parsed, started.elapsed())))
}

/// Parse the request whose verb `line` was already read, consuming any
/// follow-on frames from `reader`.
fn finish_request(reader: &mut impl BufRead, line: &str) -> io::Result<Result<Request, String>> {
    let malformed = |reason: String| Ok(Err(reason));
    let mut words = line.split_whitespace();
    let verb = words.next().unwrap_or("");
    let request = match (verb, words.next(), words.next(), words.next()) {
        ("apps", None, ..) => Request::Apps,
        ("stats", None, ..) => Request::Stats,
        ("shutdown", None, ..) => Request::Shutdown,
        ("reload", Some(app), None, _) if valid_token(app) => Request::Reload {
            app: app.to_string(),
        },
        ("check", Some(app), Some(count), None) if valid_token(app) => {
            let count: usize = match count.parse() {
                Ok(n) if n <= MAX_TARGETS => n,
                Ok(n) => return malformed(format!("check count {n} exceeds {MAX_TARGETS}")),
                Err(_) => return malformed(format!("bad check count `{count}`")),
            };
            let mut targets = Vec::with_capacity(count);
            for _ in 0..count {
                match read_frame(reader, "target", MAX_PAYLOAD)? {
                    Some(Ok(target)) => targets.push(target),
                    Some(Err(reason)) => return malformed(reason),
                    None => return Err(unexpected_eof("stream ended inside a check request")),
                }
            }
            Request::Check {
                app: app.to_string(),
                targets,
            }
        }
        _ => return malformed(format!("bad request line `{line}`")),
    };
    Ok(Ok(request))
}

/// Why [`read_request`] would reject `request` as malformed, if it would.
fn why_rejected(request: &Request) -> Option<String> {
    let (app, targets) = match request {
        Request::Check { app, targets } => (app, targets.as_slice()),
        Request::Reload { app } => (app, &[][..]),
        Request::Apps | Request::Stats | Request::Shutdown => return None,
    };
    if !valid_token(app) {
        return Some(format!("bad app name `{app}`"));
    }
    if targets.len() > MAX_TARGETS {
        return Some(format!(
            "check count {} exceeds {MAX_TARGETS}",
            targets.len()
        ));
    }
    targets.iter().find_map(|(name, payload)| {
        if !valid_token(name) {
            Some(format!("bad target name `{name}`"))
        } else if payload.len() > MAX_PAYLOAD {
            Some(format!(
                "target payload {} exceeds {MAX_PAYLOAD}",
                payload.len()
            ))
        } else {
            None
        }
    })
}

/// Render one request onto the wire (the client side of
/// [`read_request`]).
///
/// # Errors
///
/// `InvalidInput`, with nothing written, for a request [`read_request`]
/// would reject: an app or target name that is not a [`valid_token`],
/// more than [`MAX_TARGETS`] targets, or a payload over [`MAX_PAYLOAD`]
/// bytes.  Otherwise propagates transport I/O failures.
pub fn write_request(writer: &mut impl Write, request: &Request) -> io::Result<()> {
    if let Some(reason) = why_rejected(request) {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, reason));
    }
    match request {
        Request::Check { app, targets } => {
            writeln!(writer, "check {app} {}", targets.len())?;
            for (name, payload) in targets {
                writeln!(writer, "target {name} {}", payload.len())?;
                writer.write_all(payload.as_bytes())?;
                writer.write_all(b"\n")?;
            }
        }
        Request::Apps => writer.write_all(b"apps\n")?,
        Request::Reload { app } => writeln!(writer, "reload {app}")?,
        Request::Stats => writer.write_all(b"stats\n")?,
        Request::Shutdown => writer.write_all(b"shutdown\n")?,
    }
    writer.flush()
}

/// Collapse a multi-line failure message into the single line the
/// `error` response grammar allows.
fn one_line(message: &str) -> String {
    message.replace(['\n', '\r'], "; ")
}

/// Render one response onto the wire.
///
/// # Errors
///
/// Propagates transport I/O failures.
pub fn write_response(writer: &mut impl Write, response: &Response) -> io::Result<()> {
    match response {
        Response::Lines(lines) => {
            writeln!(writer, "ok {}", lines.len())?;
            for line in lines {
                debug_assert!(!line.contains('\n'), "info lines are single lines");
                writeln!(writer, "{}", one_line(line))?;
            }
        }
        Response::Reports(reports) => {
            writeln!(writer, "ok {}", reports.len())?;
            for (name, body) in reports {
                writeln!(writer, "report {name} {}", body.len())?;
                writer.write_all(body.as_bytes())?;
                writer.write_all(b"\n")?;
            }
        }
        Response::Busy => writer.write_all(b"busy\n")?,
        Response::Error(message) => writeln!(writer, "error {}", one_line(message))?,
    }
    writer.flush()
}

/// The `ok/busy/error` discriminant of a response, before the caller
/// reads the verb-specific payload.
enum Head {
    Ok(usize),
    Busy,
    Error(String),
}

fn read_head(reader: &mut impl BufRead) -> io::Result<Result<Head, String>> {
    let Some(line) = read_line(reader)? else {
        return Err(unexpected_eof("stream ended before a response"));
    };
    if line == "busy" {
        return Ok(Ok(Head::Busy));
    }
    if let Some(message) = line.strip_prefix("error ").or(match line.as_str() {
        "error" => Some(""),
        _ => None,
    }) {
        return Ok(Ok(Head::Error(message.to_string())));
    }
    if let Some(count) = line.strip_prefix("ok ") {
        return match count.parse::<usize>() {
            Ok(n) => Ok(Ok(Head::Ok(n))),
            Err(_) => Ok(Err(format!("bad response count `{count}`"))),
        };
    }
    Ok(Err(format!("bad response line `{line}`")))
}

/// Read an admin-verb response: `n` plain lines.
///
/// # Errors
///
/// Propagates transport I/O failures; protocol-level failures come back
/// as the inner `Err` (`busy` is reported as the literal message `busy`).
pub fn read_lines_response(reader: &mut impl BufRead) -> io::Result<Result<Vec<String>, String>> {
    match read_head(reader)? {
        Err(reason) => Ok(Err(reason)),
        Ok(Head::Busy) => Ok(Err("busy".to_string())),
        Ok(Head::Error(message)) => Ok(Err(format!("error: {message}"))),
        Ok(Head::Ok(count)) => {
            let mut lines = Vec::with_capacity(count);
            for _ in 0..count {
                match read_line(reader)? {
                    Some(line) => lines.push(line),
                    None => return Err(unexpected_eof("stream ended inside a response")),
                }
            }
            Ok(Ok(lines))
        }
    }
}

/// What a `check` round-trip produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckReply {
    /// Per-target report bodies, in request order.
    Reports(Vec<(String, String)>),
    /// The check was not admitted; nothing was checked.
    Busy,
}

/// Read a `check` response: `n` report frames, or `busy`.
///
/// # Errors
///
/// Propagates transport I/O failures; malformed responses and `error`
/// replies come back as the inner `Err`.
pub fn read_check_response(reader: &mut impl BufRead) -> io::Result<Result<CheckReply, String>> {
    match read_head(reader)? {
        Err(reason) => Ok(Err(reason)),
        Ok(Head::Busy) => Ok(Ok(CheckReply::Busy)),
        Ok(Head::Error(message)) => Ok(Err(format!("error: {message}"))),
        Ok(Head::Ok(count)) => {
            let mut reports = Vec::with_capacity(count);
            for _ in 0..count {
                match read_frame(reader, "report", usize::MAX)? {
                    Some(Ok(report)) => reports.push(report),
                    Some(Err(reason)) => return Ok(Err(reason)),
                    None => return Err(unexpected_eof("stream ended inside a response")),
                }
            }
            Ok(Ok(CheckReply::Reports(reports)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip(request: &Request) -> Request {
        let mut wire = Vec::new();
        write_request(&mut wire, request).expect("write");
        let mut reader = BufReader::new(wire.as_slice());
        read_request(&mut reader)
            .expect("read")
            .expect("not EOF")
            .expect("well-formed")
    }

    #[test]
    fn requests_round_trip_through_the_wire_format() {
        for request in [
            Request::Check {
                app: "mysql".to_string(),
                targets: vec![
                    ("a.cnf".to_string(), "[mysqld]\nport = 3306\n".to_string()),
                    ("b.cnf".to_string(), String::new()),
                ],
            },
            Request::Apps,
            Request::Reload {
                app: "web".to_string(),
            },
            Request::Stats,
            Request::Shutdown,
        ] {
            assert_eq!(round_trip(&request), request);
        }
    }

    #[test]
    fn payloads_with_embedded_frame_like_lines_survive_framing() {
        // Length-prefixed framing must not care what the payload contains.
        let request = Request::Check {
            app: "mysql".to_string(),
            targets: vec![(
                "tricky".to_string(),
                "target fake 999\ncheck mysql 5\nok 3\n".to_string(),
            )],
        };
        assert_eq!(round_trip(&request), request);
    }

    #[test]
    fn eof_between_requests_is_clean_but_mid_request_is_an_error() {
        let mut reader = BufReader::new(&b""[..]);
        assert!(read_request(&mut reader).expect("clean EOF").is_none());

        let mut reader = BufReader::new(&b"check mysql 2\ntarget a 3\nxyz\n"[..]);
        let err = read_request(&mut reader).expect_err("EOF mid-request");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn requests_the_reader_would_reject_are_refused_unwritten() {
        let check = |app: &str, targets: Vec<(String, String)>| Request::Check {
            app: app.to_string(),
            targets,
        };
        let target = |name: &str, len: usize| (name.to_string(), "x".repeat(len));
        for (request, needle) in [
            (check("two words", vec![target("a.cnf", 1)]), "bad app name"),
            (check("", Vec::new()), "bad app name"),
            (
                check("mysql", vec![target("my file.cnf", 1)]),
                "bad target name",
            ),
            (check("mysql", vec![target("", 1)]), "bad target name"),
            (
                check("mysql", vec![target("a.cnf", 0); MAX_TARGETS + 1]),
                "check count",
            ),
            (
                check("mysql", vec![target("a.cnf", MAX_PAYLOAD + 1)]),
                "target payload",
            ),
            (
                Request::Reload {
                    app: "line\nbreak".to_string(),
                },
                "bad app name",
            ),
        ] {
            let mut wire = Vec::new();
            let err = write_request(&mut wire, &request).expect_err("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(needle), "`{err}` lacks `{needle}`");
            assert!(wire.is_empty(), "{} bytes written for {err}", wire.len());
        }
        // The ceilings themselves are accepted, as the reader accepts them.
        for request in [
            check("mysql", vec![target("a.cnf", 0); MAX_TARGETS]),
            check("mysql", vec![target("a.cnf", MAX_PAYLOAD)]),
        ] {
            assert_eq!(round_trip(&request), request);
        }
    }

    #[test]
    fn malformed_requests_are_reported_without_io_errors() {
        for (wire, needle) in [
            (&b"verbless-nonsense\n"[..], "bad request line"),
            (&b"check mysql not-a-number\n"[..], "bad check count"),
            (
                &b"check mysql 1\nbogus frame here\n"[..],
                "bad target frame",
            ),
            (&b"check mysql 9999999\n"[..], "exceeds"),
            (&b"check mysql 1\ntarget a 99999999\n"[..], "exceeds"),
            (&b"check mysql 1\ntarget a x\n"[..], "bad target length"),
            (
                &b"check mysql 1\ntarget a\x01 1\nx\n"[..],
                "bad target name",
            ),
            (&b"sleep 250\n"[..], "bad request line"),
            (&b"reload\n"[..], "bad request line"),
        ] {
            let mut reader = BufReader::new(wire);
            let result = read_request(&mut reader)
                .expect("no I/O error")
                .expect("not EOF");
            let reason = result.expect_err("malformed");
            assert!(reason.contains(needle), "`{reason}` lacks `{needle}`");
        }
    }

    #[test]
    fn responses_round_trip_for_both_shapes() {
        let reports = Response::Reports(vec![
            ("a.cnf".to_string(), "clean\n".to_string()),
            (
                "b.cnf".to_string(),
                "1. [type] x (score=1.0): y\n".to_string(),
            ),
        ]);
        let mut wire = Vec::new();
        write_response(&mut wire, &reports).expect("write");
        let mut reader = BufReader::new(wire.as_slice());
        match read_check_response(&mut reader).expect("read").expect("ok") {
            CheckReply::Reports(got) => assert_eq!(
                got,
                vec![
                    ("a.cnf".to_string(), "clean\n".to_string()),
                    (
                        "b.cnf".to_string(),
                        "1. [type] x (score=1.0): y\n".to_string()
                    ),
                ]
            ),
            CheckReply::Busy => panic!("not busy"),
        }

        let lines = Response::Lines(vec!["requests 3".to_string(), "busy 0".to_string()]);
        let mut wire = Vec::new();
        write_response(&mut wire, &lines).expect("write");
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(
            read_lines_response(&mut reader).expect("read").expect("ok"),
            vec!["requests 3".to_string(), "busy 0".to_string()]
        );

        let mut wire = Vec::new();
        write_response(&mut wire, &Response::Busy).expect("write");
        let mut reader = BufReader::new(wire.as_slice());
        assert_eq!(
            read_check_response(&mut reader).expect("read").expect("ok"),
            CheckReply::Busy
        );

        let mut wire = Vec::new();
        write_response(&mut wire, &Response::Error("multi\nline".to_string())).expect("write");
        let mut reader = BufReader::new(wire.as_slice());
        let reason = read_lines_response(&mut reader)
            .expect("read")
            .expect_err("error response");
        assert_eq!(reason, "error: multi; line");
    }

    #[test]
    fn bad_report_frames_are_errors_not_panics() {
        // A length prefix the body never fills must not size an
        // allocation: it ends in EOF, not an abort.
        for wire in [
            &b"ok 1\nreport a 18446744073709551615\n"[..],
            &b"ok 1\nreport a 1000000000000\nshort\n"[..],
        ] {
            let err = read_check_response(&mut BufReader::new(wire)).expect_err("truncated body");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
        // Extra tokens are rejected, as on the request side.
        let wire = &b"ok 1\nreport a 5 extra\nhello\n"[..];
        let reason = read_check_response(&mut BufReader::new(wire))
            .expect("no I/O error")
            .expect_err("extra token");
        assert!(reason.contains("bad report frame"), "{reason}");
        let wire = &b"ok 1\nreport a x\nhello\n"[..];
        let reason = read_check_response(&mut BufReader::new(wire))
            .expect("no I/O error")
            .expect_err("bad length");
        assert!(reason.contains("bad report length"), "{reason}");
    }

    #[test]
    fn token_validation_rejects_whitespace_and_empty() {
        assert!(valid_token("my.cnf"));
        assert!(valid_token("mysql-8"));
        assert!(!valid_token(""));
        assert!(!valid_token("two words"));
        assert!(!valid_token("tab\tbed"));
    }
}
