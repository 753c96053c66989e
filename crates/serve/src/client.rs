//! A small blocking client for the `encore-serve` protocol — used by the
//! CLI's client subcommands, the integration tests, and the CI smoke job.

use crate::protocol::{self, CheckReply, Request};
use std::io::{self, BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// One connection to a running service; requests are serial per client
/// (open several clients for concurrency).
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
}

fn protocol_error(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

impl Client {
    /// Connect to the service socket.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (no server on the socket).
    pub fn connect(socket: &Path) -> io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Check `targets` (name, config payload) against `app`.  Returns the
    /// per-target report bodies in request order, or [`CheckReply::Busy`]
    /// when the service already has `queue_capacity` checks waiting or is
    /// shutting down.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol-level `error` responses, and
    /// `InvalidInput`, with nothing sent, for a request the service would
    /// reject as malformed (see [`protocol::write_request`]).
    pub fn check(&mut self, app: &str, targets: &[(String, String)]) -> io::Result<CheckReply> {
        let request = Request::Check {
            app: app.to_string(),
            targets: targets.to_vec(),
        };
        protocol::write_request(&mut self.writer, &request)?;
        protocol::read_check_response(&mut self.reader)?.map_err(protocol_error)
    }

    fn lines(&mut self, request: &Request) -> io::Result<Vec<String>> {
        protocol::write_request(&mut self.writer, request)?;
        protocol::read_lines_response(&mut self.reader)?.map_err(protocol_error)
    }

    /// List registered apps: `<name> <kind> <ready|not-ready> reloads=<n>`.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol-level `error` responses.
    pub fn apps(&mut self) -> io::Result<Vec<String>> {
        self.lines(&Request::Apps)
    }

    /// Force a snapshot reload for `app`.
    ///
    /// # Errors
    ///
    /// Transport failures; a failed reload comes back as the server's
    /// `error` message.
    pub fn reload(&mut self, app: &str) -> io::Result<Vec<String>> {
        self.lines(&Request::Reload {
            app: app.to_string(),
        })
    }

    /// Service counters as `<name> <value>` lines.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol-level `error` responses.
    pub fn stats(&mut self) -> io::Result<Vec<String>> {
        self.lines(&Request::Stats)
    }

    /// Ask the service to stop: it admits no more checks, and the checks
    /// already admitted still run.
    ///
    /// # Errors
    ///
    /// Transport failures and protocol-level `error` responses.
    pub fn shutdown(&mut self) -> io::Result<Vec<String>> {
        self.lines(&Request::Shutdown)
    }
}
