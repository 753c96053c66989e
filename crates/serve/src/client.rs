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
    /// when the service already has `queue_capacity` checks waiting, is
    /// shutting down, or already serves as many connections as it may.
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
        self.round_trip(&request, protocol::read_check_response)
    }

    fn lines(&mut self, request: &Request) -> io::Result<Vec<String>> {
        self.round_trip(request, protocol::read_lines_response)
    }

    /// Send `request` and read its response with `read`.
    ///
    /// A server already serving as many connections as it may answers one
    /// more `busy` and closes it unread, so the send can fail with a broken
    /// pipe while that answer waits to be read: then the answer is read
    /// anyway, and the send's error is returned only if there is none.
    fn round_trip<T>(
        &mut self,
        request: &Request,
        read: fn(&mut BufReader<UnixStream>) -> io::Result<Result<T, String>>,
    ) -> io::Result<T> {
        match protocol::write_request(&mut self.writer, request) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => read(&mut self.reader)
                .map_err(|_| e)?
                .map_err(protocol_error),
            sent => {
                sent?;
                read(&mut self.reader)?.map_err(protocol_error)
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;

    #[test]
    fn a_refusal_closed_before_the_request_is_sent_still_reads_busy() {
        let (ours, mut theirs) = UnixStream::pair().expect("socket pair");
        protocol::write_response(&mut theirs, &Response::Busy).expect("answer busy");
        drop(theirs);
        let mut client = Client {
            reader: BufReader::new(ours.try_clone().expect("clone")),
            writer: BufWriter::new(ours),
        };
        let targets = [("a.cnf".to_string(), "[mysqld]\n".to_string())];
        let reply = client.check("mysql", &targets);
        assert_eq!(reply.expect("busy, not a broken pipe"), CheckReply::Busy);
    }
}
