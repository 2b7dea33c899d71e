//! A blocking, framed request/response client over TCP.
//!
//! One [`Client`] owns one connection and speaks strict
//! request/response: `request` frames the payload, writes it, and waits
//! for exactly one answer frame under the client's deadline. Protocol
//! layers (the `afd-serve` front door's typed client, the `afd connect`
//! CLI) wrap this with their own encode/decode.

use std::net::SocketAddr;
use std::time::Duration;

use afd_wire::write_frame;

use crate::error::NetError;
use crate::transport::{TcpTransport, Transport};

/// Default per-request deadline, matching afd-stream's worker deadline.
pub const DEFAULT_CLIENT_DEADLINE: Duration = Duration::from_millis(30_000);

/// A blocking framed TCP client with a deadline on every request.
#[derive(Debug)]
pub struct Client {
    transport: TcpTransport,
    deadline: Duration,
}

impl Client {
    /// Dials `addr` (an `IP:PORT` literal).
    ///
    /// # Errors
    /// [`NetError::Connect`] on a malformed address or failed dial.
    pub fn connect(addr: &str, deadline: Duration) -> Result<Self, NetError> {
        Ok(Client {
            transport: TcpTransport::connect(addr)?,
            deadline,
        })
    }

    /// The server address.
    pub fn addr(&self) -> SocketAddr {
        self.transport.addr()
    }

    /// Sends one framed request and waits for the single answer frame.
    ///
    /// # Errors
    /// [`NetError::Write`]/[`NetError::Read`] when the connection
    /// dropped, [`NetError::Timeout`] when no answer arrived in time.
    pub fn request(&mut self, kind: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), NetError> {
        let mut frame = Vec::with_capacity(payload.len() + 32);
        write_frame(kind, payload, &mut frame)
            .map_err(|e| NetError::Decode(format!("request frame: {e}")))?;
        self.transport.send(&frame)?;
        self.transport.recv(self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afd_wire::{read_frame_from, write_frame_to, StreamFrame};
    use std::io::BufReader;
    use std::net::TcpListener;

    #[test]
    fn client_round_trip_under_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            while let Ok(StreamFrame::Frame(kind, payload)) = read_frame_from(&mut reader) {
                write_frame_to(&mut writer, kind, &payload).unwrap();
            }
        });
        let mut client = Client::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        let (kind, payload) = client.request(42, b"ping").unwrap();
        assert_eq!((kind, payload.as_slice()), (42, b"ping".as_slice()));
        drop(client);
        server.join().unwrap();
    }
}
