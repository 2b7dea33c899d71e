//! The transport-level error type shared by every [`crate::Transport`].
//!
//! `NetError` is deliberately protocol-free: it describes what happened
//! to the *byte channel* (could not spawn/connect, write failed, read
//! failed, deadline expired, a frame failed its checksum), never what
//! the bytes meant. Callers that speak a protocol over a transport
//! (afd-stream's shard coordinator, afd-serve's front door) map these
//! into their own typed errors.

use std::fmt;

/// What went wrong on a transport, by channel-lifecycle stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A child process could not be launched.
    Spawn(String),
    /// A socket address could not be parsed, or a connection (including
    /// a reconnect attempt) could not be established.
    Connect(String),
    /// Writing a frame to the peer failed (pipe/socket closed).
    Write(String),
    /// Reading from the peer failed or it closed the channel.
    Read(String),
    /// The peer did not answer within the request deadline.
    Timeout {
        /// The expired deadline, in milliseconds.
        millis: u64,
    },
    /// The peer's bytes were not a valid checksummed frame.
    Decode(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Spawn(m) => write!(f, "spawn failed: {m}"),
            NetError::Connect(m) => write!(f, "connect failed: {m}"),
            NetError::Write(m) => write!(f, "write failed: {m}"),
            NetError::Read(m) => write!(f, "read failed: {m}"),
            NetError::Timeout { millis } => {
                write!(f, "no response within the {millis} ms deadline")
            }
            NetError::Decode(m) => write!(f, "frame decode failed: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_stage() {
        assert!(NetError::Spawn("x".into()).to_string().contains("spawn"));
        assert!(NetError::Connect("x".into())
            .to_string()
            .contains("connect"));
        assert!(NetError::Timeout { millis: 250 }
            .to_string()
            .contains("250 ms"));
    }
}
