//! A minimal blocking HTTP/1.1 client over one keep-alive connection.
//!
//! Just enough protocol for this workspace's own daemon: `GET`/`POST`
//! with `Content-Length` framing, no chunked encoding, no redirects, no
//! TLS. The reference benchmark's serve workload (`perfbench`,
//! `serve-zipf-churn`) sends its quiet slices and churn rebuilds through
//! it, and the integration tests use it to talk to an in-process
//! [`Server`](crate::server::Server) — both stay std-only, matching the
//! server side.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body the client will buffer (matches the server's
/// request-side cap).
const MAX_RESPONSE_BYTES: usize = 8 * 1024 * 1024;

/// One keep-alive connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
}

/// A parsed response: status code and body bytes.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// The HTTP status code (200, 400, …).
    pub status: u16,
    /// The response body (UTF-8 JSON for every daemon endpoint).
    pub body: String,
}

impl ClientResponse {
    /// Extracts the (first) value of a top-level `"key":value` field from
    /// the JSON body without a full parse — enough for smoke assertions.
    pub fn field(&self, key: &str) -> Option<&str> {
        let needle = format!("\"{key}\":");
        let start = self.body.find(&needle)? + needle.len();
        let rest = &self.body[start..];
        let end = rest
            .char_indices()
            .scan(0usize, |depth, (i, c)| {
                match c {
                    '{' | '[' => *depth += 1,
                    '}' | ']' if *depth == 0 => return Some(Some(i)),
                    '}' | ']' => *depth -= 1,
                    ',' if *depth == 0 => return Some(Some(i)),
                    _ => {}
                }
                Some(None)
            })
            .flatten()
            .next()
            .unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// Why a request failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, writing, or reading failed.
    Io(std::io::Error),
    /// The server's response didn't parse as HTTP/1.1.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::BadResponse(msg) => write!(f, "bad response: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Opens a keep-alive connection to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Issues a `GET` and reads the full response.
    pub fn get(&mut self, path: &str) -> Result<ClientResponse, ClientError> {
        self.request("GET", path, None)
    }

    /// Issues a `POST` with a JSON body and reads the full response.
    pub fn post(&mut self, path: &str, body: &str) -> Result<ClientResponse, ClientError> {
        self.request("POST", path, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<ClientResponse, ClientError> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: nas-serve\r\n");
        if let Some(b) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                b.len()
            ));
        }
        head.push_str("\r\n");
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        if let Some(b) = body {
            stream.write_all(b.as_bytes())?;
        }
        stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<ClientResponse, ClientError> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(ClientError::BadResponse(
                "connection closed before status line".to_string(),
            ));
        }
        let status: u16 = line
            .strip_prefix("HTTP/1.1 ")
            .or_else(|| line.strip_prefix("HTTP/1.0 "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| ClientError::BadResponse(format!("bad status line {line:?}")))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| ClientError::BadResponse("bad content-length".to_string()))?;
                }
            }
        }
        if content_length > MAX_RESPONSE_BYTES {
            return Err(ClientError::BadResponse(format!(
                "response body of {content_length} bytes exceeds the client cap"
            )));
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| ClientError::BadResponse("body is not UTF-8".to_string()))?;
        Ok(ClientResponse { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extracts_scalars_without_a_full_parse() {
        let resp = ClientResponse {
            status: 200,
            body: r#"{"epoch":3,"mode":"both","stretch":{"a":1.5},"last":null}"#.to_string(),
        };
        assert_eq!(resp.field("epoch"), Some("3"));
        assert_eq!(resp.field("mode"), Some("\"both\""));
        assert_eq!(resp.field("last"), Some("null"));
        assert_eq!(resp.field("missing"), None);
    }
}
