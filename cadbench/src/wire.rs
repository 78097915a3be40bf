//! One client connection, untraced or traced.
//!
//! Untraced calls go through [`Client::request`] exactly as any v2 client
//! would. Traced calls drive the same frames through
//! [`Client::send_raw`]/[`Client::recv_raw`] so the benchmark's own spans
//! separate client-side encode, socket round trip and decode, and keep a
//! sample of the frames for the codec replay.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use ccdb_core::{Surrogate, Value};
use ccdb_server::proto::decode_response_v2;
use ccdb_server::{Client, ClientError, ClientResult, Request};
use serde_json::Value as Json;

/// Frames kept per connection and direction for the codec replay.
const FRAME_SAMPLE: usize = 2048;
/// Overloaded replies retried before an operation counts as failed.
const MAX_OVERLOAD_RETRIES: u32 = 50;

/// Which end-to-end latency series an operation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// `attr`.
    Read,
    /// `set_attr`, `create`, `bind`.
    Write,
    /// `begin`, `commit`.
    Control,
}

/// Spans and frames recorded by a traced connection.
#[derive(Default)]
pub struct Spans {
    /// Client-side `Request::encode_v2`, ns.
    pub encode_ns: Vec<f64>,
    /// `send_raw` + `recv_raw`, µs.
    pub rtt_us: Vec<f64>,
    /// Client-side `decode_response_v2`, ns.
    pub decode_ns: Vec<f64>,
    /// Sampled request payloads.
    pub req_frames: Vec<Vec<u8>>,
    /// Sampled response payloads.
    pub resp_frames: Vec<Vec<u8>>,
    /// Request + response bytes on the wire, length prefixes included.
    pub bytes: u64,
}

/// Per-connection measurements.
#[derive(Default)]
pub struct ConnLog {
    /// `attr` round trips, µs.
    pub read_us: Vec<f64>,
    /// `set_attr`/`create`/`bind` round trips, µs.
    pub write_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered `ok`.
    pub completed: u64,
    /// Requests that failed (server error, transport) — transaction
    /// conflicts the client retries are counted separately.
    pub failed: u64,
    /// `overloaded` replies retried.
    pub overloaded_retries: u64,
    /// Traced-run spans.
    pub spans: Spans,
}

/// One connection to the server.
pub struct Conn {
    client: Client,
    traced: bool,
    next_id: u64,
    /// What this connection measured so far.
    pub log: ConnLog,
}

impl Conn {
    /// Connect over v2 framing.
    pub fn connect(addr: SocketAddr) -> ClientResult<Conn> {
        let client = Client::connect_v2(addr)?;
        client.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            client,
            traced: false,
            next_id: 1_000_000,
            log: ConnLog::default(),
        })
    }

    /// Switch between the untraced and the traced wire path.
    pub fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
    }

    /// Take the measurements so far, leaving an empty log.
    pub fn take_log(&mut self) -> ConnLog {
        std::mem::take(&mut self.log)
    }

    /// The underlying client, for probes outside the workload.
    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    /// Issue one request, retrying `overloaded` replies, and record it.
    /// Conflicts are returned to the caller (who retries the transaction);
    /// every other error is counted as a failed operation.
    pub fn call(&mut self, class: OpClass, verb: &str, params: Json) -> ClientResult<Json> {
        let mut retries = 0;
        loop {
            self.log.attempted += 1;
            let t0 = Instant::now();
            let out = if self.traced {
                self.traced_request(verb, params.clone())
            } else {
                self.client.request(verb, params.clone())
            };
            let us = t0.elapsed().as_secs_f64() * 1e6;
            match out {
                Ok(v) => {
                    self.log.completed += 1;
                    match class {
                        OpClass::Read => self.log.read_us.push(us),
                        OpClass::Write => self.log.write_us.push(us),
                        OpClass::Control => {}
                    }
                    return Ok(v);
                }
                Err(e) if e.is_overloaded() && retries < MAX_OVERLOAD_RETRIES => {
                    self.log.overloaded_retries += 1;
                    retries += 1;
                    thread::sleep(Duration::from_micros(50 << retries.min(6)));
                }
                // Deadlock or first-committer-wins: the caller retries the
                // transaction; commits over attempts show the waste.
                Err(e) if e.is_conflict() && !is_lock_timeout(&e) => return Err(e),
                Err(e) => {
                    self.log.failed += 1;
                    return Err(e);
                }
            }
        }
    }

    fn traced_request(&mut self, verb: &str, params: Json) -> ClientResult<Json> {
        self.next_id += 1;
        let id = self.next_id;
        let req = Request {
            id,
            verb: verb.into(),
            params,
            trace: None,
        };
        let t0 = Instant::now();
        let payload = req.encode_v2().map_err(ClientError::Protocol)?;
        let t1 = Instant::now();
        self.client.send_raw(&payload)?;
        let resp = self
            .client
            .recv_raw()
            .map_err(|e| ClientError::Protocol(format!("recv: {e:?}")))?;
        let t2 = Instant::now();
        let v = decode_response_v2(&resp).map_err(ClientError::Protocol)?;
        let t3 = Instant::now();
        let s = &mut self.log.spans;
        s.encode_ns.push((t1 - t0).as_secs_f64() * 1e9);
        s.rtt_us.push((t2 - t1).as_secs_f64() * 1e6);
        s.decode_ns.push((t3 - t2).as_secs_f64() * 1e9);
        s.bytes += (payload.len() + resp.len() + 8) as u64;
        if s.req_frames.len() < FRAME_SAMPLE {
            s.req_frames.push(payload);
            s.resp_frames.push(resp);
        }
        if v.get("id").and_then(Json::as_u64) != Some(id) {
            return Err(ClientError::Protocol("response id mismatch".into()));
        }
        match v.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(v.get("result").cloned().unwrap_or(Json::Null)),
            _ => {
                let err = v.get("error");
                let field = |k: &str| {
                    err.and_then(|e| e.get(k))
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                Err(ClientError::Server {
                    kind: field("kind"),
                    message: field("message"),
                })
            }
        }
    }

    /// `attr` → resolved value.
    pub fn attr(&mut self, obj: Surrogate, name: &str) -> ClientResult<Value> {
        let r = self.call(OpClass::Read, "attr", obj_name(obj, name, vec![]))?;
        serde_json::from_value(&r).map_err(|e| ClientError::Protocol(format!("attr value: {e}")))
    }

    /// `set_attr` of an integer.
    pub fn set_int(&mut self, obj: Surrogate, name: &str, v: i64) -> ClientResult<()> {
        let value = serde_json::to_value(&Value::Int(v));
        self.call(
            OpClass::Write,
            "set_attr",
            obj_name(obj, name, vec![("value".into(), value)]),
        )
        .map(|_| ())
    }

    /// `create` of a top-level object with one integer attribute.
    pub fn create(&mut self, ty: &str, attr: &str, v: i64) -> ClientResult<Surrogate> {
        let attrs = Json::Object(vec![(attr.into(), serde_json::to_value(&Value::Int(v)))]);
        let params = Json::Object(vec![
            ("type".into(), Json::String(ty.into())),
            ("attrs".into(), attrs),
        ]);
        surrogate(self.call(OpClass::Write, "create", params)?)
    }

    /// `bind` → the inheritance-relationship object.
    pub fn bind(
        &mut self,
        rel: &str,
        transmitter: Surrogate,
        inheritor: Surrogate,
    ) -> ClientResult<Surrogate> {
        let params = Json::Object(vec![
            ("rel".into(), Json::String(rel.into())),
            ("transmitter".into(), Json::UInt(transmitter.0)),
            ("inheritor".into(), Json::UInt(inheritor.0)),
        ]);
        surrogate(self.call(OpClass::Write, "bind", params)?)
    }

    /// `begin` → transaction id.
    pub fn begin(&mut self) -> ClientResult<u64> {
        let r = self.call(OpClass::Control, "begin", Json::Object(vec![]))?;
        r.get("txn")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("begin: malformed result".into()))
    }

    /// `commit` → published version (0 for a read-only transaction).
    pub fn commit(&mut self) -> ClientResult<u64> {
        let r = self.call(OpClass::Control, "commit", Json::Object(vec![]))?;
        r.get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("commit: malformed result".into()))
    }

    /// `abort`, ignoring the answer (used after a failed operation).
    pub fn abort_quietly(&mut self) {
        let _ = self.client.abort();
    }
}

fn obj_name(obj: Surrogate, name: &str, mut extra: Vec<(String, Json)>) -> Json {
    let mut fields = vec![
        ("obj".into(), Json::UInt(obj.0)),
        ("name".into(), Json::String(name.into())),
    ];
    fields.append(&mut extra);
    Json::Object(fields)
}

fn surrogate(v: Json) -> ClientResult<Surrogate> {
    v.as_u64()
        .map(Surrogate)
        .ok_or_else(|| ClientError::Protocol("expected a surrogate".into()))
}

/// A lock-wait timeout is a failure, not a retryable conflict.
fn is_lock_timeout(e: &ClientError) -> bool {
    matches!(e, ClientError::Server { message, .. } if message.contains("lock timeout"))
}
