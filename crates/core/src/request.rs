//! The serve-mode `Request`/`Response` layer: stable JSON-lines schemas
//! for driving the estimation pipeline as a long-lived service.
//!
//! A one-shot CLI invocation re-pays process setup (tech DB construction,
//! file parsing) on every call; a floorplanning search loop issuing
//! thousands of estimates cannot afford that. `maestro serve` keeps the
//! process warm and speaks this protocol instead: one request per line in,
//! one response per line out, correlated by a client-chosen `id`.
//!
//! # Wire format
//!
//! Every request is a single-line JSON object with an `id` string, a
//! `kind` discriminator, and kind-specific parameters:
//!
//! ```text
//! {"id":"e1","kind":"estimate","files":["a.mnl"],"mnl":[],"tech":"nmos","jobs":2,"json":true}
//! {"id":"l1","kind":"layout","files":[],"mnl":["module m; ..."],"tech":"nmos","rows":2,"replicas":1}
//! {"id":"f1","kind":"floorplan","files":["a.mnl","b.mnl"],"mnl":[],"tech":"nmos","aspect":1.5,"replicas":1,"backend":"annealing"}
//! {"id":"r1","kind":"report","files":["a.mnl"],"mnl":[],"tech":"cmos","replicas":1,"backend":"spanning-tree"}
//! {"id":"c1","kind":"cache-stats"}
//! {"id":"q","kind":"shutdown"}
//! ```
//!
//! An `estimate` request may set `"incremental":true` to diff the batch
//! against the session's previous revision and serve unchanged modules
//! from the result memo; a `layout` request may set `"warm":true` to
//! warm-start synthesis from the session's stored seed. `cache-stats`
//! reports the session's cache counters as a JSON payload.
//!
//! Schematic sources arrive either as `files` (paths resolved by the
//! server) or `mnl` (inline `.mnl` text); files are read first, inline
//! sources after, each preserving array order. Responses echo the id:
//!
//! ```text
//! {"id":"e1","ok":true,"payload":"..."}
//! {"id":"e1","ok":false,"error":"..."}
//! ```
//!
//! The `payload` carries exactly the bytes the matching one-shot CLI
//! command would have written to stdout — the serve-mode equivalence
//! contract the replay suite enforces.
//!
//! The codec is deliberately strict: unknown fields, fields that do not
//! apply to the request kind, out-of-range parameters and malformed JSON
//! are all rejected with a structured error (never a panic), so a
//! misbehaving client cannot take the daemon down.

use std::fmt;

use serde::{find_field, Value};

use crate::prob::MAX_ROWS;

/// Upper bound on `jobs` and `replicas` in a request: generous for any
/// real machine, small enough that a hostile request cannot ask the
/// server to spawn an absurd number of threads.
pub const MAX_FANOUT: u32 = 1024;

/// Upper bound on the combined number of `files` and `mnl` entries in one
/// request. Million-device batches belong to the streaming CLI path
/// (`estimate --stream`), not a single line-oriented service request.
pub const MAX_SOURCES: usize = 1024;

/// Upper bound on the total inline `.mnl` bytes in one request (16 MiB).
/// A chip near the generator ceiling serialises far past this; the limit
/// keeps one hostile line from pinning the daemon's memory.
pub const MAX_INLINE_MNL_BYTES: usize = 16 << 20;

/// Floorplan backend names the protocol accepts, in registry order. The
/// registry itself lives in the floorplan crate (which depends on this
/// one), so the protocol carries names and the floorplan crate asserts —
/// in its own tests — that its registry matches this list exactly.
pub const FLOORPLAN_BACKENDS: &[&str] = &["annealing", "annealing-warm", "spanning-tree"];

/// The backend used when a request omits the `backend` field: the
/// pre-trait annealer, preserving byte-identical behaviour for every
/// client written before backends existed.
pub const DEFAULT_FLOORPLAN_BACKEND: &str = "annealing";

/// Checks a chip aspect-ratio limit. The limit is the long side ÷ the
/// short side, so it must be finite and at least 1. Every front end that
/// accepts a limit (the request codec's `aspect` field, the CLI's
/// `--aspect` flag) checks it here, naming itself as `what` in the error.
///
/// # Errors
///
/// Returns the rule and the offending value when `limit` is NaN,
/// infinite or below 1.
pub fn check_aspect_limit(what: &str, limit: f64) -> Result<f64, String> {
    if limit.is_finite() && limit >= 1.0 {
        Ok(limit)
    } else {
        Err(format!(
            "{what} must be a finite ratio ≥ 1 (long side ÷ short side), got {limit}"
        ))
    }
}

/// Checks a standard-cell row count: `1..=`[`MAX_ROWS`], the range the
/// row-probability tables cover. Every front end that accepts a count
/// (the request codec's `rows` field, the CLI's `--rows` flag) checks it
/// here, naming itself as `what` in the error.
///
/// # Errors
///
/// Returns the range and the offending value outside it.
pub fn check_rows(what: &str, rows: u32) -> Result<u32, String> {
    if (1..=MAX_ROWS).contains(&rows) {
        Ok(rows)
    } else {
        Err(format!("{what} must be in 1..={MAX_ROWS}, got {rows}"))
    }
}

/// Checks a thread fan-out — batch `jobs` or annealing `replicas`:
/// `1..=`[`MAX_FANOUT`]. The request codec and the CLI's `--jobs` and
/// `--replicas` flags check it here, naming themselves as `what`, so no
/// front end starts more threads than the bound.
///
/// # Errors
///
/// Returns the range and the offending value outside it.
pub fn check_fanout(what: &str, n: u32) -> Result<u32, String> {
    if (1..=MAX_FANOUT).contains(&n) {
        Ok(n)
    } else {
        Err(format!("{what} must be in 1..={MAX_FANOUT}, got {n}"))
    }
}

/// One protocol request: a client-chosen correlation id plus the call.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    /// Never empty (the codec rejects empty ids).
    pub id: String,
    /// What to run.
    pub call: RequestCall,
}

/// The kind-specific body of a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum RequestCall {
    /// Closed-form area estimation (the CLI's `estimate`).
    Estimate(EstimateRequest),
    /// Actual layout: place & route or full-custom synthesis (`layout`).
    Layout(LayoutRequest),
    /// Chip floorplan from per-module estimates (`floorplan`).
    Floorplan(FloorplanRequest),
    /// Markdown design report (`report`).
    Report(ReportRequest),
    /// Session cache introspection (`cache-stats`): resolve-memo,
    /// result-memo and tech-reuse counters as a JSON payload.
    CacheStats,
    /// Graceful shutdown: the server stops reading, drains in-flight
    /// requests, answers this one last and exits.
    Shutdown,
}

/// Schematic sources plus parameters for an `estimate` request.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateRequest {
    /// Server-side schematic files (`.mnl`, `.sp`, `.spice`, `.cir`).
    pub files: Vec<String>,
    /// Inline `.mnl` sources (each may define several modules).
    pub mnl: Vec<String>,
    /// Technology: `nmos`, `cmos` or a process-DB JSON path.
    pub tech: String,
    /// Explicit standard-cell row count (`1..=`[`MAX_ROWS`]).
    pub rows: Option<u32>,
    /// Worker threads for the batch (`1..=`[`MAX_FANOUT`]).
    pub jobs: u32,
    /// Respond with the results-database JSON instead of the text table.
    pub json: bool,
    /// Diff against the session's previous revision and serve unchanged
    /// modules from the result memo.
    pub incremental: bool,
}

/// Schematic sources plus parameters for a `layout` request.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutRequest {
    /// Server-side schematic files.
    pub files: Vec<String>,
    /// Inline `.mnl` sources.
    pub mnl: Vec<String>,
    /// Technology spec.
    pub tech: String,
    /// Standard-cell row count (`1..=`[`MAX_ROWS`]; default 2).
    pub rows: Option<u32>,
    /// Annealing replicas (`1..=`[`MAX_FANOUT`]).
    pub replicas: u32,
    /// Warm-start full-custom synthesis from the session's stored seeds.
    pub warm: bool,
}

/// Schematic sources plus parameters for a `floorplan` request.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorplanRequest {
    /// Server-side schematic files.
    pub files: Vec<String>,
    /// Inline `.mnl` sources.
    pub mnl: Vec<String>,
    /// Technology spec.
    pub tech: String,
    /// Chip aspect-ratio limit, long side ÷ short side (finite, ≥ 1; see
    /// [`check_aspect_limit`]).
    pub aspect: Option<f64>,
    /// Annealing replicas (`1..=`[`MAX_FANOUT`]).
    pub replicas: u32,
    /// Floorplan backend name (one of [`FLOORPLAN_BACKENDS`]).
    pub backend: String,
}

/// Schematic sources plus parameters for a `report` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRequest {
    /// Server-side schematic files.
    pub files: Vec<String>,
    /// Inline `.mnl` sources.
    pub mnl: Vec<String>,
    /// Technology spec.
    pub tech: String,
    /// Chip aspect-ratio limit, long side ÷ short side (finite, ≥ 1; see
    /// [`check_aspect_limit`]).
    pub aspect: Option<f64>,
    /// Annealing replicas (`1..=`[`MAX_FANOUT`]).
    pub replicas: u32,
    /// Floorplan backend name (one of [`FLOORPLAN_BACKENDS`]).
    pub backend: String,
}

/// A request that could not be decoded. Carries the id when one could be
/// recovered from the malformed line, so the server can still address its
/// error response.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The `id` field, when the line parsed far enough to read it.
    pub id: Option<String>,
    /// What was wrong with the request.
    pub message: String,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad request: {}", self.message)
    }
}

impl std::error::Error for RequestError {}

/// One protocol response, correlated to its request by `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id (empty when the request's id was unrecoverable).
    pub id: String,
    /// Success payload or failure message.
    pub result: Result<String, String>,
}

impl Response {
    /// A success response carrying the command's stdout bytes.
    pub fn ok(id: impl Into<String>, payload: impl Into<String>) -> Response {
        Response {
            id: id.into(),
            result: Ok(payload.into()),
        }
    }

    /// A failure response carrying the error message.
    pub fn error(id: impl Into<String>, message: impl Into<String>) -> Response {
        Response {
            id: id.into(),
            result: Err(message.into()),
        }
    }

    /// `true` for a success response.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut fields = vec![("id".to_owned(), Value::Str(self.id.clone()))];
        match &self.result {
            Ok(payload) => {
                fields.push(("ok".to_owned(), Value::Bool(true)));
                fields.push(("payload".to_owned(), Value::Str(payload.clone())));
            }
            Err(message) => {
                fields.push(("ok".to_owned(), Value::Bool(false)));
                fields.push(("error".to_owned(), Value::Str(message.clone())));
            }
        }
        serde_json::to_string(&Value::Object(fields)).expect("response serializes")
    }

    /// Parses a response line, strictly.
    ///
    /// # Errors
    ///
    /// Returns the schema violation as a message.
    pub fn parse(line: &str) -> Result<Response, String> {
        let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let fields = value.as_object().ok_or("response must be a JSON object")?;
        for (key, _) in fields {
            if !matches!(key.as_str(), "id" | "ok" | "payload" | "error") {
                return Err(format!("unknown field `{key}` in response"));
            }
        }
        let id = expect_str(fields, "id")?;
        let ok = match find_field(fields, "ok") {
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("field `ok` must be a boolean".to_owned()),
            None => return Err("missing field `ok`".to_owned()),
        };
        if ok {
            if find_field(fields, "error").is_some() {
                return Err("success response must not carry `error`".to_owned());
            }
            Ok(Response {
                id,
                result: Ok(expect_str(fields, "payload")?),
            })
        } else {
            if find_field(fields, "payload").is_some() {
                return Err("error response must not carry `payload`".to_owned());
            }
            Ok(Response {
                id,
                result: Err(expect_str(fields, "error")?),
            })
        }
    }
}

impl Request {
    /// The `kind` discriminator string for this request.
    pub fn kind_name(&self) -> &'static str {
        match &self.call {
            RequestCall::Estimate(_) => "estimate",
            RequestCall::Layout(_) => "layout",
            RequestCall::Floorplan(_) => "floorplan",
            RequestCall::Report(_) => "report",
            RequestCall::CacheStats => "cache-stats",
            RequestCall::Shutdown => "shutdown",
        }
    }

    /// Serializes to one JSON line (no trailing newline). Fields appear
    /// in a fixed order (`id`, `kind`, sources, parameters) so identical
    /// requests serialize to identical bytes.
    pub fn to_json_line(&self) -> String {
        let mut fields = vec![
            ("id".to_owned(), Value::Str(self.id.clone())),
            ("kind".to_owned(), Value::Str(self.kind_name().to_owned())),
        ];
        let sources = |fields: &mut Vec<(String, Value)>, files: &[String], mnl: &[String]| {
            fields.push((
                "files".to_owned(),
                Value::Array(files.iter().map(|f| Value::Str(f.clone())).collect()),
            ));
            fields.push((
                "mnl".to_owned(),
                Value::Array(mnl.iter().map(|m| Value::Str(m.clone())).collect()),
            ));
        };
        match &self.call {
            RequestCall::Estimate(req) => {
                sources(&mut fields, &req.files, &req.mnl);
                fields.push(("tech".to_owned(), Value::Str(req.tech.clone())));
                if let Some(rows) = req.rows {
                    fields.push(("rows".to_owned(), Value::U64(rows.into())));
                }
                fields.push(("jobs".to_owned(), Value::U64(req.jobs.into())));
                fields.push(("json".to_owned(), Value::Bool(req.json)));
                if req.incremental {
                    fields.push(("incremental".to_owned(), Value::Bool(true)));
                }
            }
            RequestCall::Layout(req) => {
                sources(&mut fields, &req.files, &req.mnl);
                fields.push(("tech".to_owned(), Value::Str(req.tech.clone())));
                if let Some(rows) = req.rows {
                    fields.push(("rows".to_owned(), Value::U64(rows.into())));
                }
                fields.push(("replicas".to_owned(), Value::U64(req.replicas.into())));
                if req.warm {
                    fields.push(("warm".to_owned(), Value::Bool(true)));
                }
            }
            RequestCall::Floorplan(req) => {
                sources(&mut fields, &req.files, &req.mnl);
                fields.push(("tech".to_owned(), Value::Str(req.tech.clone())));
                if let Some(aspect) = req.aspect {
                    fields.push(("aspect".to_owned(), Value::F64(aspect)));
                }
                fields.push(("replicas".to_owned(), Value::U64(req.replicas.into())));
                fields.push(("backend".to_owned(), Value::Str(req.backend.clone())));
            }
            RequestCall::Report(req) => {
                sources(&mut fields, &req.files, &req.mnl);
                fields.push(("tech".to_owned(), Value::Str(req.tech.clone())));
                if let Some(aspect) = req.aspect {
                    fields.push(("aspect".to_owned(), Value::F64(aspect)));
                }
                fields.push(("replicas".to_owned(), Value::U64(req.replicas.into())));
                fields.push(("backend".to_owned(), Value::Str(req.backend.clone())));
            }
            RequestCall::CacheStats | RequestCall::Shutdown => {}
        }
        serde_json::to_string(&Value::Object(fields)).expect("request serializes")
    }

    /// Parses one request line, strictly: malformed JSON, a missing or
    /// empty id, an unknown kind, unknown fields, fields that do not
    /// apply to the kind and out-of-range parameters are all errors.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] carrying the request id whenever the
    /// line parsed far enough to recover it, so the server can address
    /// its error response.
    pub fn parse(line: &str) -> Result<Request, RequestError> {
        let value: Value = serde_json::from_str(line).map_err(|e| RequestError {
            id: None,
            message: e.to_string(),
        })?;
        let Some(fields) = value.as_object() else {
            return Err(RequestError {
                id: None,
                message: "request must be a JSON object".to_owned(),
            });
        };
        // Recover the id first: every later error can then be addressed.
        let id = match find_field(fields, "id") {
            Some(Value::Str(s)) if !s.is_empty() => s.clone(),
            Some(Value::Str(_)) => {
                return Err(RequestError {
                    id: None,
                    message: "request id must not be empty".to_owned(),
                })
            }
            Some(_) => {
                return Err(RequestError {
                    id: None,
                    message: "field `id` must be a string".to_owned(),
                })
            }
            None => {
                return Err(RequestError {
                    id: None,
                    message: "missing field `id`".to_owned(),
                })
            }
        };
        let fail = |message: String| RequestError {
            id: Some(id.clone()),
            message,
        };
        let kind = match find_field(fields, "kind") {
            Some(Value::Str(s)) => s.clone(),
            Some(_) => return Err(fail("field `kind` must be a string".to_owned())),
            None => return Err(fail("missing field `kind`".to_owned())),
        };
        let allowed: &[&str] = match kind.as_str() {
            "estimate" => &[
                "id",
                "kind",
                "files",
                "mnl",
                "tech",
                "rows",
                "jobs",
                "json",
                "incremental",
            ],
            "layout" => &[
                "id", "kind", "files", "mnl", "tech", "rows", "replicas", "warm",
            ],
            "floorplan" | "report" => &[
                "id", "kind", "files", "mnl", "tech", "aspect", "replicas", "backend",
            ],
            "cache-stats" | "shutdown" => &["id", "kind"],
            other => {
                return Err(fail(format!(
                    "unknown kind `{other}` (expected estimate, layout, floorplan, report, \
                     cache-stats or shutdown)"
                )))
            }
        };
        for (key, _) in fields {
            if !allowed.contains(&key.as_str()) {
                return Err(fail(format!("unknown field `{key}` for kind `{kind}`")));
            }
        }
        let call = (|| -> Result<RequestCall, String> {
            Ok(match kind.as_str() {
                "estimate" => RequestCall::Estimate(EstimateRequest {
                    files: parse_sources(fields, "files")?,
                    mnl: parse_sources(fields, "mnl")?,
                    tech: parse_tech(fields)?,
                    rows: parse_rows(fields)?,
                    jobs: parse_fanout(fields, "jobs")?,
                    json: match find_field(fields, "json") {
                        Some(Value::Bool(b)) => *b,
                        Some(_) => return Err("field `json` must be a boolean".to_owned()),
                        None => false,
                    },
                    incremental: match find_field(fields, "incremental") {
                        Some(Value::Bool(b)) => *b,
                        Some(_) => return Err("field `incremental` must be a boolean".to_owned()),
                        None => false,
                    },
                }),
                "layout" => RequestCall::Layout(LayoutRequest {
                    files: parse_sources(fields, "files")?,
                    mnl: parse_sources(fields, "mnl")?,
                    tech: parse_tech(fields)?,
                    rows: parse_rows(fields)?,
                    replicas: parse_fanout(fields, "replicas")?,
                    warm: match find_field(fields, "warm") {
                        Some(Value::Bool(b)) => *b,
                        Some(_) => return Err("field `warm` must be a boolean".to_owned()),
                        None => false,
                    },
                }),
                "floorplan" => RequestCall::Floorplan(FloorplanRequest {
                    files: parse_sources(fields, "files")?,
                    mnl: parse_sources(fields, "mnl")?,
                    tech: parse_tech(fields)?,
                    aspect: parse_aspect(fields)?,
                    replicas: parse_fanout(fields, "replicas")?,
                    backend: parse_backend(fields)?,
                }),
                "report" => RequestCall::Report(ReportRequest {
                    files: parse_sources(fields, "files")?,
                    mnl: parse_sources(fields, "mnl")?,
                    tech: parse_tech(fields)?,
                    aspect: parse_aspect(fields)?,
                    replicas: parse_fanout(fields, "replicas")?,
                    backend: parse_backend(fields)?,
                }),
                "cache-stats" => RequestCall::CacheStats,
                "shutdown" => RequestCall::Shutdown,
                _ => unreachable!("kind validated above"),
            })
        })()
        .map_err(fail)?;
        if let Some((files, mnl)) = match &call {
            RequestCall::Estimate(r) => Some((&r.files, &r.mnl)),
            RequestCall::Layout(r) => Some((&r.files, &r.mnl)),
            RequestCall::Floorplan(r) => Some((&r.files, &r.mnl)),
            RequestCall::Report(r) => Some((&r.files, &r.mnl)),
            RequestCall::CacheStats | RequestCall::Shutdown => None,
        } {
            if files.is_empty() && mnl.is_empty() {
                return Err(RequestError {
                    id: Some(id),
                    message: format!("kind `{kind}` needs at least one source in `files` or `mnl`"),
                });
            }
            let sources = files.len().saturating_add(mnl.len());
            if sources > MAX_SOURCES {
                return Err(RequestError {
                    id: Some(id),
                    message: format!(
                        "request carries {sources} sources, more than the {MAX_SOURCES} allowed"
                    ),
                });
            }
            let inline_bytes: usize = mnl.iter().map(String::len).sum();
            if inline_bytes > MAX_INLINE_MNL_BYTES {
                return Err(RequestError {
                    id: Some(id),
                    message: format!(
                        "inline `mnl` sources total {inline_bytes} bytes, more than the \
                         {MAX_INLINE_MNL_BYTES} allowed"
                    ),
                });
            }
        }
        Ok(Request { id, call })
    }
}

fn expect_str(fields: &[(String, Value)], key: &str) -> Result<String, String> {
    match find_field(fields, key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field `{key}` must be a string")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn parse_sources(fields: &[(String, Value)], key: &str) -> Result<Vec<String>, String> {
    match find_field(fields, key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| match item {
                Value::Str(s) => Ok(s.clone()),
                other => Err(format!(
                    "field `{key}` must be an array of strings, found {other:?}"
                )),
            })
            .collect(),
        Some(_) => Err(format!("field `{key}` must be an array of strings")),
        None => Ok(Vec::new()),
    }
}

fn parse_tech(fields: &[(String, Value)]) -> Result<String, String> {
    match find_field(fields, "tech") {
        Some(Value::Str(s)) if !s.is_empty() => Ok(s.clone()),
        Some(Value::Str(_)) => Err("field `tech` must not be empty".to_owned()),
        Some(_) => Err("field `tech` must be a string".to_owned()),
        None => Ok("nmos".to_owned()),
    }
}

fn parse_rows(fields: &[(String, Value)]) -> Result<Option<u32>, String> {
    match find_field(fields, "rows") {
        Some(Value::Null) | None => Ok(None),
        Some(v) => {
            let rows = v
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("field `rows` must be a non-negative integer")?;
            check_rows("field `rows`", rows).map(Some)
        }
    }
}

fn parse_fanout(fields: &[(String, Value)], key: &str) -> Result<u32, String> {
    match find_field(fields, key) {
        None => Ok(1),
        Some(v) => {
            let n = v
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))?;
            check_fanout(&format!("field `{key}`"), n)
        }
    }
}

fn parse_backend(fields: &[(String, Value)]) -> Result<String, String> {
    match find_field(fields, "backend") {
        None => Ok(DEFAULT_FLOORPLAN_BACKEND.to_owned()),
        Some(Value::Str(s)) if FLOORPLAN_BACKENDS.contains(&s.as_str()) => Ok(s.clone()),
        Some(Value::Str(s)) => Err(format!(
            "unknown backend `{s}` (expected one of: {})",
            FLOORPLAN_BACKENDS.join(", ")
        )),
        Some(_) => Err("field `backend` must be a string".to_owned()),
    }
}

fn parse_aspect(fields: &[(String, Value)]) -> Result<Option<f64>, String> {
    match find_field(fields, "aspect") {
        Some(Value::Null) | None => Ok(None),
        Some(v) => {
            let aspect = v.as_f64().ok_or("field `aspect` must be a number")?;
            check_aspect_limit("field `aspect`", aspect).map(Some)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_and_fanout_checks_accept_exactly_their_ranges() {
        for (n, ok) in [
            (0, false),
            (1, true),
            (MAX_ROWS, true),
            (MAX_ROWS + 1, false),
        ] {
            assert_eq!(check_rows("--rows", n).is_ok(), ok, "{n} rows");
        }
        assert_eq!(
            check_rows("--rows", MAX_ROWS + 1).unwrap_err(),
            "--rows must be in 1..=64, got 65"
        );
        for (n, ok) in [
            (0, false),
            (1, true),
            (MAX_FANOUT, true),
            (MAX_FANOUT + 1, false),
        ] {
            assert_eq!(check_fanout("--jobs", n).is_ok(), ok, "{n} jobs");
        }
        assert_eq!(
            check_fanout("field `replicas`", 0).unwrap_err(),
            "field `replicas` must be in 1..=1024, got 0"
        );
    }

    fn estimate_request() -> Request {
        Request {
            id: "e1".to_owned(),
            call: RequestCall::Estimate(EstimateRequest {
                files: vec!["assets/table1.mnl".to_owned()],
                mnl: vec!["module m;\ninput a;\nendmodule\n".to_owned()],
                tech: "nmos".to_owned(),
                rows: Some(4),
                jobs: 2,
                json: true,
                incremental: false,
            }),
        }
    }

    #[test]
    fn request_round_trips_through_one_line() {
        let requests = [
            estimate_request(),
            Request {
                id: "e2".to_owned(),
                call: RequestCall::Estimate(EstimateRequest {
                    files: vec!["assets/table1.mnl".to_owned()],
                    mnl: Vec::new(),
                    tech: "nmos".to_owned(),
                    rows: None,
                    jobs: 1,
                    json: false,
                    incremental: true,
                }),
            },
            Request {
                id: "l-1".to_owned(),
                call: RequestCall::Layout(LayoutRequest {
                    files: Vec::new(),
                    mnl: vec!["module m;\nendmodule\n".to_owned()],
                    tech: "cmos".to_owned(),
                    rows: None,
                    replicas: 4,
                    warm: false,
                }),
            },
            Request {
                id: "l-2".to_owned(),
                call: RequestCall::Layout(LayoutRequest {
                    files: vec!["a.mnl".to_owned()],
                    mnl: Vec::new(),
                    tech: "nmos".to_owned(),
                    rows: Some(2),
                    replicas: 1,
                    warm: true,
                }),
            },
            Request {
                id: "f1".to_owned(),
                call: RequestCall::Floorplan(FloorplanRequest {
                    files: vec!["a.mnl".to_owned(), "b.mnl".to_owned()],
                    mnl: Vec::new(),
                    tech: "nmos".to_owned(),
                    aspect: Some(1.5),
                    replicas: 1,
                    backend: "spanning-tree".to_owned(),
                }),
            },
            Request {
                id: "r1".to_owned(),
                call: RequestCall::Report(ReportRequest {
                    files: vec!["a.mnl".to_owned()],
                    mnl: Vec::new(),
                    tech: "nmos".to_owned(),
                    aspect: None,
                    replicas: 2,
                    backend: DEFAULT_FLOORPLAN_BACKEND.to_owned(),
                }),
            },
            Request {
                id: "c1".to_owned(),
                call: RequestCall::CacheStats,
            },
            Request {
                id: "q".to_owned(),
                call: RequestCall::Shutdown,
            },
        ];
        for request in requests {
            let line = request.to_json_line();
            assert!(!line.contains('\n'), "one line: {line}");
            let back = Request::parse(&line).expect("round trip parses");
            assert_eq!(back, request, "line: {line}");
        }
    }

    #[test]
    fn omitted_fields_take_defaults() {
        let r = Request::parse("{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a.mnl\"]}")
            .expect("parses");
        let RequestCall::Estimate(req) = r.call else {
            panic!("wrong kind");
        };
        assert_eq!(req.tech, "nmos");
        assert_eq!(req.rows, None);
        assert_eq!(req.jobs, 1);
        assert!(!req.json);
        assert!(!req.incremental);
        assert!(req.mnl.is_empty());
    }

    #[test]
    fn unknown_and_misplaced_fields_are_rejected_with_the_id() {
        for (line, needle) in [
            (
                "{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"zzz\":1}",
                "unknown field `zzz`",
            ),
            (
                // `json` belongs to estimate, not layout.
                "{\"id\":\"x\",\"kind\":\"layout\",\"files\":[\"a\"],\"json\":true}",
                "unknown field `json`",
            ),
            (
                // `incremental` belongs to estimate, not layout.
                "{\"id\":\"x\",\"kind\":\"layout\",\"files\":[\"a\"],\"incremental\":true}",
                "unknown field `incremental`",
            ),
            (
                // `warm` belongs to layout, not estimate.
                "{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"warm\":true}",
                "unknown field `warm`",
            ),
            (
                // cache-stats takes no sources or parameters.
                "{\"id\":\"x\",\"kind\":\"cache-stats\",\"files\":[\"a\"]}",
                "unknown field `files`",
            ),
            (
                "{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"incremental\":1}",
                "field `incremental` must be a boolean",
            ),
            (
                "{\"id\":\"x\",\"kind\":\"frobnicate\"}",
                "unknown kind `frobnicate`",
            ),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert_eq!(err.id.as_deref(), Some("x"), "{line}");
            assert!(err.message.contains(needle), "{line}: {}", err.message);
        }
    }

    #[test]
    fn out_of_range_parameters_are_rejected() {
        for line in [
            "{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"jobs\":0}",
            "{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"jobs\":1025}",
            "{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"rows\":0}",
            "{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"rows\":65}",
            "{\"id\":\"x\",\"kind\":\"layout\",\"files\":[\"a\"],\"replicas\":0}",
            "{\"id\":\"x\",\"kind\":\"floorplan\",\"files\":[\"a\"],\"aspect\":0}",
            "{\"id\":\"x\",\"kind\":\"floorplan\",\"files\":[\"a\"],\"aspect\":-1.5}",
            "{\"id\":\"x\",\"kind\":\"floorplan\",\"files\":[\"a\"],\"aspect\":0.5}",
            "{\"id\":\"x\",\"kind\":\"report\",\"files\":[\"a\"],\"aspect\":0.999}",
        ] {
            let err = Request::parse(line).expect_err(line);
            assert_eq!(err.id.as_deref(), Some("x"), "{line}");
        }
    }

    #[test]
    fn backend_defaults_validates_and_rejects_misplacement() {
        let r = Request::parse("{\"id\":\"x\",\"kind\":\"floorplan\",\"files\":[\"a.mnl\"]}")
            .expect("parses");
        let RequestCall::Floorplan(req) = r.call else {
            panic!("wrong kind");
        };
        assert_eq!(req.backend, DEFAULT_FLOORPLAN_BACKEND);

        for name in FLOORPLAN_BACKENDS {
            let line = format!(
                "{{\"id\":\"x\",\"kind\":\"report\",\"files\":[\"a\"],\"backend\":\"{name}\"}}"
            );
            let r = Request::parse(&line).expect(&line);
            let RequestCall::Report(req) = r.call else {
                panic!("wrong kind");
            };
            assert_eq!(&req.backend, name);
        }

        for (line, needle) in [
            (
                "{\"id\":\"x\",\"kind\":\"floorplan\",\"files\":[\"a\"],\"backend\":\"bogus\"}",
                "unknown backend `bogus`",
            ),
            (
                "{\"id\":\"x\",\"kind\":\"floorplan\",\"files\":[\"a\"],\"backend\":7}",
                "must be a string",
            ),
            (
                // `backend` belongs to floorplan/report, not estimate.
                "{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[\"a\"],\"backend\":\"annealing\"}",
                "unknown field `backend`",
            ),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert_eq!(err.id.as_deref(), Some("x"), "{line}");
            assert!(err.message.contains(needle), "{line}: {}", err.message);
        }
    }

    #[test]
    fn oversized_source_lists_and_inline_payloads_are_rejected() {
        // One entry past the source-count cap fails; at the cap it parses.
        let many = |n: usize| {
            let files: Vec<String> = (0..n).map(|i| format!("\"f{i}.mnl\"")).collect();
            format!(
                "{{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[{}]}}",
                files.join(",")
            )
        };
        Request::parse(&many(MAX_SOURCES)).expect("at the cap parses");
        let err = Request::parse(&many(MAX_SOURCES + 1)).expect_err("past the cap fails");
        assert_eq!(err.id.as_deref(), Some("x"));
        assert!(err.message.contains("1025 sources"), "{}", err.message);

        // The cap counts files and inline sources together.
        let split = format!(
            "{{\"id\":\"x\",\"kind\":\"estimate\",\"files\":[{}],\"mnl\":[\"m\",\"m\"]}}",
            (0..MAX_SOURCES - 1)
                .map(|i| format!("\"f{i}.mnl\""))
                .collect::<Vec<_>>()
                .join(",")
        );
        let err = Request::parse(&split).expect_err("files + mnl past the cap fails");
        assert!(err.message.contains("sources"), "{}", err.message);

        // Inline bytes sum across all `mnl` entries. The JSON itself stays
        // small by spending the budget on two large-but-legal strings.
        let half = "a".repeat(MAX_INLINE_MNL_BYTES / 2);
        let at_cap =
            format!("{{\"id\":\"x\",\"kind\":\"layout\",\"mnl\":[\"{half}\",\"{half}\"]}}");
        Request::parse(&at_cap).expect("at the byte cap parses");
        let over = format!("{{\"id\":\"x\",\"kind\":\"layout\",\"mnl\":[\"{half}\",\"{half}a\"]}}");
        let err = Request::parse(&over).expect_err("past the byte cap fails");
        assert_eq!(err.id.as_deref(), Some("x"));
        assert!(err.message.contains("inline `mnl`"), "{}", err.message);
    }

    #[test]
    fn sourceless_work_requests_are_rejected_but_shutdown_is_not() {
        let err = Request::parse("{\"id\":\"x\",\"kind\":\"estimate\"}").unwrap_err();
        assert!(err.message.contains("at least one source"), "{err:?}");
        Request::parse("{\"id\":\"x\",\"kind\":\"shutdown\"}").expect("shutdown needs no source");
        Request::parse("{\"id\":\"x\",\"kind\":\"cache-stats\"}")
            .expect("cache-stats needs no source");
    }

    #[test]
    fn malformed_lines_fail_without_an_id() {
        for line in [
            "",
            "not json",
            "[1,2]",
            "{\"kind\":\"estimate\"}",
            "{\"id\":\"\"}",
        ] {
            let err = Request::parse(line).expect_err(line);
            assert_eq!(err.id, None, "{line}");
        }
    }

    #[test]
    fn response_round_trips_and_rejects_mixed_shapes() {
        for response in [
            Response::ok("e1", "module `m`\n  standard-cell: 42\n"),
            Response::error("e2", "bad request: unknown kind `x`"),
            Response::ok("", ""),
        ] {
            let line = response.to_json_line();
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(Response::parse(&line).expect("parses"), response);
        }
        assert!(Response::parse("{\"id\":\"x\",\"ok\":true,\"error\":\"boom\"}").is_err());
        assert!(Response::parse("{\"id\":\"x\",\"ok\":false,\"payload\":\"p\"}").is_err());
        assert!(Response::parse("{\"id\":\"x\",\"ok\":true,\"payload\":\"p\",\"zz\":1}").is_err());
    }
}
