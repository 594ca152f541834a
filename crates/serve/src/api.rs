//! Request routing: the JSON API over the job queue.
//!
//! | Route | Behaviour |
//! |---|---|
//! | `POST /jobs` | validate a spec; 202 accepted / 200 deduped / 503 shed |
//! | `GET /jobs/j<id>` | job status and progress |
//! | `GET /results/j<id>` | the finished BENCH document |
//! | `GET /healthz` | liveness (always 200 while serving) |
//! | `GET /metrics` | Prometheus text exposition |
//!
//! Every error is a typed JSON body `{"error": {"kind", "message"}}`
//! with a meaningful status — malformed input can never panic the
//! server (the malformed-request test matrix proves it).

use crate::http::{HttpError, Request, Response};
use crate::jobs::{JobQueue, Phase, Submitted};
use psa_experiments::service::SweepSpec;
use psa_sim::report::Json;

/// A typed error body.
fn error_json(kind: &str, message: &str) -> Vec<u8> {
    Json::obj([(
        "error",
        Json::obj([("kind", Json::str(kind)), ("message", Json::str(message))]),
    )])
    .pretty()
    .into_bytes()
}

/// Map a request-read failure to its response.
pub fn error_response(err: &HttpError) -> Response {
    match err {
        HttpError::BodyTooLarge { limit, declared } => Response::json(
            413,
            error_json(
                "body_too_large",
                &format!("declared body of {declared} bytes exceeds the {limit}-byte limit"),
            ),
        ),
        HttpError::Malformed(what) => Response::json(400, error_json("malformed_request", what)),
        HttpError::Io(e) => Response::json(400, error_json("request_io", &e.to_string())),
    }
}

/// Route one request.
pub fn handle(queue: &JobQueue, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => post_jobs(queue, &req.body),
        ("GET", "/healthz") => Response::json(
            200,
            Json::obj([("status", Json::str("ok"))])
                .pretty()
                .into_bytes(),
        ),
        ("GET", "/metrics") => {
            Response::prometheus(queue.metrics.render(&queue.executor().stats()))
        }
        ("GET", path) if path.starts_with("/jobs/") => match job_id(&path[6..]) {
            Some(id) => job_status(queue, id),
            None => Response::json(404, error_json("unknown_job", "job ids look like j<N>")),
        },
        ("GET", path) if path.starts_with("/results/") => match job_id(&path[9..]) {
            Some(id) => job_result(queue, id),
            None => Response::json(404, error_json("unknown_job", "job ids look like j<N>")),
        },
        (_, "/jobs" | "/healthz" | "/metrics") => Response::json(
            405,
            error_json("method_not_allowed", "see docs/SERVER.md for the API"),
        ),
        _ => Response::json(
            404,
            error_json("not_found", "see docs/SERVER.md for the API"),
        ),
    }
}

fn job_id(tail: &str) -> Option<u64> {
    tail.strip_prefix('j')?.parse().ok()
}

fn post_jobs(queue: &JobQueue, body: &[u8]) -> Response {
    let spec = match SweepSpec::from_body(body) {
        Ok(spec) => spec,
        Err(err) => return Response::json(400, error_json(err.kind(), &err.to_string())),
    };
    match queue.submit(spec) {
        Submitted::Accepted(job) => Response::json(202, submit_body(&job, false)),
        Submitted::Deduped(job) => Response::json(200, submit_body(&job, true)),
        Submitted::Shed { retry_after_secs } => {
            let mut resp = Response::json(
                503,
                error_json(
                    "overloaded",
                    &format!("job queue is full; retry after {retry_after_secs}s"),
                ),
            );
            resp.retry_after = Some(retry_after_secs);
            resp
        }
    }
}

fn submit_body(job: &crate::jobs::Job, deduped: bool) -> Vec<u8> {
    Json::obj([
        ("id", Json::str(format!("j{}", job.id))),
        ("deduped", Json::Bool(deduped)),
        ("status_url", Json::str(format!("/jobs/j{}", job.id))),
        ("result_url", Json::str(format!("/results/j{}", job.id))),
    ])
    .pretty()
    .into_bytes()
}

fn job_status(queue: &JobQueue, id: u64) -> Response {
    let Some(job) = queue.job(id) else {
        return Response::json(404, error_json("unknown_job", &format!("no job j{id}")));
    };
    let body = job.with_status(|st| {
        let mut doc = Json::obj([
            ("id", Json::str(format!("j{id}"))),
            ("state", Json::str(st.phase.name())),
            ("completed", Json::uint(st.completed)),
            ("total", Json::uint(st.total)),
            ("joined", Json::uint(st.joined)),
            ("from_cache", Json::Bool(st.from_cache)),
            ("clean", Json::Bool(st.clean)),
        ]);
        if let Some(error) = &st.error {
            doc.push("error", Json::str(error));
        }
        if st.phase == Phase::Done {
            doc.push("result_url", Json::str(format!("/results/j{id}")));
        }
        doc
    });
    Response::json(200, body.pretty().into_bytes())
}

fn job_result(queue: &JobQueue, id: u64) -> Response {
    let Some(job) = queue.job(id) else {
        return Response::json(404, error_json("unknown_job", &format!("no job j{id}")));
    };
    job.with_status(|st| match st.phase {
        Phase::Done => {
            let bytes = st.result.as_ref().expect("done job has a result");
            Response::json(200, bytes.as_ref().clone())
        }
        Phase::Failed => Response::json(
            500,
            error_json(
                "job_failed",
                st.error.as_deref().unwrap_or("worker job panicked"),
            ),
        ),
        Phase::Queued | Phase::Running => Response::json(
            202,
            Json::obj([
                ("status", Json::str("pending")),
                ("state", Json::str(st.phase.name())),
                ("completed", Json::uint(st.completed)),
                ("total", Json::uint(st.total)),
            ])
            .pretty()
            .into_bytes(),
        ),
    })
}
