"""HTTP transport for the job manager — stdlib ``http.server`` only.

A deliberately small REST surface over :class:`repro.service.JobManager`
(versioned under ``/api/v1``):

========  =============================  =======================================
POST      ``/api/v1/jobs``               submit ``{design, config?, timeout_s?}``
GET       ``/api/v1/jobs``               list job status views
GET       ``/api/v1/jobs/<id>``          one job's status view
POST      ``/api/v1/jobs/<id>/cancel``   request cancellation
GET       ``/api/v1/jobs/<id>/events``   live NDJSON heartbeat/incumbent stream
GET       ``/api/v1/jobs/<id>/result``   the finished result document
GET       ``/api/v1/jobs/<id>/report``   just its schema-v3 run report
GET       ``/api/v1/jobs/<id>/dashboard`` the report rendered as HTML
GET       ``/api/v1/jobs/<id>/profile``  the job's sampling profile
GET       ``/api/v1/healthz``            liveness probe
GET       ``/api/v1/stats``              job/cache/queue counters
GET       ``/api/v1/metrics``            live OpenMetrics scrape
========  =============================  =======================================

The events endpoint streams one JSON object per line
(``application/x-ndjson``) and closes after the final event of a
terminal job, so ``curl`` and :class:`repro.service.ServiceClient` can
follow a search live without polling.  Everything runs on
``ThreadingHTTPServer`` — one thread per connection, blocking handlers —
which is exactly enough for a workstation-local solver service and keeps
the dependency budget at zero.

Every request is instrumented into the manager's labelled
:class:`~repro.obs.MetricsRegistry`: a
``repro_http_requests_total{method,endpoint,status}`` counter and a
``repro_http_request_seconds{method,endpoint}`` latency histogram, with
the endpoint label normalized to its route template (``/jobs/{id}``,
never a raw job id) and every path outside the table above counted as
``other``, so label cardinality stays bounded.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union

from .. import obs
from ..validate.lint import DesignLintError
from .jobs import JobManager

logger = obs.get_logger("service.server")

API_PREFIX = "/api/v1"

OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

# The routed collections and job actions (the table above); any other
# path is labelled ``other`` in the request metrics.
_COLLECTIONS = ("healthz", "jobs", "metrics", "stats")
_JOB_ACTIONS = (
    "cancel", "dashboard", "events", "profile", "report", "result",
)

# One blocking wait per streaming poll; short enough that cancellation
# and client disconnects are noticed promptly.
_STREAM_POLL_S = 0.5

# Requests larger than this are rejected outright (a design JSON for the
# paper's largest benchmarks is well under 1 MiB).
MAX_BODY_BYTES = 32 * 1024 * 1024

__all__ = [
    "API_PREFIX",
    "FloorplanService",
    "OPENMETRICS_CONTENT_TYPE",
    "ServiceHandler",
]


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes one HTTP connection onto the owning service's manager."""

    # Set by FloorplanService when it builds the handler class.
    service: "FloorplanService"

    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), fmt % args)

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        self._last_status = code
        super().send_response(code, message)

    def _send_json(
        self, status: int, payload: Union[Dict[str, Any], list]
    ) -> None:
        body = json.dumps(payload, default=obs.json_default).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _try_send_error(self, status: int, message: str) -> None:
        """Best-effort error response — headers may already be gone."""
        try:
            self._send_error_json(status, message)
        except Exception:  # noqa: BLE001 - nothing left to tell the client
            pass

    def _send_html(self, status: int, html: str) -> None:
        self._send_text(status, html, "text/html; charset=utf-8")

    def _send_text(
        self, status: int, text: str, content_type: str
    ) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ValueError("Content-Length is not an integer") from None
        if length > MAX_BODY_BYTES:
            raise ValueError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise ValueError(f"malformed request JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _route(self) -> Tuple[str, Optional[str], Optional[str]]:
        """Split the path into (collection, job_id, action)."""
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith(API_PREFIX):
            raise LookupError(self.path)
        parts = [p for p in path[len(API_PREFIX):].split("/") if p]
        if not parts:
            raise LookupError(self.path)
        return (
            parts[0],
            parts[1] if len(parts) > 1 else None,
            parts[2] if len(parts) > 2 else None,
        )

    def _endpoint_template(self) -> str:
        """The route template for metric labels (bounded cardinality)."""
        try:
            collection, job_id, action = self._route()
        except LookupError:
            return "other"
        if collection in _COLLECTIONS and job_id is None:
            return f"/{collection}"
        if collection == "jobs" and action is None:
            return "/jobs/{id}"
        if collection == "jobs" and action in _JOB_ACTIONS:
            return f"/jobs/{{id}}/{action}"
        return "other"

    def _instrumented(self, method: str, handler) -> None:
        """Run a verb handler under request count + latency metrics."""
        self._last_status = 0
        started = time.perf_counter()
        try:
            handler()
        finally:
            elapsed = time.perf_counter() - started
            try:
                metrics = self.service.manager.metrics
                endpoint = self._endpoint_template()
                metrics.counter(
                    "http.requests",
                    {
                        "method": method,
                        "endpoint": endpoint,
                        "status": self._last_status or 0,
                    },
                ).inc()
                metrics.histogram(
                    "http.request_seconds",
                    {"method": method, "endpoint": endpoint},
                ).observe(elapsed)
            except Exception:  # noqa: BLE001 - telemetry never breaks serving
                logger.exception("request metrics update failed")

    # -- verbs ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._instrumented("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._instrumented("POST", self._handle_post)

    def _handle_get(self) -> None:
        try:
            collection, job_id, action = self._route()
        except LookupError:
            self._send_error_json(404, f"no such endpoint: {self.path}")
            return
        manager = self.service.manager
        try:
            if collection == "healthz" and job_id is None:
                self._send_json(200, {"ok": True})
            elif collection == "stats" and job_id is None:
                self._send_json(200, manager.stats())
            elif collection == "metrics" and job_id is None:
                self._send_text(
                    200,
                    manager.render_metrics(),
                    OPENMETRICS_CONTENT_TYPE,
                )
            elif collection == "jobs" and job_id is None:
                self._send_json(200, {"jobs": manager.list_jobs()})
            elif collection == "jobs" and action is None:
                self._send_json(200, manager.status(job_id))
            elif collection == "jobs" and action == "events":
                self._stream_events(job_id)
            elif collection == "jobs" and action == "result":
                self._send_json(200, manager.result(job_id))
            elif collection == "jobs" and action == "report":
                report = manager.result(job_id).get("report")
                if report is None:
                    self._send_error_json(404, "result carries no report")
                else:
                    self._send_json(200, report)
            elif collection == "jobs" and action == "dashboard":
                report = manager.result(job_id).get("report")
                if report is None:
                    self._send_error_json(404, "result carries no report")
                else:
                    self._send_html(200, obs.render_dashboard(report))
            elif collection == "jobs" and action == "profile":
                text, fmt = manager.profile(job_id)
                self._send_text(
                    200,
                    text,
                    "application/json"
                    if fmt == "speedscope"
                    else "text/plain; charset=utf-8",
                )
            else:
                self._send_error_json(404, f"no such endpoint: {self.path}")
        except KeyError:
            self._send_error_json(404, f"no such job: {job_id}")
        except LookupError as exc:
            self._send_error_json(409, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 - a handler must answer
            logger.exception("GET %s: internal error", self.path)
            self._try_send_error(500, f"internal error: {exc}")

    def _handle_post(self) -> None:
        try:
            collection, job_id, action = self._route()
        except LookupError:
            self._send_error_json(404, f"no such endpoint: {self.path}")
            return
        manager = self.service.manager
        if collection == "jobs" and job_id is None:
            try:
                body = self._read_body()
                design = body.get("design")
                if not isinstance(design, dict):
                    raise ValueError("missing 'design' object")
                view = manager.submit(
                    design,
                    config=body.get("config"),
                    timeout_s=body.get("timeout_s"),
                    dedupe=bool(body.get("dedupe")),
                    profile=body.get("profile"),
                )
            except DesignLintError as exc:
                # Linted rejection: the full machine-readable diagnostic
                # list rides along so clients can pinpoint every problem
                # without re-running the linter locally.
                self._send_json(
                    400,
                    {
                        "error": (
                            f"design failed lint with "
                            f"{len(exc.diagnostics)} error(s)"
                        ),
                        "diagnostics": [
                            d.to_dict() for d in exc.diagnostics
                        ],
                    },
                )
                return
            except (ValueError, KeyError, TypeError) as exc:
                self._send_error_json(400, f"invalid submission: {exc}")
                return
            except Exception as exc:  # noqa: BLE001 - a handler must answer
                logger.exception("POST %s: internal error", self.path)
                self._try_send_error(500, f"internal error: {exc}")
                return
            self._send_json(201, view)
        elif collection == "jobs" and action == "cancel":
            try:
                self._send_json(200, manager.cancel(job_id))
            except KeyError:
                self._send_error_json(404, f"no such job: {job_id}")
        else:
            self._send_error_json(404, f"no such endpoint: {self.path}")

    # -- streaming -----------------------------------------------------------

    def _stream_events(self, job_id: str) -> None:
        """NDJSON event stream: everything so far, then live until terminal."""
        manager = self.service.manager
        manager.status(job_id)  # 404 via KeyError before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        # Content length is unknowable up front; close delimits the body.
        self.send_header("Connection", "close")
        self.end_headers()
        after = 0
        while True:
            events, done = manager.events(
                job_id, after=after, timeout=_STREAM_POLL_S
            )
            for event in events:
                line = json.dumps(event, default=obs.json_default) + "\n"
                try:
                    self.wfile.write(line.encode())
                    self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    return  # client went away; stop following
            after += len(events)
            if done:
                return


class FloorplanService:
    """The composed service: a :class:`JobManager` behind an HTTP server.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    available as :attr:`host` / :attr:`port` after construction.  Use as
    a context manager or call :meth:`close` — it shuts the listener and
    the manager (terminating running jobs) down in order.
    """

    def __init__(
        self,
        data_dir,
        host: str = "127.0.0.1",
        port: int = 8025,
        manager: Optional[JobManager] = None,
        **manager_kwargs: Any,
    ):
        self.manager = manager or JobManager(data_dir, **manager_kwargs)
        handler = type("BoundServiceHandler", (ServiceHandler,), {})
        handler.service = self
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        """The bound listen address."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound TCP port (resolved even when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FloorplanService":
        """Serve in a background thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="service-http",
                daemon=True,
            )
            self._thread.start()
            logger.info("service listening on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's ``serve`` loop)."""
        logger.info("service listening on %s", self.url)
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop accepting, then stop the manager (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.manager.shutdown()

    def __enter__(self) -> "FloorplanService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
