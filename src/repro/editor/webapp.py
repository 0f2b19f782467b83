"""The web face of the Application Editor: a Flask JSON API.

The paper's editor was a browser GUI loaded from the VDCE Server after
authentication; this module reproduces the protocol behind it as a REST
API (the 1997 applet's drawing surface is out of scope; every operation
it performed — menu browsing, task placement, wiring, property editing,
validation, submission — is an endpoint here).

Endpoints (all JSON):

    POST /login                      {user, password}        -> {token}
    GET  /libraries                                          -> menus
    POST /applications               {name}                  -> {application}
    GET  /applications                                        -> {applications}
    POST /applications/<app>/tasks   {task_type, id?, ...}   -> {task_id}
    POST /applications/<app>/edges   {src, dst, ports, size} -> {ok}
    POST /applications/<app>/files   {task, port, path, size}-> {ok}
    PATCH /applications/<app>/tasks/<task> {properties}      -> {ok}
    GET  /applications/<app>                                  -> AFG JSON
    POST /applications/<app>/validate                         -> {problems}
    POST /applications/<app>/submit  {k?}                    -> result summary
    GET  /applications/<app>/result                           -> full result
    GET  /applications/<app>/gantt                            -> text chart
    GET  /metrics                    (no auth)  -> Prometheus exposition

Authentication: the token returned by /login goes in the
``X-VDCE-Token`` header of every later request (``/metrics`` is the
standard unauthenticated scrape target).

Flask is an optional dependency (``pip install repro[web]``); importing
this module without Flask raises a clear error.
"""

from __future__ import annotations

import secrets
from typing import Dict

try:
    from flask import Flask, jsonify, request
except ImportError as _exc:  # pragma: no cover - environment without flask
    Flask = None
    _import_error = _exc

from repro.afg.serialize import afg_to_dict
from repro.afg.validate import AFGValidationError
from repro.editor.builder import BuilderError
from repro.editor.session import EditorSession, SessionError
from repro.repository.users import AuthenticationError, UnknownUserError
from repro.runtime.admission import AdmissionExpired, AdmissionRejected
from repro.runtime.vdce_runtime import VDCERuntime
from repro.scheduler.site_scheduler import SchedulingError

__all__ = ["create_webapp"]


def create_webapp(runtime: VDCERuntime, site: str | None = None,
                  admission=None):
    """Build the Flask app serving one site's Application Editor.

    With ``admission`` (an
    :class:`~repro.runtime.admission.AdmissionQueue`), submissions are
    routed through bounded admission: shed submissions return 429 and
    the submit JSON carries the queue's occupancy.
    """
    if Flask is None:  # pragma: no cover
        raise ImportError(
            "flask is required for the web editor; install repro[web]"
        ) from _import_error

    site = site or runtime.default_site
    app = Flask("vdce-editor")
    sessions: Dict[str, EditorSession] = {}

    def current_session() -> EditorSession:
        token = request.headers.get("X-VDCE-Token", "")
        session = sessions.get(token)
        if session is None:
            raise AuthenticationError("missing or invalid session token")
        return session

    @app.errorhandler(AuthenticationError)
    def auth_error(exc):
        return jsonify({"error": str(exc)}), 401

    @app.errorhandler(SessionError)
    @app.errorhandler(BuilderError)
    def client_error(exc):
        return jsonify({"error": str(exc)}), 400

    @app.errorhandler(AFGValidationError)
    def validation_error(exc):
        return jsonify({"error": "validation failed", "problems": exc.problems}), 422

    @app.errorhandler(KeyError)
    def missing_field(exc):
        return jsonify({"error": f"missing required field: {exc}"}), 400

    @app.errorhandler(UnknownUserError)
    def unknown_user(exc):
        # more specific than the KeyError handler above: a submission
        # under a nonexistent account is a permission problem, not a
        # malformed request
        return jsonify({"error": str(exc)}), 403

    @app.errorhandler(AdmissionRejected)
    @app.errorhandler(AdmissionExpired)
    def admission_shed(exc):
        # 429: the deployment is shedding load; retry later
        return jsonify({"error": str(exc)}), 429

    @app.errorhandler(SchedulingError)
    def scheduling_error(exc):
        # 409: the graph is valid but no resources can satisfy it
        return jsonify({"error": f"scheduling failed: {exc}"}), 409

    @app.get("/")
    def index():
        lines = [
            "VDCE Application Editor (paper section 2, over HTTP/JSON)",
            f"site: {site}",
            "",
            "POST /login {user, password}            -> {token}",
            "   pass the token as X-VDCE-Token on every other request",
            "GET  /libraries                          -> task menus",
            "POST /applications {name}",
            "POST /applications/import                <- serialised AFG",
            "GET  /applications",
            "POST /applications/<app>/tasks {task_type, ...}",
            "POST /applications/<app>/edges {src, dst, ports, size_mb}",
            "POST /applications/<app>/files {task, port, path, size_mb}",
            "PATCH /applications/<app>/tasks/<task> {properties}",
            "GET  /applications/<app>                 -> AFG JSON",
            "POST /applications/<app>/validate",
            "POST /applications/<app>/submit {k?}",
            "GET  /applications/<app>/result | /gantt | /report",
            "GET  /metrics                            -> Prometheus text",
        ]
        return "\n".join(lines), 200, {"Content-Type": "text/plain"}

    @app.get("/metrics")
    def metrics():
        from repro.metrics.export import prometheus_text

        text = prometheus_text(runtime.export_metrics())
        return text, 200, {"Content-Type": "text/plain; version=0.0.4"}

    @app.post("/login")
    def login():
        body = request.get_json(force=True)
        session = EditorSession(
            runtime, site, body.get("user", ""), body.get("password", "")
        )
        token = secrets.token_hex(16)
        sessions[token] = session
        return jsonify(
            {
                "token": token,
                "site": site,
                "user": session.account.user_name,
                "priority": session.account.priority,
                "access_domain": session.account.access_domain.value,
            }
        )

    @app.get("/libraries")
    def libraries():
        return jsonify(current_session().libraries())

    @app.post("/applications")
    def create_application():
        body = request.get_json(force=True)
        name = body.get("name", "")
        current_session().new_application(name)
        return jsonify({"application": name}), 201

    @app.get("/applications")
    def list_applications():
        return jsonify({"applications": current_session().applications()})

    @app.post("/applications/import")
    def import_application():
        body = request.get_json(force=True)
        afg = current_session().import_application(body)
        return jsonify({"application": afg.name, "tasks": len(afg)}), 201

    @app.post("/applications/<name>/tasks")
    def add_task(name):
        body = request.get_json(force=True)
        builder = current_session().application(name)
        task_id = builder.add(
            body["task_type"],
            id=body.get("id"),
            mode=body.get("mode", "sequential"),
            n_nodes=body.get("n_nodes", 1),
            preferred_machine=body.get("preferred_machine"),
            preferred_machine_type=body.get("preferred_machine_type"),
            workload_scale=body.get("workload_scale", 1.0),
            memory_mb=body.get("memory_mb", 0),
        )
        return jsonify({"task_id": task_id}), 201

    @app.post("/applications/<name>/edges")
    def add_edge(name):
        body = request.get_json(force=True)
        builder = current_session().application(name)
        builder.connect(
            body["src"],
            body["dst"],
            src_port=body.get("src_port", 0),
            dst_port=body.get("dst_port", 0),
            size_mb=body.get("size_mb"),
        )
        return jsonify({"ok": True}), 201

    @app.post("/applications/<name>/files")
    def bind_file(name):
        body = request.get_json(force=True)
        builder = current_session().application(name)
        builder.bind_file(
            body["task"], body["port"], body["path"], body["size_mb"]
        )
        return jsonify({"ok": True}), 201

    @app.delete("/applications/<name>/tasks/<task_id>")
    def delete_task(name, task_id):
        current_session().application(name).remove(task_id)
        return jsonify({"ok": True})

    @app.delete("/applications/<name>/edges")
    def delete_edge(name):
        body = request.get_json(force=True)
        current_session().application(name).disconnect(
            body["src"], body["dst"],
            src_port=body.get("src_port", 0),
            dst_port=body.get("dst_port", 0),
        )
        return jsonify({"ok": True})

    @app.patch("/applications/<name>/tasks/<task_id>")
    def edit_task(name, task_id):
        body = request.get_json(force=True)
        current_session().application(name).set_properties(task_id, **body)
        return jsonify({"ok": True})

    @app.get("/applications/<name>")
    def get_application(name):
        builder = current_session().application(name)
        return jsonify(afg_to_dict(builder.preview()))

    @app.post("/applications/<name>/validate")
    def validate(name):
        builder = current_session().application(name)
        # validate a built copy without mutating the canvas? build() is
        # idempotent over bindings, so validating in place is fine
        try:
            builder.build(validate=True)
            return jsonify({"problems": []})
        except AFGValidationError as exc:
            return jsonify({"problems": exc.problems}), 422

    @app.get("/applications/<name>/result")
    def get_result(name):
        result = current_session().result(name)
        return jsonify(result.to_dict())

    @app.get("/applications/<name>/gantt")
    def get_gantt(name):
        from repro.viz import gantt

        result = current_session().result(name)
        return gantt(result), 200, {"Content-Type": "text/plain"}

    @app.get("/applications/<name>/report")
    def get_report(name):
        from repro.viz import execution_report

        result = current_session().result(name)
        return execution_report(result), 200, {"Content-Type": "text/plain"}

    @app.post("/applications/<name>/submit")
    def submit(name):
        body = request.get_json(force=True) if request.data else {}
        session = current_session()
        result = session.submit(
            name,
            k=body.get("k", 2),
            execute_payloads=body.get("execute_payloads", True),
            admission=admission,
            deadline_s=body.get("deadline_s"),
            ttl_s=body.get("ttl_s"),
        )
        payload = {
                "application": result.application,
                "scheduler": result.scheduler,
                "makespan_s": result.makespan,
                "setup_s": result.setup_time,
                "tasks": {
                    t: {
                        "site": r.site,
                        "hosts": list(r.hosts),
                        "predicted_s": r.predicted_time,
                        "measured_s": r.measured_time,
                        "attempts": r.attempts,
                        "transfer_retries": r.transfer_retries,
                        "channel_reestablishes": r.channel_reestablishes,
                    }
                    for t, r in result.records.items()
                },
                "reschedules": result.reschedules,
                "transfer_retries": result.transfer_retries,
                "channel_reestablishes": result.channel_reestablishes,
        }
        if admission is not None:
            payload["admission"] = {
                "queued": admission.queued,
                "running": admission.running,
            }
        return jsonify(payload)

    return app
