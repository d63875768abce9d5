"""Service telemetry end-to-end: traced compiles over both execution
tiers, the /metrics exposition, and /trace retrieval."""

import os
import re
import urllib.request

import pytest

from repro.service import (
    ResultStore,
    ServiceClient,
    ServiceClientError,
    build_server,
    serve_url,
    shutdown_service,
    start_in_thread,
)

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
creg c[5];
h q[0];
cx q[0], q[4];
cx q[1], q[3];
ccx q[0], q[2], q[4];
measure q -> c;
"""

#: Exposition sample line: metric name, optional label set, value.
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
)


@pytest.fixture(params=["thread", "process"])
def service(request, tmp_path):
    """A running server + client, parametrized over execution tiers."""
    store = ResultStore(root=str(tmp_path / "store"))
    server = build_server(
        port=0, store=store, workers=2, execution=request.param
    )
    start_in_thread(server)
    client = ServiceClient(serve_url(server), timeout=60)
    client.wait_until_healthy()
    try:
        yield client, request.param
    finally:
        shutdown_service(server)


def traced_compile(client, profile=False, trials=2):
    payload = {
        "qasm": QASM,
        "trials": trials,
        "wait": True,
        "trace": True,
    }
    if profile:
        payload["profile"] = True
    return client._request("POST", "/compile", payload)


def fetch_metrics(client):
    with urllib.request.urlopen(
        client.base_url + "/metrics", timeout=30
    ) as resp:
        return resp.headers.get("Content-Type"), resp.read().decode("utf-8")


class TestTraceEndpoint:
    def test_traced_compile_yields_full_timeline(self, service):
        client, tier = service
        reply = traced_compile(client)
        assert reply["state"] == "done"
        assert reply["trace_id"]
        trace = client._request("GET", f"/trace/{reply['id']}")
        assert trace["trace_id"] == reply["trace_id"]
        spans = trace["spans"]
        names = {s["name"] for s in spans}
        required = {
            "http.request", "job.wait", "job.execute",
            "request.execute", "pipeline.run",
        }
        assert required <= names, f"missing {required - names}"
        assert any(name.startswith("pass.") for name in names)
        if tier == "process":
            assert "worker.compile" in names

    def test_parenting_is_correct_across_the_timeline(self, service):
        client, tier = service
        reply = traced_compile(client)
        spans = client._request("GET", f"/trace/{reply['id']}")["spans"]
        by_id = {s["span_id"]: s for s in spans}
        by_name = {s["name"]: s for s in spans}
        root = by_name["http.request"]
        assert root["parent_id"] is None
        assert by_name["job.wait"]["parent_id"] == root["span_id"]
        assert by_name["job.execute"]["parent_id"] == root["span_id"]
        if tier == "process":
            # The worker batch crossed a process boundary: its root
            # span must still resolve to the scheduler-side parent.
            worker = by_name["worker.compile"]
            assert by_id[worker["parent_id"]]["name"] == "job.execute"
            assert worker["attrs"]["pid"] != os.getpid()
        pipeline = by_name["pipeline.run"]
        assert by_id[pipeline["parent_id"]]["name"] == "request.execute"
        for s in spans:
            if s["name"].startswith("pass."):
                assert s["parent_id"] == pipeline["span_id"]

    def test_store_hit_trace_shows_parse_and_fingerprint(self, service):
        client, _ = service
        client.compile(QASM, trials=2)
        reply = traced_compile(client)
        assert reply["cached"]
        spans = client._request("GET", f"/trace/{reply['id']}")["spans"]
        by_name = {s["name"]: s for s in spans}
        root = by_name["http.request"]
        for name in ("request.parse", "request.fingerprint"):
            assert by_name[name]["parent_id"] == root["span_id"]
            assert by_name[name]["wall_seconds"] >= 0.0

    def test_profile_adds_router_aggregates(self, service):
        client, _ = service
        reply = traced_compile(client, profile=True)
        spans = client._request("GET", f"/trace/{reply['id']}")["spans"]
        profiles = [s for s in spans if s["name"] == "router.profile"]
        assert profiles, "profile=true produced no router.profile span"
        attrs = profiles[0]["attrs"]
        assert attrs["steps"] > 0
        assert attrs["kernel_calls"] > 0
        assert attrs["kernel_seconds"] >= 0.0

    def test_unknown_job_is_404(self, service):
        client, _ = service
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", "/trace/no-such-job")
        assert excinfo.value.status == 404

    def test_untraced_compile_stores_no_trace(self, service):
        client, _ = service
        reply = client.compile(QASM, trials=2)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("GET", f"/trace/{reply['id']}")
        assert excinfo.value.status == 404


class TestMetricsEndpoint:
    def test_exposition_parses_and_has_core_series(self, service):
        client, tier = service
        client.compile(QASM, trials=2)
        content_type, text = fetch_metrics(client)
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert SAMPLE_LINE.match(line), f"unparseable line: {line!r}"
        for series in (
            "repro_http_requests_total",
            "repro_uptime_seconds",
            "repro_store_hits_total",
            "repro_scheduler_executions_total",
            "repro_scheduler_queue_depth",
            'repro_scheduler_health{state="ok"} 1',
            "repro_engine_cache_hits_total",
            'repro_queue_wait_seconds_bucket{le="+Inf"}',
            "repro_execute_seconds_sum",
            "repro_pass_executions_total",
        ):
            assert series in text, f"missing series: {series}"

    def test_metrics_agree_with_stats(self, service):
        client, _ = service
        client.compile(QASM, trials=2)
        client.compile(QASM, trials=2)  # store hit
        stats = client.stats()
        _, text = fetch_metrics(client)
        executions = stats["scheduler"]["executions"]
        hits = stats["store"]["hits"]
        assert f"repro_scheduler_executions_total {executions}" in text
        assert f"repro_store_hits_total {hits}" in text
