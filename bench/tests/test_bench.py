"""Invariants of the benchmark itself, at tiny sizes.

Run from the checkout root: ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench.trace as trace_mod
from bench import ROOT
from bench import run as bench_run
from bench.compare import verdict
from bench.trace import Tracer
from bench.workloads import (
    WORKLOADS,
    _ledger_outcome,
    request_trace,
    require_same_catalog,
)
from repro.server.frontend import SizeModelResolver
from repro.server.ledger import RequestLedger
from repro.sim.workload import RequestTraceConfig, generate_requests
from repro.web.sites import SiteGenerator


def test_trace_size_mismatch_fails_fast():
    resolver = SizeModelResolver(SiteGenerator(seed=42, n_sites=6))
    assert len(resolver.urls) == 24
    wrong = generate_requests(
        RequestTraceConfig(hours=1.0, n_pages=48, n_requests=100, seed=42)
    )
    with pytest.raises(ValueError, match="48 pages .* 24 URLs"):
        require_same_catalog(wrong, resolver.urls)
    derived = request_trace(resolver.urls, 1.0, 100, 42)
    require_same_catalog(derived, resolver.urls)
    assert derived.n_pages == 24


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_is_correct_and_matches_pinned_digest(name):
    result, detail = bench_run.measure(name, seed=42, seconds=0, traced=False, size="tiny")
    assert detail["errors"] == []
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= bench_run.MIN_REPS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_digest_mismatch_fails_every_operation(monkeypatch):
    pinned = bench_run.load_pinned()
    pinned["tiny"] = dict(pinned["tiny"], network_day="0" * 64)
    monkeypatch.setattr(bench_run, "load_pinned", lambda: pinned)
    result, detail = bench_run.measure("network_day", 42, 0, False, size="tiny")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("pinned" in e for e in detail["errors"])


def test_traced_run_reports_every_layer():
    result, _ = bench_run.measure("network_day", 7, 0, True, size="tiny")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["server.network.self_s"] > 0
    assert values["sim.population.receiver_frames"] > 0
    spans = (bench_run.OUT / "network_day.spans.jsonl").read_text().splitlines()
    assert {"server.network", "sim.population.run"} <= {
        json.loads(line)["name"] for line in spans
    }


def test_ledger_check_flags_non_terminal_and_missing_requests():
    ledger = RequestLedger()
    ledger.insert([0, 1], 0, [0.0, 1.0], 10.0, 10.0, "queued")
    ledger.mark_broadcast(np.array([0]), 20.0)
    failed, errors, counts = _ledger_outcome(ledger, 3)
    assert counts == {"broadcast": 1, "queued": 1}
    assert failed == 2
    assert any("2 rows for 3 requests" in e for e in errors)
    assert any("non-terminal" in e for e in errors)


def test_tracer_self_time_excludes_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start/end, outer end
    monkeypatch.setattr(trace_mod.time, "perf_counter", lambda: next(clock))
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None, record=False)
    outer = tracer.wrap("outer", inner)
    outer()
    assert tracer.total("outer") == 10.0
    assert tracer.self_s("outer") == 8.0
    assert tracer.total("inner") == 2.0
    assert [s[1] for s in tracer.spans] == ["outer"]


def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert verdict(parent, [v * 1.2 for v in parent], "higher", 0.1)[0] == "improved"
    assert verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)[0] == "regressed"
    assert verdict(parent, [v * 0.98 for v in parent], "higher", 0.1)[0] == "no-worse"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, [v * 0.99 for v in noisy], "higher", 0.1)[0] == "unresolved"
    assert verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "improved"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "sms_flood", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
