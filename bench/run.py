"""Benchmark driver: one workload in this process, or all five in turn.

With ``--workload`` the named workload runs here: it repeats set-up, the
timed phase and the correctness check until ``--seconds`` have passed
(at least :data:`MIN_REPS` times; the first repetition is a warm-up and
is left out of every median), then prints its metrics and, as the last
line, one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, ``trace.overhead_ratio`` included, and writes the
spans to ``bench/out/<workload>.spans.jsonl``.

Without ``--workload`` every workload runs in its own fresh subprocess,
one after another (twice each with ``--trace``), and the collected
results go to ``bench/out/results-<sha>-<time>.json`` for
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

from bench import ROOT
from bench.trace import Tracer, instrument, write_spans
from bench.workloads import WORKLOADS

OUT = ROOT / "bench" / "out"
#: One warm-up plus three measured repetitions, whatever ``--seconds`` says.
MIN_REPS = 4
DETAIL_PREFIX = "bench-detail "

#: The workload-specific end-to-end numbers, printed and stored with
#: their units.  They are deterministic for a seed (fractions, simulated
#: time) or another view of ``ops_per_s``, so only the uniform metrics
#: of ``BENCHMARK.json`` gate a change.
WORKLOAD_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "req/s",
    "served_fraction": "fraction",
    "air_p50_s": "sim s",
    "air_p99_s": "sim s",
    "audio_realtime_x": "audio s/s",
    "pages_on_screen_fraction": "fraction",
    "frame_loss_fraction": "fraction",
    "station_hours_per_s": "station-h/s",
    "receiver_frames_per_s": "frames/s",
    "min_goodput_bps": "bps",
}


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pinned() -> dict:
    return json.loads((ROOT / "bench" / "pinned.json").read_text())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, layers: dict, wall_s: float) -> dict:
    """Per-layer numbers of one traced repetition (``BENCHMARK.json`` names)."""
    total, own, count = tracer.total, tracer.self_s, tracer.count
    wait = total("server.catalog.wait")
    metrics = {
        "radio.channel_s": total("radio.channel"),
        "fec.viterbi_s": total("fec.viterbi"),
        "fec.rs_decode_s": total("fec.rs_decode"),
        "fec.encode_s": total("fec.encode"),
        "fec.frames_failed": 0.0,
        "modem.rx_s": own("modem.rx"),
        "modem.tx_s": own("modem.tx"),
        "client.ingest_s": own("client.ingest"),
        "imaging.decode_s": total("imaging.decode"),
        "client.pages_completed": 0.0,
        "server.transmitters.burst_hit_ratio": 0.0,
        "server.ledger.write_s": total("server.ledger.write"),
        "server.ledger.flush_s": own("server.ledger.flush"),
        "server.ledger.read_s": own("server.ledger.read"),
        "server.ledger.rows": 0.0,
        # The pipelined commit stage parks on an executor thread while the
        # event loop idles, so its wait is not front-end work.
        "server.frontend.self_s": max(0.0, own("server.frontend") - wait),
        "server.frontend.cohorts": 0.0,
        "server.frontend.deferred": 0.0,
        "server.frontend.shed": 0.0,
        "server.frontend.coalesce_ratio": 0.0,
        "server.resolver.resolve_s": total("server.resolver.resolve"),
        "server.catalog.submit_s": total("server.catalog.submit"),
        "server.catalog.wait_s": wait,
        "server.catalog.prefetch_used_ratio": 0.0,
        "server.cache.hit_rate": 0.0,
        "web.render.s_per_page": _ratio(total("web.render"), count("web.render")),
        "imaging.encode.s_per_page": _ratio(
            total("imaging.encode"), count("imaging.encode")
        ),
        "transport.carousel.enqueue_s": total("transport.carousel.enqueue"),
        "transport.carousel.enqueues": float(count("transport.carousel.enqueue")),
        "transport.carousel.drain_s": total("transport.carousel.drain"),
        "server.network.self_s": own("server.network"),
        "server.scheduler.rebalance_s": total("server.scheduler.rebalance"),
        "server.scheduler.observe_s": total("server.scheduler.observe"),
        "server.scheduler.select_s": total("server.scheduler.select"),
        "sim.population.run_s": total("sim.population.run"),
        "sim.population.receiver_frames": 0.0,
        "sim.workload.trace_s": total("sim.workload.trace"),
        "trace.wall_s": wall_s,
    }
    unknown = set(layers) - set(metrics)
    if unknown:
        raise KeyError(f"workload reported unknown layer metrics: {sorted(unknown)}")
    metrics.update(layers)
    return metrics


def measure(
    name: str, seed: int, seconds: float, traced: bool, size: str = "full"
) -> tuple[dict, dict]:
    """Run one workload; returns (contract result, detail)."""
    spec = load_spec()
    pinned = load_pinned()
    workload = WORKLOADS[name](seed, size)
    reps: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    first_digest = None
    all_spans: list[tuple] = []
    start = time.perf_counter()
    clock = time.perf_counter
    while len(reps) < MIN_REPS or clock() - start < seconds:
        i = len(reps)
        tracer = Tracer()
        tracer.cohort = i
        traced_rep = traced and i % 2 == 1
        state = None
        try:
            with instrument(tracer) if traced_rep else nullcontext():
                t0 = clock()
                state = workload.setup(tracer)
                t1 = clock()
                ops = workload.run(state, tracer)
                t2 = clock()
            outcome = workload.check(state, first=i == 0)
        finally:
            if state is not None:
                workload.close(state)
            # Leave no garbage of this repetition for the next one's timing.
            gc.collect()
        if i == 1:
            # Peak memory after the warm-up and one measured repetition: a
            # fixed count, so the number the time budget allows cannot move it.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rep_errors = list(outcome.errors)
        if first_digest is None:
            first_digest = outcome.digest
        elif outcome.digest != first_digest:
            rep_errors.append(f"repetition {i} digest differs from repetition 0")
        expected = pinned[size][name] if seed == pinned["seed"] else outcome.digest
        if outcome.digest != expected:
            rep_errors.append(f"digest {outcome.digest} differs from the pinned {expected}")
        attempted += outcome.attempted
        # A failed correctness check fails every operation of its repetition.
        failed += outcome.attempted if rep_errors else outcome.failed
        errors += rep_errors
        rep = {
            "setup_s": t1 - t0,
            "run_s": t2 - t1,
            "ops": ops,
            "traced": traced_rep,
            "fidelity": outcome.fidelity,
        }
        if traced_rep:
            rep["layers"] = layer_metrics(tracer, outcome.layers, t2 - t1)
            all_spans += tracer.spans
        reps.append(rep)

    measured = reps[1:]  # repetition 0 is the warm-up
    untraced = [r for r in measured if not r["traced"]]
    ops_per_s = statistics.median(r["ops"] / r["run_s"] for r in untraced)
    setup_s = statistics.median(r["setup_s"] for r in untraced)
    if traced:
        traced_reps = [r for r in measured if r["traced"]]
        values = {
            key: statistics.median(r["layers"][key] for r in traced_reps)
            for key in traced_reps[0]["layers"]
        }
        values["trace.overhead_ratio"] = (
            statistics.median(r["run_s"] for r in traced_reps)
            / statistics.median(r["run_s"] for r in untraced)
            - 1.0
        )
        section = "per_layer"
        write_spans(all_spans, OUT / f"{name}.spans.jsonl")
    else:
        values = {"ops_per_s": ops_per_s, "setup_s": setup_s, "peak_rss_mb": rss_mb}
        section = "end_to_end"
    metrics = {}
    for entry in spec[section]:
        if entry["name"] not in values:
            raise KeyError(f"{name} produced no value for {entry['name']}")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}

    extra = {"setup_s": setup_s, "peak_rss_mb": rss_mb, workload.primary: ops_per_s}
    for key in workload.reported:
        extra[key] = statistics.median(r["fidelity"][key] for r in untraced)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "op_unit": workload.op_unit,
        "digest": first_digest,
        "errors": errors,
        "workload_metrics": extra,
        "air_samples": reps[0]["fidelity"].get("air_samples"),
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "elapsed_s": clock() - start,
    }
    return result, detail


def _print_workload(result: dict, detail: dict) -> None:
    name = detail["workload"]
    n = len(detail["reps"])
    mode = "traced" if detail["traced"] else "untraced"
    print(
        f"{name}: seed {detail['seed']}, {n} repetitions (1 warm-up) in "
        f"{detail['elapsed_s']:.1f} s, {mode}; one op = one {detail['op_unit']}"
    )
    metrics = result["metrics"]
    wall = metrics.get("trace.wall_s", {}).get("value")
    for key, m in metrics.items():
        if detail["traced"] and m["value"] == 0:
            continue  # a layer this workload does not exercise
        share = ""
        if wall and m["unit"] == "s" and key != "trace.wall_s":
            share = f"  ({100.0 * m['value'] / wall:5.1f}% of timed wall)"
        print(f"  {key:<38} {m['value']:>14.6g} {m['unit']}{share}")
    if not detail["traced"]:
        for key, value in detail["workload_metrics"].items():
            if key in metrics:
                continue
            print(f"  {key:<38} {value:>14.6g} {WORKLOAD_METRICS[key]}")
        if "air_p50_s" in detail["workload_metrics"]:
            print(f"  {'air latency samples':<38} {detail['air_samples']:>14d}")
    for err in detail["errors"]:
        print(f"  CHECK FAILED: {err}")
    print(
        f"  correct {'yes' if result['correct'] else 'NO'}, attempted "
        f"{result['attempted']}, failed {result['failed']}"
    )


def _run_one(args) -> int:
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_workload(result, detail)
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _machine() -> dict:
    """Run metadata stored with every results file."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "nogit"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _run_all(args) -> int:
    """Each workload in a fresh subprocess, in order; results to a file."""
    machine = _machine()
    runs = []
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [
                sys.executable, "-m", "bench", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=600
            )
            lines = proc.stdout.splitlines()
            detail = result = None
            for line in lines:
                if line.startswith(DETAIL_PREFIX):
                    detail = json.loads(line[len(DETAIL_PREFIX):])
                elif line.startswith("{"):
                    result = json.loads(line)
                else:
                    print(line)
            sys.stdout.flush()
            if proc.returncode != 0 or result is None:
                sys.stderr.write(proc.stderr)
                print(f"{name}: exit code {proc.returncode}")
                status = 1
            runs.append({"workload": name, "trace": trace, "result": result,
                         "detail": detail})
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / f"results-{machine['git_sha'][:12]}-{stamp}.json"
    path.write_text(json.dumps({"machine": machine, "seed": args.seed,
                                "seconds": args.seconds, "runs": runs}, indent=1))
    print(f"results -> {path.relative_to(ROOT)}")
    return status


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=load_pinned()["seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload:
        return _run_one(args)
    return _run_all(args)
