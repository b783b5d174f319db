"""End-to-end serving benchmark for the TPP protection server.

One command starts a real ``ProtectionServer`` in its own process
(``perfbench/launcher.py``), drives it over loopback HTTP from this
process, checks every answer against an in-process oracle session, and
prints the metrics of one workload::

    python3 perfbench/run.py --workload steady_solve --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload twice, untraced and then with the span wrappers of
``perfbench/tracing.py`` installed in the server, and reports the
per-layer split.  The last stdout line is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the exit code is non-zero on any
wrong answer.  ``perfbench/DESIGN.md`` explains each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Server launches per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Equal sub-windows of the measured window; latency and throughput
#: figures are medians over them, so a burst of interference from another
#: tenant of the machine moves at most a minority of the sub-windows.
PHASES = 5
#: ``solve_p99_ms`` has at least ten samples beyond it from this many solves.
P99_SOLVES = 1000

Metrics = Dict[str, Tuple[float, str]]


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _prepare_environment() -> Path:
    """Pin what changes the program under test; compile the native kernel."""
    for name in ("REPRO_SHARDS", "REPRO_NATIVE"):
        os.environ.pop(name, None)
    native_cache = WORK / "native"
    os.environ["REPRO_NATIVE_CACHE"] = str(native_cache)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from repro._native import build_library, find_compiler

    if find_compiler() is not None:
        build_library()
    return native_cache


def _check_kernel(kernels: set) -> List[str]:
    """Every answer must echo one kernel: the one the first run in this checkout saw."""
    if len(kernels) != 1:
        return [f"answers echoed several kernels: {sorted(kernels)}"]
    kernel = next(iter(kernels))
    record = WORK / "kernel.json"
    if not record.exists():
        record.write_text(json.dumps({"kernel": kernel}))
    first = json.loads(record.read_text())["kernel"]
    if kernel != first:
        return [f"kernel {kernel!r} differs from the first run's {first!r}"]
    return []


def _ms(seconds: float) -> float:
    return seconds * 1000.0


@dataclass
class Pass:
    """One server launch driven through the workload, checked."""

    setup_s: float
    run: object
    rss_mb: float
    stats: dict
    wrong: int
    messages: List[str]
    solve: Dict[str, float]

    @property
    def attempted(self) -> int:
        return len(self.run.samples) + len(self.run.reloads)


def _measure(workload, spec: Path, env: Dict[str, str], seconds: float,
             trace_path: Optional[Path] = None) -> Pass:
    from loadgen import ServerProcess

    server = ServerProcess(spec, env, trace_path)
    try:
        run = workload.drive(server, seconds)
        rss_mb = server.peak_rss_mb()
        stats = server.get("/stats")
    finally:
        server.stop()
    wrong, messages = workload.check(run)
    return Pass(server.setup_s, run, rss_mb, stats, wrong, messages, _solve_stats(run))


def _overlap(lo: float, hi: float, start: float, stop: float) -> float:
    return max(0.0, min(hi, stop) - max(lo, start))


def _solve_stats(run) -> Dict[str, float]:
    """Latency percentiles and throughput of the solves in the measured window.

    ``p50``/``p90`` are medians over ``PHASES`` sub-windows (a solve belongs
    to the sub-window it was sent in); ``qps`` is the median sub-window
    throughput, counting a solve that straddles a sub-window edge by the
    share of its latency inside.  ``p99`` is pooled over the window.
    """
    from loadgen import percentile

    window = [s for s in run.in_window() if s.status == 200]
    if not window:
        raise RuntimeError("no solve completed inside the measured window")
    start, stop = run.window
    width = (stop - start) / PHASES
    edges = [(start + k * width, start + (k + 1) * width) for k in range(PHASES)]
    phases: List[List[float]] = [[] for _ in edges]
    for s in window:
        phases[min(PHASES - 1, int((s.sent - start) / width))].append(s.done - s.sent)
    phases = [phase for phase in phases if phase]
    ok = [s for s in run.samples if s.status == 200]
    rates = [
        sum(_overlap(s.sent, s.done, lo, hi) / (s.done - s.sent) for s in ok) / width
        for lo, hi in edges
    ]
    latencies = [s.done - s.sent for s in window]
    sent = [s for s in ok if s.sent >= start]
    return {
        "solves": len(window),
        "user_cpu_ms": _ms(run.cpu[0]) / max(1, len(sent)),
        "sys_cpu_ms": _ms(run.cpu[1]) / max(1, len(sent)),
        "p50": _ms(statistics.median(percentile(p, 0.50) for p in phases)),
        "p90": _ms(statistics.median(percentile(p, 0.90) for p in phases)),
        "p99": _ms(percentile(latencies, 0.99)),
        "qps": statistics.median(rates),
        "overhead": _ms(statistics.median(s.done - s.sent - s.solve_s for s in window)),
        "overhead_mean": _ms(statistics.fmean(s.done - s.sent - s.solve_s for s in window)),
        "queue": _ms(statistics.median(s.queue_s for s in window)),
    }


def _reload_stats(run) -> Dict[str, float]:
    from loadgen import percentile

    if not run.reloads:
        return {"p50": 0.0, "p90": 0.0, "lag_p99": 0.0}
    latencies = [r.done - r.scheduled for r in run.reloads]
    lags = [r.sent - r.scheduled for r in run.reloads]
    return {
        "p50": _ms(percentile(latencies, 0.5)),
        "p90": _ms(percentile(latencies, 0.9)),
        "lag_p99": _ms(percentile(lags, 0.99)),
    }


def _end_to_end(setups: List[float], measured: Pass) -> Metrics:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "solve_user_cpu_ms": (measured.solve["user_cpu_ms"], "ms"),
        "peak_rss_mb": (measured.rss_mb, "MiB"),
    }


def _per_layer(workload, untraced: Pass, traced: Pass, spans: List[tuple]) -> Metrics:
    """The per-layer split (DESIGN.md defines every name)."""
    from tracing import LAYERS, self_times

    start, stop = traced.run.window
    by_name: Dict[str, List[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    own = self_times(spans)
    windowed = [s for s in spans if s[2] >= start and s[3] <= stop]
    sharded_ids = {s[0] for s in by_name.get("sharding.solve", ())}

    def median_ms(found, self_time: bool = False) -> float:
        values = [own[s[0]] if self_time else s[3] - s[2] for s in found]
        return _ms(statistics.median(values)) if values else 0.0

    def named(name: str) -> List[tuple]:
        return by_name.get(name, [])

    def count(name: str, found=None) -> int:
        return sum(s[6] for s in (named(name) if found is None else found))

    roots = [s for s in windowed if s[4] is None and s[1] in ("service.solve", "sharding.solve")]
    shard_solves = [s for s in windowed if s[1] == "service.solve" and s[4] in sharded_ids]
    samples = untraced.run.in_window()
    subset = [s for s in samples if not s.shard_mode and workload.request(s.index).targets]
    sharded = [s for s in samples if s.shard_mode]
    stats = untraced.stats
    reload = _reload_stats(untraced.run)
    solve = untraced.solve

    metrics: Metrics = {
        "solve_p50_ms": (solve["p50"], "ms"),
        "solve_p90_ms": (solve["p90"], "ms"),
        "solve_p99_ms": (solve["p99"], "ms"),
        "solve_qps": (solve["qps"], "1/s"),
        "solve_sys_cpu_ms": (solve["sys_cpu_ms"], "ms"),
        "reload_p50_ms": (reload["p50"], "ms"),
        "reload_p90_ms": (reload["p90"], "ms"),
        "error_rate": ((untraced.wrong + traced.wrong) / (untraced.attempted + traced.attempted), "ratio"),
        "loadgen.solves": (solve["solves"], "count"),
        "loadgen.warmup_s": (untraced.run.warmup_s, "s"),
        "loadgen.lag_p99_ms": (reload["lag_p99"], "ms"),
        "server.overhead_ms": (solve["overhead"], "ms"),
        "server.queue_ms": (solve["queue"], "ms"),
        "server.rejected": (stats["rejected"], "count"),
        "server.solve_errors": (stats["solve_errors"], "count"),
        "server.coalesced_hits": (stats["coalesced_hits"], "count"),
        "service.solve_ms": (median_ms(roots), "ms"),
        "service.subset_requests": (len(subset), "count"),
        "service.subset_hit_ratio": (
            sum(s.reused_index for s in subset) / len(subset) if subset else 0.0, "ratio"
        ),
        "service.subset_build_ms": (median_ms(named("service.subset_build")), "ms"),
        "sharding.scatter_share": (
            sum(s.shard_mode == "scatter-gather" for s in sharded) / len(sharded) if sharded else 0.0,
            "ratio",
        ),
        "sharding.self_ms": (median_ms(named("sharding.solve"), self_time=True), "ms"),
        "sharding.shard_solve_ms": (median_ms(shard_solves), "ms"),
        "core.greedy_ms": (median_ms(named("core.greedy")), "ms"),
        "coverage.copy_ms": (median_ms(named("core.copy")), "ms"),
        "coverage.deletions": (count("core.greedy", [s for s in windowed if s[1] == "core.greedy"]), "count"),
        "graphs.phase1_ms": (median_ms(named("graphs.phase1")), "ms"),
        "graphs.freeze_ms": (median_ms(named("graphs.freeze")), "ms"),
        "enumeration.build_ms": (median_ms(named("enumeration.build"), self_time=True), "ms"),
        "enumeration.instances": (count("enumeration.build"), "count"),
        "updates.apply_ms": (median_ms(named("updates.apply")), "ms"),
        "updates.targets_reenumerated": (count("updates.apply"), "count"),
        "persistence.snapshot_load_ms": (median_ms(named("persistence.snapshot_load")), "ms"),
        "persistence.delta_load_ms": (median_ms(named("persistence.delta_load")), "ms"),
        "persistence.hash_ms": (median_ms(named("persistence.hash")), "ms"),
        "trace.overhead_pct": (100.0 * (traced.solve["p50"] / solve["p50"] - 1.0), "%"),
    }
    # self time of each layer inside the traced window, per answered request;
    # the server is timed from outside, so its share is the client latency
    # not spent in the session solve
    requests = max(1, len(roots))
    for layer in LAYERS:
        total = _ms(sum(own[s[0]] for s in windowed if s[1].split(".")[0] == layer))
        metrics[f"self.{layer}_ms"] = (total / requests, "ms")
    metrics["self.server_ms"] = (traced.solve["overhead_mean"], "ms")
    return metrics


def _report(workload, seed: int, seconds: float, trace: int, passes: List[Pass],
            metrics: Metrics, extra_messages: List[str], kernels: set) -> int:
    import numpy

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.wrong for p in passes) + len(extra_messages)
    first = passes[0]
    print(
        f"workload {workload.name} seed {seed} window {seconds:g}s "
        f"warm-up {first.run.warmup_s:.2f}s trace {trace}; kernel {','.join(sorted(kernels))} "
        f"nproc {os.cpu_count()} python {platform.python_version()} numpy {numpy.__version__}"
    )
    solve, reload = first.solve, _reload_stats(first.run)
    p99 = (f"{solve['p99']:.3f} ms" if solve["solves"] >= P99_SOLVES
           else f"n/a ({solve['solves']} solves < {P99_SOLVES})")
    print(
        f"first pass: {solve['solves']} solves in window; p50 {solve['p50']:.3f} ms, "
        f"p90 {solve['p90']:.3f} ms, p99 {p99}, {solve['qps']:.2f} solves/s"
        + (f"; reload p50 {reload['p50']:.3f} ms, p90 {reload['p90']:.3f} ms, "
           f"writer lag p99 {reload['lag_p99']:.3f} ms" if first.run.reloads else "")
    )
    print(f"attempted {attempted}, failed {failed}, error_rate {failed / max(1, attempted):.6f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.4f} {unit}")
    messages = [m for p in passes for m in p.messages] + extra_messages
    for message in messages[:20]:
        print(f"WRONG: {message}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no repro package under {SRC}; run from a full checkout")
    WORK.mkdir(exist_ok=True)
    native_cache = _prepare_environment()

    from loadgen import ServerProcess, server_env
    from tracing import missing_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](WORK, args.seed)
    workload.prepare(args.seconds)
    spec = workload.spec()
    env = server_env(native_cache)

    extra_messages: List[str] = []
    if args.trace == 0:
        setups = []
        for _ in range(SETUPS - 1):
            server = ServerProcess(spec, env)
            server.stop()
            setups.append(server.setup_s)
        passes = [_measure(workload, spec, env, args.seconds)]
        metrics = _end_to_end(setups + [passes[0].setup_s], passes[0])
    else:
        trace_path = workload.work / "spans.json"
        trace_path.unlink(missing_ok=True)
        passes = [
            _measure(workload, spec, env, args.seconds),
            _measure(workload, spec, env, args.seconds, trace_path),
        ]
        spans = [tuple(span) for span in json.loads(trace_path.read_text())]
        missing = missing_spans(spans, workload.required_spans)
        if missing:
            extra_messages.append(f"traced run recorded no {', '.join(missing)} span")
        metrics = _per_layer(workload, passes[0], passes[1], spans)

    kernels = {s.kernel for p in passes for s in p.run.samples if s.status == 200}
    extra_messages += _check_kernel(kernels)
    return _report(workload, args.seed, args.seconds, args.trace, passes,
                   metrics, extra_messages, kernels)


if __name__ == "__main__":
    sys.exit(main())
