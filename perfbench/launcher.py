"""Benchmark-owned server process: open one session, serve it over HTTP.

Run by ``perfbench/run.py`` as its own process::

    python3 perfbench/launcher.py SPEC.json [--trace SPANS.json]

``SPEC.json`` names only generated inputs: an edge list plus the target
links (``"open": "built"`` or ``"sharded"``), or a snapshot file
(``"open": "snapshot"``).  Once the server answers, the launcher prints
``PORT <n>`` on stdout; it drains and exits when its stdin closes.  With
``--trace`` the span wrappers are installed before the session opens and
every recorded span is written to ``SPANS.json`` on exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def open_session(spec: dict):
    """Open the session ``spec`` describes through the library's entry points."""
    import repro.graphs.io as graph_io
    from repro.service import ProtectionService, ShardedProtectionService

    if spec["open"] == "snapshot":
        return ProtectionService.from_snapshot(spec["snapshot"])
    graph = graph_io.read_edge_list(spec["edges"])
    targets = [tuple(target) for target in spec["targets"]]
    if spec["open"] == "sharded":
        return ShardedProtectionService(
            graph, targets, motif=spec["motif"], shards=spec["shards"]
        )
    return ProtectionService(graph, targets, motif=spec["motif"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    parser.add_argument("--trace", help="write the recorded spans here on exit")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    recorder = None
    if args.trace:
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    from repro.server import ProtectionServer, serve_in_background

    spec = json.loads(Path(args.spec).read_text())
    server = ProtectionServer(open_session(spec))
    handle = serve_in_background(server)
    print(f"PORT {handle.port}", flush=True)
    sys.stdin.read()  # the load generator closes stdin to stop the server
    handle.stop()
    if recorder is not None:
        Path(args.trace).write_text(json.dumps(recorder.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
