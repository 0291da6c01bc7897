"""The serve-live server process: a GSum estimator behind ``SketchServer``.

It makes the same calls ``repro serve --sketch gsum --live-chunk`` makes —
``SnapshotStore``, ``QueryEngine`` and ``SketchServer`` at their defaults —
but applies each stream chunk at a fixed due time and records, per chunk,
how late its epoch was applied.  Protocol on stdin/stdout:

* prints ``READY <port>`` once the server accepts connections;
* ``GO <t0>`` starts the writer: chunk k is due at ``t0 + k * period``
  (``time.monotonic()`` seconds);
* ``STOP`` shuts down, writes the process's figures as JSON to ``--out``
  and exits.

Run by ``run.py``; for a manual check::

    python3 perfbench/serve_proc.py --seed 1 --chunks 2 --chunk-size 512 \\
        --period 1 --out /dev/stdout
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from common import peak_rss_mb, use_library


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--chunks", type=int, required=True)
    parser.add_argument("--chunk-size", type=int, required=True)
    parser.add_argument("--period", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    use_library()
    import spans as tracing
    from workloads import estimator, serve_chunks, state_frame

    tracer = patches = None
    if args.trace:
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)

    from repro.serve import QueryEngine, SketchServer, SnapshotStore

    n, chunks = serve_chunks(args.seed, args.chunks, args.chunk_size)
    store = SnapshotStore(estimator(n, args.seed))
    engine = QueryEngine(store)
    server = SketchServer(engine).start_background()
    print(f"READY {server.port}", flush=True)

    due_times: list[float] = []
    applied: list[float] = []
    stop = threading.Event()

    def write(t0: float) -> None:
        for k, (items, deltas) in enumerate(chunks):
            due = t0 + k * args.period
            while not stop.is_set() and time.monotonic() < due:
                stop.wait(min(due - time.monotonic(), 0.05))
            if stop.is_set():
                return
            store.update_batch(items, deltas)
            due_times.append(due)
            applied.append(time.monotonic())

    writer = None
    t0 = None
    for line in sys.stdin:
        command = line.split()
        if command and command[0] == "GO" and writer is None:
            t0 = float(command[1])
            writer = threading.Thread(target=write, args=(t0,), name="writer")
            writer.start()
        elif command and command[0] == "STOP":
            break
    stop.set()
    if writer is not None:
        writer.join()
    ended = time.monotonic()
    # Let the clients' last connections finish closing first, so shutdown
    # cancels no handler in the middle of its close.
    time.sleep(0.2)
    server.stop_background()

    out = {
        "peak_rss_mb": peak_rss_mb(),
        "due": due_times,
        "applied": applied,
        "epoch": store.epoch,
        "cache": engine.cache.stats(),
    }
    if patches is not None:
        patches.restore()
        out["layers"] = tracing.layer_metrics(tracer)
        out["route_s"] = {
            r[7]: r[4] - r[3] for r in tracer.spans if r[2] == "server.route" and r[7]
        }
        if t0 is not None:
            wall_start = t0 - time.monotonic() + time.perf_counter()
            wall_end = ended - time.monotonic() + time.perf_counter()
            wall = wall_end - wall_start
            out["uncovered_share"] = 1.0 - tracer.covered(wall_start, wall_end) / wall
        out["self_time"] = tracing.self_time_table(tracer)
        if args.spans:
            tracer.dump(args.spans)
    out["state_bytes"] = len(state_frame(store.live))
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
