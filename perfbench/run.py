"""End-to-end pipeline benchmark: stream in to answer out.

One run measures one workload for about ``--seconds`` seconds and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Lines before it
give the environment record, every metric with its unit, the figures that
are reported but not compared run to run, and the correctness gates.  A
gate miss makes the exit code 1.

    python3 perfbench/run.py --workload ingest-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Workloads: ingest-hot, ingest-wide, dist-two-pass, serve-live (see
``workloads.WHY``).  Inputs are generated from ``--seed``; the library is
imported from the checkout's ``src/`` and runs at its defaults (the run
refuses to start while a ``REPRO_*`` variable is set).
"""

from __future__ import annotations

import argparse
import json
import sys

from common import WORK, check_environment, environment, use_library

END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "upd/s",
    "state_bytes": "B",
    "peak_rss_mb": "MiB",
}

#: Printed on every run where they apply but not compared run to run: on a
#: shared 2-vCPU host the latencies spread by more than any bound the
#: comparison allows, sustained_qps reads a rung of a fixed ladder,
#: answer_lag_epochs and failed_frac are 0 in a healthy run, and the raw_*
#: times and the median sampled host_speed (``common.HostSpeed``) are what
#: the compared times were scaled from.
REPORTED = {
    "raw_setup_s": "s",
    "raw_updates_per_s": "upd/s",
    "host_speed": "ratio",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "write_lag_p50_ms": "ms",
    "write_lag_p99_ms": "ms",
    "sustained_qps": "q/s",
    "answer_lag_epochs": "epochs",
    "failed_frac": "ratio",
}

PER_LAYER = {
    "streams.parse_s": "s",
    "streams.updates": "count",
    "gsum.update_batch_s": "s",
    "gsum.update_batch_calls": "count",
    "gsum.second_pass_s": "s",
    "gsum.estimate_s": "s",
    "gsum.frequency_batch_s": "s",
    "ingest_plan.builds": "count",
    "ingest_plan.build_s": "s",
    "hashing.items_hashed": "count",
    "hashing.eval_s": "s",
    "rng.sources_built": "count",
    "rng.build_s": "s",
    "countsketch.pool_admissions": "count",
    "countsketch.pool_admit_s": "s",
    "codec.encode_s": "s",
    "codec.encode_bytes": "B",
    "codec.from_state_s": "s",
    "codec.from_state_calls": "count",
    "base.spawn_s": "s",
    "base.spawn_calls": "count",
    "base.merge_s": "s",
    "base.merge_calls": "count",
    "worker.busy_s_max": "s",
    "worker.busy_s_min": "s",
    "transport.frames": "count",
    "transport.bytes": "B",
    "coordinator.round_s": "s",
    "coordinator.wait_s": "s",
    "coordinator.stale_frames": "count",
    "snapshot.publishes": "count",
    "snapshot.publish_s": "s",
    "snapshot.write_s": "s",
    "engine.query_s": "s",
    "cache.hit_rate": "ratio",
    "server.queue_wait_ms": "ms",
    "load.send_lag_ms": "ms",
    "trace.uncovered_share": "ratio",
    "trace.overhead_frac": "ratio",
}

WORKLOADS = ("ingest-hot", "ingest-wide", "dist-two-pass", "serve-live")


def measure(name: str, seed: int, seconds: float, scale: float, limit_ms: float, tracer=None):
    import workloads

    if name in ("ingest-hot", "ingest-wide"):
        return workloads.run_ingest(name, seed, seconds, scale, tracer)
    if name == "dist-two-pass":
        return workloads.run_dist(seed, seconds, scale, tracer)
    return workloads.run_serve(seed, seconds, scale, limit_ms, tracer)


def traced_layers(name: str, seed: int, seconds: float, scale: float, limit_ms: float, untraced):
    """Run the workload again with spans on; per-layer metrics, the share
    of wall time no span covers, and the tracing overhead against the
    untraced run of the same inputs."""
    import spans

    tracer = spans.Tracer()
    if name == "serve-live":
        traced = measure(name, seed, seconds, scale, limit_ms, tracer)
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(traced.layers)
        layers["trace.uncovered_share"] = layers.pop("uncovered_share")
        base = untraced.notes["query_p50_ms"]
        layers["trace.overhead_frac"] = traced.notes["query_p50_ms"] / base - 1.0
        return layers, traced.notes["self_time"]
    patches = spans.install(tracer)
    try:
        traced = measure(name, seed, seconds, scale, limit_ms, tracer)
    finally:
        patches.restore()
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(spans.layer_metrics(tracer))
    layers["worker.busy_s_max"], layers["worker.busy_s_min"] = spans.worker_busy(tracer)
    windows = traced.notes["windows"]
    wall = sum(end - start for start, end in windows)
    covered = sum(tracer.covered(start, end) for start, end in windows)
    layers["trace.uncovered_share"] = 1.0 - covered / wall
    layers["trace.overhead_frac"] = (
        untraced.metrics["updates_per_s"] / traced.metrics["updates_per_s"] - 1.0
    )
    tracer.dump(WORK / f"spans-{name}-{seed}.jsonl")
    return layers, spans.self_time_table(tracer)


def run(args) -> int:
    import workloads

    env = environment(args.seed, args.workload, workloads.WHY[args.workload])
    print("env " + json.dumps(env), flush=True)
    result = measure(args.workload, args.seed, args.seconds, args.scale, args.p99_limit_ms)
    for metric, unit in END_TO_END.items():
        print(f"{args.workload} {metric} = {result.metrics[metric]:.6g} {unit}")
    notes = {k: v for k, v in result.notes.items() if k not in ("windows", "window")}
    notes["failed_frac"] = result.failed / max(result.attempted, 1)
    for metric, unit in REPORTED.items():
        if metric in notes:
            print(f"{args.workload} {metric} = {notes[metric]:.6g} {unit} (reported)")
    print("report " + json.dumps(notes, default=float))
    print("gates " + json.dumps(result.gates))
    metrics = {m: {"value": result.metrics[m], "unit": u} for m, u in END_TO_END.items()}
    attempted, failed = result.attempted, result.failed
    if args.trace:
        layers, table = traced_layers(
            args.workload, args.seed, args.seconds, args.scale, args.p99_limit_ms, result
        )
        for span_name, calls, self_s in table:
            print(f"self-time {span_name:28s} {calls:9d} calls {self_s:10.4f} s")
        for metric, unit in PER_LAYER.items():
            print(f"{args.workload} {metric} = {layers[metric]:.6g} {unit}")
        metrics = {m: {"value": float(layers[m]), "unit": u} for m, u in PER_LAYER.items()}
    print(json.dumps({
        "correct": result.correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--p99-limit-ms", type=float, default=1000.0,
        help="latency limit a serve-live rate must meet to count as sustained",
    )
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny sizes and check the output")
    args = parser.parse_args(argv)
    check_environment()
    use_library()
    WORK.mkdir(exist_ok=True)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
