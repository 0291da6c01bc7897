"""Span tracing for the traced benchmark run, installed from outside ``src/``.

The library has no instrumentation of its own, so the traced run wraps the
public calls of each layer at run time (``install``) and records one span
per call: name, start, end, span id, parent span id, thread and an optional
request id.  Spans stay in memory and are written out as JSON lines when
the run ends (``Tracer.dump``).

A span's self time is its duration minus the time its children cover.
Children of a span run on the same thread and nest strictly, so the time
they cover is the sum of their durations; each span accumulates it as the
children close, which keeps the report exact without a second pass.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

_now = time.perf_counter

#: The mergeable-sketch protocol's spans, which nest inside each other.
PROTOCOL = ("base.spawn", "base.merge", "codec.encode", "codec.from_state")


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s, thread, rid)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def begin(self, name: str, rid=None) -> list:
        span_id = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[5]
        # frame: [id, name, parent id, start, child time, rid]
        frame = [span_id, name, None if parent is None else parent[0], _now(), 0.0, rid]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        end = _now()
        stack = self._stack()
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][4] += duration
        record = (
            frame[0], frame[2], frame[1], frame[3], end,
            duration - frame[4], threading.get_ident(), frame[5],
        )
        self.spans.append(record)
        return duration

    def span(self, name: str, rid=None):
        return _SpanContext(self, name, rid)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "name", "start", "end", "self_s", "thread", "rid")
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")

    # --------------------------------------------------------------- report

    def self_time(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for record in self.spans:
            totals[record[2]] += record[5]
        return totals

    def total_time(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for record in self.spans:
            totals[record[2]] += record[4] - record[3]
        return totals

    def calls(self, outermost: bool = False) -> dict[str, int]:
        """Span counts by name.  ``outermost`` counts only calls the
        workload made: a span nested in a span of the same name, or of the
        mergeable protocol inside the protocol (from_state spawns a sibling
        and decodes every sub-sketch), is part of its ancestor's call."""
        by_id = {record[0]: record for record in self.spans}
        out: dict[str, int] = defaultdict(int)
        for record in self.spans:
            if outermost:
                family = PROTOCOL if record[2] in PROTOCOL else (record[2],)
                parent = by_id.get(record[1])
                while parent is not None and parent[2] not in family:
                    parent = by_id.get(parent[1])
                if parent is not None:
                    continue
            out[record[2]] += 1
        return out

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by at least one span on any
        thread (the union of span intervals)."""
        intervals = sorted(
            (max(r[3], start), min(r[4], end))
            for r in self.spans
            if r[4] > start and r[3] < end
        )
        covered = 0.0
        cur_start = cur_end = None
        for lo, hi in intervals:
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        return covered


class _SpanContext:
    __slots__ = ("tracer", "name", "rid", "frame")

    def __init__(self, tracer: Tracer, name: str, rid):
        self.tracer = tracer
        self.name = name
        self.rid = rid

    def __enter__(self):
        self.frame = self.tracer.begin(self.name, self.rid)
        return self.frame

    def __exit__(self, *exc):
        self.tracer.end(self.frame)
        return False


# ---------------------------------------------------------------- wrappers


def _wrap(tracer: Tracer, fn, name: str, on_result=None):
    """``fn`` inside a span; ``on_result(args, kwargs, result, seconds)``
    records counts at the same boundary."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.end(frame)
        if on_result is not None:
            on_result(args, kwargs, result, duration)
        return result

    wrapper.__wrapped_by_perfbench__ = fn
    return wrapper


class _Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _payload_bytes(value) -> int:
    """Raw bytes an encoded state carries: base64 array buffers count at
    their decoded size, JSON-inlined lists at 8 bytes a number."""
    if isinstance(value, dict):
        total = 0
        for key, item in value.items():
            if key == "b64" and isinstance(item, str):
                total += len(item) * 3 // 4
            else:
                total += _payload_bytes(item)
        return total
    if isinstance(value, list):
        if value and not isinstance(value[0], (dict, list)):
            return 8 * len(value)
        return sum(_payload_bytes(item) for item in value)
    return 0


def _all_subclasses(cls):
    seen = []
    todo = [cls]
    while todo:
        current = todo.pop()
        seen.append(current)
        todo.extend(current.__subclasses__())
    return seen


def install(tracer: Tracer) -> _Patches:
    """Wrap the public calls of every layer the benchmark reports on.
    Returns the patch set; call ``restore()`` to remove the wrappers."""
    import numpy as np

    import repro.core.gsum as gsum
    import repro.core.ingest_plan as ingest_plan
    import repro.distributed.coordinator as coordinator
    import repro.distributed.driver as driver
    import repro.distributed.transport as transport
    import repro.distributed.wire as wire
    import repro.serve.engine as engine
    import repro.serve.server as server
    import repro.serve.snapshot as snapshot
    import repro.sketch.base as base
    import repro.sketch.countsketch as countsketch
    import repro.sketch.hashing as hashing
    import repro.streams.io as stream_io
    import repro.util.rng as rng

    patches = _Patches()

    # streams: the file parse happens inside the chunk generator's next().
    original_chunks = stream_io.iter_stream_array_chunks

    @functools.wraps(original_chunks)
    def traced_chunks(*args, **kwargs):
        inner = original_chunks(*args, **kwargs)
        while True:
            frame = tracer.begin("streams.parse")
            try:
                chunk = next(inner)
            except StopIteration:
                tracer.end(frame)
                return
            except BaseException:
                tracer.end(frame)
                raise
            tracer.end(frame)
            tracer.count("streams.updates", chunk[0].shape[0])
            yield chunk

    patches.set(stream_io, "iter_stream_array_chunks", traced_chunks)

    # gsum: the estimator's ingest and query entry points.
    est = gsum.GSumEstimator
    patches.set(est, "update_batch", _wrap(tracer, est.update_batch, "gsum.update_batch"))
    patches.set(est, "update_batch_second_pass", _wrap(
        tracer, est.update_batch_second_pass, "gsum.second_pass"))
    patches.set(est, "estimate", _wrap(tracer, est.estimate, "gsum.estimate"))
    patches.set(est, "frequency_batch", _wrap(
        tracer, est.frequency_batch, "gsum.frequency_batch"))

    # ingest_plan: plan (re)builds, looked up through the module global.
    for attr in ("build_ingest_plan", "build_second_pass_plan"):
        patches.set(ingest_plan, attr, _wrap(
            tracer, getattr(ingest_plan, attr), "ingest_plan.build"))

    # hashing: every batch evaluation route; items count once per
    # outermost call (a stacked bank's signs_batch calls its values_batch).
    def hashed(args, kwargs, result, seconds):
        if tracer.current() != "hashing.eval":
            xs = args[1] if len(args) > 1 else next(iter(kwargs.values()))
            tracer.count("hashing.items_hashed", int(np.size(xs)))

    for cls in (
        hashing.VectorKWiseHash, hashing.StackedKWiseBank, hashing.KWiseHash,
        hashing.SignHash, hashing.SubsampleHash, hashing.BernoulliHash,
    ):
        for attr in ("values_batch", "signs_batch", "levels_batch", "survives_batch"):
            if attr in cls.__dict__:
                patches.set(cls, attr, _wrap(
                    tracer, cls.__dict__[attr], "hashing.eval", hashed))

    # rng: every RandomSource construction (the hash families' lineage).
    patches.set(rng.RandomSource, "__init__", _wrap(
        tracer, rng.RandomSource.__init__, "rng.build"))

    # countsketch: candidate-pool admission as the ingest plane calls it.
    cs = countsketch.CountSketch
    patches.set(cs, "_fresh_candidates", _wrap(
        tracer, cs._fresh_candidates, "countsketch.pool"))
    patches.set(cs, "_admit_batch", _wrap(
        tracer, cs._admit_batch, "countsketch.pool",
        lambda a, k, r, s: tracer.count(
            "countsketch.pool_admissions", int(np.size(a[1]))),
    ))

    # codec + base: the mergeable protocol on every sketch class that
    # defines it, so nested sub-sketch calls nest as child spans.
    def encoded(args, kwargs, result, seconds):
        if tracer.current() != "codec.encode":
            tracer.count("codec.encode_bytes", _payload_bytes(result))

    for cls in _all_subclasses(base.MergeableSketch):
        own = cls.__dict__
        if "to_state" in own:
            patches.set(cls, "to_state", _wrap(
                tracer, own["to_state"], "codec.encode", encoded))
        if "from_state" in own:
            patches.set(cls, "from_state", _wrap(
                tracer, own["from_state"], "codec.from_state"))
        if "spawn_sibling" in own:
            patches.set(cls, "spawn_sibling", _wrap(
                tracer, own["spawn_sibling"], "base.spawn"))
        if "merge" in own:
            patches.set(cls, "merge", _wrap(tracer, own["merge"], "base.merge"))

    # transport: frames and bytes on the wire (dumps_frame is where the
    # socket layer serializes every frame it sends).
    def framed(args, kwargs, result, seconds):
        tracer.count("transport.bytes", len(result))

    patches.set(wire, "dumps_frame", _wrap(
        tracer, wire.dumps_frame, "transport.send", framed))
    patches.set(wire, "loads_frame", _wrap(
        tracer, wire.loads_frame, "transport.recv"))
    patches.set(transport.SocketSession, "recv_broadcast", _wrap(
        tracer, transport.SocketSession.recv_broadcast, "worker.wait_broadcast"))

    # worker: one span per worker per two-pass job (looked up by the driver).
    patches.set(driver, "run_worker_rounds", _wrap(
        tracer, driver.run_worker_rounds, "worker.rounds"))

    # coordinator: rounds; stale frames come back in the round summary.
    rc = coordinator.RoundCoordinator
    patches.set(rc, "run_round", _wrap(
        tracer, rc.run_round, "coordinator.round",
        lambda a, k, r, s: tracer.count("coordinator.stale_frames", r["stale"]),
    ))

    # snapshot: copy-on-write publishes and writer-locked updates.
    store = snapshot.SnapshotStore
    original_snapshot = store.snapshot

    @functools.wraps(original_snapshot)
    def traced_snapshot(self):
        published = self._published
        if published is not None and published.epoch == self._epoch:
            return published
        with tracer.span("snapshot.publish"):
            return original_snapshot(self)

    patches.set(store, "snapshot", traced_snapshot)
    patches.set(store, "update_batch", _wrap(tracer, store.update_batch, "snapshot.write"))

    # engine: the query calls the server routes to.
    qe = engine.QueryEngine
    for attr in ("frequency_batch", "aggregate", "health", "heavy_hitters"):
        patches.set(qe, attr, _wrap(tracer, qe.__dict__[attr], "engine.query"))

    # server: one span per request, keyed by the request id the load
    # generator puts in the query string.
    ss = server.SketchServer
    original_route = ss._route

    @functools.wraps(original_route)
    def traced_route(self, target):
        rid = None
        _, _, query = target.partition("?")
        for part in query.split("&"):
            if part.startswith("rid="):
                rid = part[4:]
        with tracer.span("server.route", rid=rid):
            return original_route(self, target)

    patches.set(ss, "_route", traced_route)
    return patches


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures named in ``BENCHMARK.json`` from one process's
    spans and counts (layers a workload never reaches read 0)."""
    self_s = tracer.self_time()
    total_s = tracer.total_time()
    calls = tracer.calls()
    outer = tracer.calls(outermost=True)
    counts = tracer.counts
    return {
        "streams.parse_s": self_s["streams.parse"],
        "streams.updates": counts["streams.updates"],
        "gsum.update_batch_s": self_s["gsum.update_batch"],
        "gsum.update_batch_calls": calls["gsum.update_batch"],
        "gsum.second_pass_s": self_s["gsum.second_pass"],
        "gsum.estimate_s": self_s["gsum.estimate"],
        "gsum.frequency_batch_s": self_s["gsum.frequency_batch"],
        "ingest_plan.builds": calls["ingest_plan.build"],
        "ingest_plan.build_s": self_s["ingest_plan.build"],
        "hashing.items_hashed": counts["hashing.items_hashed"],
        "hashing.eval_s": self_s["hashing.eval"],
        "rng.sources_built": calls["rng.build"],
        "rng.build_s": self_s["rng.build"],
        "countsketch.pool_admissions": counts["countsketch.pool_admissions"],
        "countsketch.pool_admit_s": self_s["countsketch.pool"],
        "codec.encode_s": self_s["codec.encode"],
        "codec.encode_bytes": counts["codec.encode_bytes"],
        "codec.from_state_s": self_s["codec.from_state"],
        "codec.from_state_calls": outer["codec.from_state"],
        "base.spawn_s": self_s["base.spawn"],
        "base.spawn_calls": outer["base.spawn"],
        "base.merge_s": self_s["base.merge"],
        "base.merge_calls": outer["base.merge"],
        "transport.frames": calls["transport.send"],
        "transport.bytes": counts["transport.bytes"],
        "coordinator.round_s": total_s["coordinator.round"],
        "coordinator.wait_s": self_s["coordinator.round"],
        "coordinator.stale_frames": counts["coordinator.stale_frames"],
        "snapshot.publishes": calls["snapshot.publish"],
        "snapshot.publish_s": total_s["snapshot.publish"],
        "snapshot.write_s": total_s["snapshot.write"],
        "engine.query_s": self_s["engine.query"],
    }


def worker_busy(tracer: Tracer) -> tuple[float, float]:
    """(slowest, fastest) worker thread busy seconds: time inside
    ``run_worker_rounds`` minus time blocked on the coordinator's
    broadcast, summed per thread over the run."""
    busy: dict[int, float] = defaultdict(float)
    for record in tracer.spans:
        if record[2] == "worker.rounds":
            busy[record[6]] += record[4] - record[3]
        elif record[2] == "worker.wait_broadcast":
            busy[record[6]] -= record[4] - record[3]
    if not busy:
        return 0.0, 0.0
    return max(busy.values()), min(busy.values())


def self_time_table(tracer: Tracer) -> list[tuple[str, int, float]]:
    """(span name, calls, self seconds) for every span name, largest first."""
    calls = tracer.calls()
    self_s = tracer.self_time()
    return sorted(
        ((name, calls[name], self_s[name]) for name in calls),
        key=lambda row: -row[2],
    )
