"""Siblings share immutable hash families by reference.

``spawn_sibling()`` is a shallow clone whose mutable state is replaced, and
``from_state()`` loads a state into one spawned tree.  Neither draws
randomness, so they must hand the sibling the *same* family objects while
keeping every table, register, pool, and memo private to each instance.
These tests pin that down for every mergeable implementer, in both passes,
plus the per-instance compat-digest cache and the thread-safety of the
shared subsampling hash.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.dist import DistDetector
from repro.core.gnp import GnpHeavyHitterSketch, _Substream
from repro.core.gsum import GSumEstimator
from repro.core.heavy_hitters import (
    ExactHeavyHitter,
    OnePassGHeavyHitter,
    TwoPassGHeavyHitter,
)
from repro.core.recursive_sketch import NaiveTopKGSum, RecursiveGSumSketch
from repro.core.universal import TwoPassUniversalSketch, UniversalGSumSketch
from repro.functions.library import moment
from repro.sketch.ams import AmsF2Sketch
from repro.sketch.base import MergeableSketch
from repro.sketch.codec import CODECS
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.exact import ExactCounter
from repro.sketch.f0 import BjkstF0Sketch, TurnstileF0Estimator
from repro.sketch.hashing import (
    BernoulliHash,
    KWiseHash,
    SignHash,
    SubsampleHash,
    VectorKWiseHash,
)
from repro.util.rng import RandomSource

N = 128
G2 = moment(2.0)
FAMILY_TYPES = (KWiseHash, SignHash, VectorKWiseHash, SubsampleHash, BernoulliHash)

_RNG = np.random.default_rng(2024)
FIRST = (_RNG.zipf(1.3, 1500) % N).astype(np.int64)
SECOND = (_RNG.zipf(1.3, 700) % N).astype(np.int64)


def _ones(items):
    return np.ones(items.shape[0], dtype=np.int64)


# (name, build, two_pass)
IMPLEMENTERS = [
    ("countsketch", lambda: CountSketch(3, 32, track=6, seed=3), False),
    ("countmin", lambda: CountMinSketch(3, 32, seed=3), False),
    ("ams", lambda: AmsF2Sketch(3, 8, seed=3), False),
    ("exact_counter", lambda: ExactCounter(N), False),
    ("exact_counter_restricted", lambda: ExactCounter(N, range(0, N, 3)), False),
    ("bjkst_f0", lambda: BjkstF0Sketch(16, seed=3), False),
    ("turnstile_f0", lambda: TurnstileF0Estimator(N, 16, seed=3), False),
    ("dist", lambda: DistDetector([5, 101], 1, N, pieces=12, seed=3), False),
    ("gnp", lambda: GnpHeavyHitterSketch(N, 0.5, seed=3), False),
    ("one_pass_hh", lambda: OnePassGHeavyHitter(G2, 0.1, 0.25, 0.1, N, seed=3), False),
    ("two_pass_hh", lambda: TwoPassGHeavyHitter(G2, 0.1, 0.1, N, seed=3), True),
    ("exact_hh", lambda: ExactHeavyHitter(G2, N), False),
    (
        "recursive_one_pass",
        lambda: RecursiveGSumSketch(
            G2, N, lambda j, rng: OnePassGHeavyHitter(G2, 0.1, 0.25, 0.1, N, seed=rng),
            levels=3, seed=3,
        ),
        False,
    ),
    (
        "recursive_two_pass",
        lambda: RecursiveGSumSketch(
            G2, N, lambda j, rng: TwoPassGHeavyHitter(G2, 0.1, 0.1, N, seed=rng),
            levels=3, seed=3,
        ),
        True,
    ),
    (
        "recursive_gnp",
        lambda: RecursiveGSumSketch(
            G2, N, lambda j, rng: GnpHeavyHitterSketch(N, 0.5, seed=rng),
            levels=2, seed=3,
        ),
        False,
    ),
    (
        "naive_topk",
        lambda: NaiveTopKGSum(G2, OnePassGHeavyHitter(G2, 0.1, 0.25, 0.1, N, seed=3)),
        False,
    ),
    ("universal", lambda: UniversalGSumSketch(N, repetitions=2, levels=3, seed=3), False),
    (
        "universal_two_pass",
        lambda: TwoPassUniversalSketch(N, repetitions=2, levels=3, seed=3),
        True,
    ),
    (
        "gsum_exact",
        lambda: GSumEstimator(G2, N, passes=0, repetitions=2, levels=3, seed=3),
        False,
    ),
    (
        "gsum_one_pass",
        lambda: GSumEstimator(G2, N, heaviness=0.1, repetitions=2, levels=3, seed=3),
        False,
    ),
    (
        "gsum_two_pass",
        lambda: GSumEstimator(
            G2, N, passes=2, heaviness=0.1, repetitions=2, levels=3, seed=3
        ),
        True,
    ),
]

STAGES = ("fresh", "first-pass", "second-open", "mid-second-pass")
CASES = [
    pytest.param(build, stage, id=f"{name}-{stage}")
    for name, build, two_pass in IMPLEMENTERS
    for stage in (STAGES if two_pass else STAGES[:2])
]


def _prepare(build, stage):
    """A sketch at ``stage``; returns ``(sketch, in_second_pass)``."""
    sketch = build()
    if stage == "fresh":
        return sketch, False
    sketch.update_batch(FIRST, _ones(FIRST))
    if stage == "first-pass":
        return sketch, False
    sketch.begin_second_pass()
    if stage == "mid-second-pass":
        sketch.update_batch_second_pass(SECOND, _ones(SECOND))
    return sketch, True


def _ingest(sketch, second_pass, items):
    if second_pass:
        sketch.update_batch_second_pass(items, _ones(items))
    else:
        sketch.update_batch(items, _ones(items))


def _walk(obj, path, visit):
    """Visit every family and mergeable node reachable through sketch
    attributes and the lists/tuples that hold sub-sketches."""
    visit(path, obj)
    if isinstance(obj, FAMILY_TYPES):
        return
    if isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _walk(value, f"{path}[{i}]", visit)
    elif isinstance(obj, (MergeableSketch, _Substream)):
        for key, value in vars(obj).items():
            _walk(value, f"{path}.{key}", visit)


def families(sketch) -> dict:
    found = {}

    def visit(path, obj):
        if isinstance(obj, FAMILY_TYPES):
            found[path] = obj

    _walk(sketch, "root", visit)
    return found


def mergeable_nodes(sketch) -> dict:
    found = {}

    def visit(path, obj):
        if isinstance(obj, MergeableSketch):
            found[path] = obj

    _walk(sketch, "root", visit)
    return found


@pytest.fixture
def sources_built(monkeypatch):
    """Every ``RandomSource`` constructed while the test runs."""
    built = []
    original = RandomSource.__init__

    def counting(self, *args, **kwargs):
        built.append((args, kwargs))
        original(self, *args, **kwargs)

    monkeypatch.setattr(RandomSource, "__init__", counting)
    return built


def _assert_shares_families(source, sibling):
    mine, theirs = families(source), families(sibling)
    assert mine.keys() == theirs.keys()
    for path, family in mine.items():
        assert theirs[path] is family, path


def _assert_isolated(source, sibling, second_pass):
    before = source.to_state()
    _ingest(sibling, second_pass, SECOND)
    assert source.to_state() == before
    before = sibling.to_state()
    _ingest(source, second_pass, FIRST[:400])
    assert sibling.to_state() == before


def _blank_twin(build, source, second_pass):
    """A freshly constructed sketch in ``source``'s phase, or ``None`` when
    the phase cannot be reached without ingesting a first pass."""
    fresh = build()
    if second_pass:
        export = getattr(source, "export_candidates", None)
        if export is None:
            return None
        fresh.import_candidates(export())
    return fresh


@pytest.mark.parametrize("build, stage", CASES)
class TestSiblingIsolation:
    def test_spawn_sibling(self, build, stage, sources_built):
        source, second_pass = _prepare(build, stage)
        sources_built.clear()
        sibling = source.spawn_sibling()
        assert sources_built == []
        _assert_shares_families(source, sibling)
        twin = _blank_twin(build, source, second_pass)
        if twin is not None:
            assert sibling.to_state() == twin.to_state()
        _assert_isolated(source, sibling, second_pass)

    def test_from_state(self, build, stage, sources_built):
        source, second_pass = _prepare(build, stage)
        state = source.to_state()
        sources_built.clear()
        loaded = source.from_state(state)
        assert sources_built == []
        assert loaded.to_state() == state
        _assert_shares_families(source, loaded)
        _assert_isolated(source, loaded, second_pass)

    def test_from_blank_state_equals_fresh(self, build, stage):
        source, second_pass = _prepare(build, stage)
        twin = _blank_twin(build, source, second_pass)
        if twin is None:
            pytest.skip("phase not reachable without a first pass")
        assert source.from_state(twin.to_state()).to_state() == twin.to_state()

    def test_merge_builds_no_sources(self, build, stage, sources_built):
        source, second_pass = _prepare(build, stage)
        sibling = source.spawn_sibling()
        _ingest(sibling, second_pass, SECOND)
        sources_built.clear()
        source.merge(sibling)
        assert sources_built == []


def _two_pass_hh():
    return TwoPassGHeavyHitter(G2, 0.1, 0.1, N, seed=3)


@pytest.mark.parametrize("loader_stage", ["first-pass", "second-open"])
def test_from_state_takes_the_state_candidate_set(loader_stage):
    """A second-pass state restricted to other candidates than the loader's
    own loads with the state's candidate set, and leaves the loader's
    alone."""
    loader, _ = _prepare(_two_pass_hh, loader_stage)
    before = loader.to_state()
    worker = _two_pass_hh()
    worker.import_candidates([1, 2, 3])
    worker.update_batch_second_pass(SECOND, _ones(SECOND))
    loaded = loader.from_state(worker.to_state())
    assert loaded.to_state() == worker.to_state()
    assert loaded.export_candidates() == [1, 2, 3]
    assert loader.to_state() == before


# ------------------------------------------------------------- digest cache


def _digests_match_scratch(sketch):
    """Every node's cached digest equals a recompute with all caches
    dropped (children's included)."""
    nodes = mergeable_nodes(sketch)
    cached = {path: node.compat_digest() for path, node in nodes.items()}
    for node in nodes.values():
        node.__dict__.pop("_compat", None)
    scratch = {path: node.compat_digest() for path, node in nodes.items()}
    assert cached == scratch


def _two_pass_gsum(seed=3):
    return GSumEstimator(G2, N, passes=2, heaviness=0.1, repetitions=2, levels=3, seed=seed)


class TestDigestCache:
    def test_after_merge(self):
        est = _two_pass_gsum()
        est.update_batch(FIRST, _ones(FIRST))
        sibling = est.spawn_sibling()
        sibling.update_batch(SECOND, _ones(SECOND))
        est.merge(sibling)
        _digests_match_scratch(est)
        assert est.compat_digest() == _two_pass_gsum().compat_digest()

    @pytest.mark.parametrize("codec", CODECS)
    def test_after_from_state(self, codec):
        est = _two_pass_gsum()
        est.update_batch(FIRST, _ones(FIRST))
        first = est.from_state(est.to_state(codec=codec))
        est.begin_second_pass()
        est.update_batch_second_pass(SECOND, _ones(SECOND))
        second = est.from_state(est.to_state(codec=codec))
        for loaded in (first, second):
            _digests_match_scratch(loaded)
            assert loaded.compat_digest() == _two_pass_gsum().compat_digest()

    def test_after_begin_second_pass(self):
        est = _two_pass_gsum()
        est.compat_digest()
        est.update_batch(FIRST, _ones(FIRST))
        est.begin_second_pass()
        _digests_match_scratch(est)
        assert est.compat_digest() == _two_pass_gsum().compat_digest()

    def test_after_import_candidates(self):
        coordinator = _two_pass_gsum()
        coordinator.update_batch(FIRST, _ones(FIRST))
        coordinator.begin_second_pass()
        worker = _two_pass_gsum()
        worker.compat_digest()
        worker.import_candidates(coordinator.export_candidates())
        _digests_match_scratch(worker)
        assert worker.compat_digest() == coordinator.compat_digest()

    def test_universal_two_pass_after_protocol(self):
        sketch = TwoPassUniversalSketch(N, repetitions=2, levels=3, seed=3)
        sketch.update_batch(FIRST, _ones(FIRST))
        sketch.begin_second_pass()
        loaded = sketch.from_state(sketch.to_state(codec="sparse-binary"))
        loaded.merge(sketch.spawn_sibling())
        _digests_match_scratch(loaded)

    def test_other_seed_still_rejected(self):
        est = _two_pass_gsum()
        est.update_batch(FIRST, _ones(FIRST))
        other = _two_pass_gsum(seed=4)
        other.update_batch(FIRST, _ones(FIRST))
        with pytest.raises(ValueError):
            est.from_state(other.to_state())
        with pytest.raises(ValueError):
            est.merge(other)
        with pytest.raises(ValueError):
            est.spawn_sibling().merge(other.spawn_sibling())

    def test_other_seed_level_state_rejected(self):
        """A forged state whose top-level digest matches but whose nested
        level state came from another seed still fails in place."""
        est = _two_pass_gsum()
        state = est.to_state()
        foreign = _two_pass_gsum(seed=4).to_state()
        state["payload"]["reps"][0] = foreign["payload"]["reps"][0]
        with pytest.raises(ValueError):
            est.from_state(state)


# ----------------------------------------------------------------- threads


THREADS = 4  # more workers than the 2-core reference host


def test_siblings_on_threads_share_subsample_hash():
    """Siblings share every ``SubsampleHash``; hammering their scalar
    update path (the one that memoizes subsampling depths) from several
    threads at once must give each exactly the state, and the levels, of a
    fresh sketch fed the same updates on one thread, and must leave no memo
    on the shared family."""
    def build():
        return GSumEstimator(G2, N, heaviness=0.1, repetitions=2, levels=4, seed=11)

    source = build()
    siblings = [source.spawn_sibling() for _ in range(THREADS)]
    rng = np.random.default_rng(5)
    streams = [rng.integers(0, 4 * N, size=1500) % N for _ in range(THREADS)]
    barrier = threading.Barrier(THREADS)

    def hammer(sketch, items):
        barrier.wait()
        for item in items.tolist():
            sketch.update(item, 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=hammer, args=(sib, items))
            for sib, items in zip(siblings, streams)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    universe = np.arange(N, dtype=np.int64)
    for sibling, items in zip(siblings, streams):
        fresh = build()
        for item in items.tolist():
            fresh.update(item, 1)
        assert sibling.to_state() == fresh.to_state()
        for mine, theirs, shared in zip(
            sibling._sketches, fresh._sketches, source._sketches
        ):
            assert mine._subsample is shared._subsample
            expected = theirs._subsample.levels_batch(universe).tolist()
            assert [mine._subsample.level(x) for x in range(N)] == expected
            assert [mine._depth(x) for x in range(N)] == [
                min(level, mine.levels) for level in expected
            ]
            assert set(vars(mine._subsample)) == {"levels", "_bits"}
