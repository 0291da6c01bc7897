"""Fused ingestion plane: bit-for-bit equivalence with the legacy fan-out.

The ingest plan reorders integer-valued float64 additions (exact below
2^53) and evaluates the same hash families through stacked coefficient
banks, so every test here demands *exact* equality — full serialized
state under the dense codec, estimates, and frequency answers — never
approximate closeness.  The suite covers both passes, the universal
wrappers, every codec round-trip mid-stream, and each protocol operation
that must invalidate the plan (``merge``, ``spawn_sibling``,
``from_state``, ``begin_second_pass``, ``import_candidates``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ingest_plan
from repro.core.gsum import GSumEstimator
from repro.core.ingest_plan import UNFUSIBLE, build_ingest_plan
from repro.core.universal import TwoPassUniversalSketch, UniversalGSumSketch
from repro.functions.library import moment
from repro.sketch.codec import CODECS
from repro.sketch.hashing import KWiseHash, SignHash, StackedKWiseBank
from repro.util.rng import as_source

N = 64
CHUNK = 48


def _stream(seed: int, size: int = 400) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    items = (rng.zipf(1.3, size=size) % N).astype(np.int64)
    deltas = rng.integers(-3, 6, size=size).astype(np.int64)
    deltas[deltas == 0] = 1
    return items, deltas


def _gsum(seed: int, passes: int = 1, fused: bool = True, **kw) -> GSumEstimator:
    return GSumEstimator(
        moment(2.0), N, epsilon=0.5, passes=passes, heaviness=0.4,
        repetitions=2, seed=seed, fused=fused, **kw,
    )


def _pair(seed: int, passes: int = 1, **kw):
    """A (fused, legacy) pair sharing identical hash families."""
    return _gsum(seed, passes, fused=True, **kw), _gsum(seed, passes, fused=False, **kw)


def _state(est) -> str:
    return json.dumps(est.to_state(codec="dense-json"), sort_keys=True)


def _feed(est, items, deltas, chunk: int = CHUNK) -> None:
    for i in range(0, items.shape[0], chunk):
        est.update_batch(items[i:i + chunk], deltas[i:i + chunk])


def _assert_twin(fused, legacy) -> None:
    assert _state(fused) == _state(legacy)


class TestStackedKWiseBank:
    def test_values_match_per_hash_columns(self):
        source = as_source(5, "bank")
        hashes = [KWiseHash(32, 4, source.child(str(i))) for i in range(6)]
        bank = StackedKWiseBank.from_hashes(hashes)
        xs = np.arange(-10, 200, dtype=np.int64)
        stacked = bank.values_batch(xs)
        for column, h in enumerate(hashes):
            assert np.array_equal(stacked[:, column], h.values_batch(xs))

    def test_signs_match_sign_hashes(self):
        source = as_source(9, "signs")
        signs = [SignHash(4, source.child(str(i))) for i in range(5)]
        bank = StackedKWiseBank.from_sign_hashes(signs)
        xs = np.arange(0, 300, dtype=np.int64)
        stacked = bank.signs_batch(xs)
        for column, s in enumerate(signs):
            assert np.array_equal(stacked[:, column], s.values_batch(xs))

    def test_rejects_mixed_ranges(self):
        source = as_source(2, "mixed")
        hashes = [KWiseHash(16, 2, source.child("a")), KWiseHash(32, 2, source.child("b"))]
        with pytest.raises(ValueError):
            StackedKWiseBank.from_hashes(hashes)


class TestFusedEqualsLegacy:
    def test_one_pass_bit_identical(self):
        fused, legacy = _pair(11)
        items, deltas = _stream(1)
        _feed(fused, items, deltas)
        _feed(legacy, items, deltas)
        _assert_twin(fused, legacy)
        assert fused.estimate() == legacy.estimate()
        probe = np.arange(N, dtype=np.int64)
        assert np.array_equal(fused.frequency_batch(probe), legacy.frequency_batch(probe))

    def test_scalar_and_batch_interleaved(self):
        fused, legacy = _pair(12)
        items, deltas = _stream(2, size=120)
        for i in range(0, items.shape[0], 40):
            fused.update_batch(items[i:i + 40], deltas[i:i + 40])
            legacy.update_batch(items[i:i + 40], deltas[i:i + 40])
            fused.update(int(items[i]), int(deltas[i]))
            legacy.update(int(items[i]), int(deltas[i]))
        _assert_twin(fused, legacy)

    def test_second_pass_bit_identical(self):
        fused, legacy = _pair(13, passes=2)
        items, deltas = _stream(3)
        for est in (fused, legacy):
            _feed(est, items, deltas)
            est.begin_second_pass()
            for i in range(0, items.shape[0], CHUNK):
                est.update_batch_second_pass(items[i:i + CHUNK], deltas[i:i + CHUNK])
        _assert_twin(fused, legacy)
        assert fused.estimate() == legacy.estimate()

    def test_ragged_chunks_and_empty_batches(self):
        fused, legacy = _pair(14)
        items, deltas = _stream(4, size=150)
        cuts = [0, 1, 1, 7, 40, 41, 150]
        for lo, hi in zip(cuts, cuts[1:]):
            fused.update_batch(items[lo:hi], deltas[lo:hi])
            legacy.update_batch(items[lo:hi], deltas[lo:hi])
        _assert_twin(fused, legacy)

    def test_universal_sketch_bit_identical(self):
        kw = dict(epsilon=0.5, heaviness=0.4, repetitions=2, seed=21)
        fused = UniversalGSumSketch(N, fused=True, **kw)
        legacy = UniversalGSumSketch(N, fused=False, **kw)
        items, deltas = _stream(5)
        _feed(fused, items, deltas)
        _feed(legacy, items, deltas)
        _assert_twin(fused, legacy)
        g = moment(2.0)
        assert fused.estimate(g) == legacy.estimate(g)
        assert fused.distinct_count() == legacy.distinct_count()

    def test_two_pass_universal_bit_identical(self):
        kw = dict(epsilon=0.5, heaviness=0.4, repetitions=2, seed=22)
        fused = TwoPassUniversalSketch(N, fused=True, **kw)
        legacy = TwoPassUniversalSketch(N, fused=False, **kw)
        items, deltas = _stream(6)
        for est in (fused, legacy):
            _feed(est, items, deltas)
            est.begin_second_pass()
            for i in range(0, items.shape[0], CHUNK):
                est.update_batch_second_pass(items[i:i + CHUNK], deltas[i:i + CHUNK])
        _assert_twin(fused, legacy)

    def test_memo_cap_overflow_path(self, monkeypatch):
        # Force every chunk past the per-cell memo cap: the assemble-
        # without-storing path must produce the same bits as the cached one.
        monkeypatch.setattr(ingest_plan, "CACHE_ITEMS_LIMIT", 8)
        fused, legacy = _pair(15)
        items, deltas = _stream(7)
        _feed(fused, items, deltas)
        _feed(legacy, items, deltas)
        _assert_twin(fused, legacy)


class TestInvalidationPaths:
    @pytest.mark.parametrize("codec", CODECS)
    def test_codec_roundtrip_mid_stream(self, codec):
        fused, legacy = _pair(31)
        items, deltas = _stream(8)
        half = items.shape[0] // 2
        _feed(fused, items[:half], deltas[:half])
        _feed(legacy, items[:half], deltas[:half])
        # Round-trip rebinds every table array, severing the plane views;
        # the plan must detect it and rebuild rather than scatter into a
        # dead plane.
        fused = fused.spawn_sibling().from_state(fused.to_state(codec=codec))
        legacy = legacy.spawn_sibling().from_state(legacy.to_state(codec=codec))
        _feed(fused, items[half:], deltas[half:])
        _feed(legacy, items[half:], deltas[half:])
        _assert_twin(fused, legacy)

    def test_merge_mid_stream(self):
        fused, legacy = _pair(32)
        items, deltas = _stream(9)
        half = items.shape[0] // 2
        shard_f, shard_l = fused.spawn_sibling(), legacy.spawn_sibling()
        _feed(fused, items[:half], deltas[:half])
        _feed(legacy, items[:half], deltas[:half])
        _feed(shard_f, items[half:], deltas[half:])
        _feed(shard_l, items[half:], deltas[half:])
        fused.merge(shard_f)
        legacy.merge(shard_l)
        # Keep streaming after the merge — the merged tables (still plane
        # views, merge adds in place) must accumulate correctly.
        more_i, more_d = _stream(10, size=100)
        _feed(fused, more_i, more_d)
        _feed(legacy, more_i, more_d)
        _assert_twin(fused, legacy)

    def test_spawn_sibling_gets_fresh_plan(self):
        fused, legacy = _pair(33)
        items, deltas = _stream(11)
        _feed(fused, items, deltas)
        _feed(legacy, items, deltas)
        sib_f, sib_l = fused.spawn_sibling(), legacy.spawn_sibling()
        more_i, more_d = _stream(12, size=100)
        _feed(sib_f, more_i, more_d)
        _feed(sib_l, more_i, more_d)
        _assert_twin(sib_f, sib_l)
        _assert_twin(fused, legacy)  # parent untouched by sibling traffic

    def test_second_pass_rebuild_after_roundtrip(self):
        fused, legacy = _pair(34, passes=2)
        items, deltas = _stream(13)
        for est in (fused, legacy):
            _feed(est, items, deltas)
            est.begin_second_pass()
        fused = fused.spawn_sibling().from_state(fused.to_state(codec="dense-json"))
        legacy = legacy.spawn_sibling().from_state(legacy.to_state(codec="dense-json"))
        for est in (fused, legacy):
            for i in range(0, items.shape[0], CHUNK):
                est.update_batch_second_pass(items[i:i + CHUNK], deltas[i:i + CHUNK])
        _assert_twin(fused, legacy)

    def test_shard_axis_repetition_equivalence(self):
        sharded = _gsum(35, shards=2, shard_axis="repetition", fused=True)
        legacy = _gsum(35, fused=False)
        items, deltas = _stream(14)
        _feed(sharded, items, deltas)
        _feed(legacy, items, deltas)
        _assert_twin(sharded, legacy)


class TestFallbacks:
    def test_passes_zero_is_unfusible(self):
        fused, legacy = _pair(41, passes=0)
        items, deltas = _stream(15)
        _feed(fused, items, deltas)
        _feed(legacy, items, deltas)
        assert fused._ingest_plan is UNFUSIBLE
        _assert_twin(fused, legacy)
        assert fused.estimate() == legacy.estimate()

    def test_closed_first_pass_error_surface_preserved(self):
        fused, legacy = _pair(42, passes=2)
        items, deltas = _stream(16, size=100)
        for est in (fused, legacy):
            _feed(est, items, deltas)
            est.begin_second_pass()
        with pytest.raises(RuntimeError, match="first pass is closed"):
            legacy.update_batch(items[:10], deltas[:10])
        with pytest.raises(RuntimeError, match="first pass is closed"):
            fused.update_batch(items[:10], deltas[:10])

    def test_second_pass_before_begin_errors(self):
        fused, legacy = _pair(43, passes=2)
        items, deltas = _stream(17, size=60)
        _feed(fused, items, deltas)
        _feed(legacy, items, deltas)
        with pytest.raises(RuntimeError, match="begin_second_pass"):
            legacy.update_batch_second_pass(items[:10], deltas[:10])
        with pytest.raises(RuntimeError, match="begin_second_pass"):
            fused.update_batch_second_pass(items[:10], deltas[:10])

    def test_build_plan_on_foreign_sketches_is_unfusible(self):
        assert build_ingest_plan([]) is UNFUSIBLE
        assert build_ingest_plan([object()]) is UNFUSIBLE

    def test_pickle_round_trip_preserves_fused_flag(self):
        import pickle

        fused = _gsum(44, fused=True)
        legacy = _gsum(44, fused=False)
        items, deltas = _stream(18, size=100)
        _feed(fused, items, deltas)
        _feed(legacy, items, deltas)
        revived_f = pickle.loads(pickle.dumps(fused))
        revived_l = pickle.loads(pickle.dumps(legacy))
        assert revived_f.fused is True
        assert revived_l.fused is False
        more_i, more_d = _stream(19, size=80)
        _feed(revived_f, more_i, more_d)
        _feed(revived_l, more_i, more_d)
        _assert_twin(revived_f, revived_l)


class TestAppendOnlyMemo:
    """The per-cell memo serves exactly what a fresh bank evaluation would,
    across repeated items, a cap crossed mid-chunk, and a rebuild that
    adopts the memo; inserts below capacity write in place."""

    @staticmethod
    def _check_every_lookup(monkeypatch) -> list:
        """Wrap ``_PlaneCell.lookup`` so every served (keys, signs,
        ams_rows) is compared with a fresh ``_evaluate`` and the memo's
        index invariants are checked; returns a log of
        ``(stored_before, stored_after, misses)`` per call."""
        original = ingest_plan._PlaneCell.lookup
        log = []

        def checked(cell, su):
            before = cell.items.shape[0]
            misses = np.setdiff1d(su, cell.items).shape[0]
            served = original(cell, su)
            for got, want in zip(served, cell._evaluate(su)):
                if want is None:
                    assert got is None
                else:
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
            stored = cell.items.shape[0]
            assert stored <= ingest_plan.CACHE_ITEMS_LIMIT
            assert np.all(np.diff(cell.items) > 0)
            assert np.array_equal(np.sort(cell.slots), np.arange(stored))
            for got, want in zip(cell._gather(cell.slots), cell._evaluate(cell.items)):
                assert want is None or np.array_equal(got, want)
            log.append((before, stored, misses))
            return served

        monkeypatch.setattr(ingest_plan._PlaneCell, "lookup", checked)
        return log

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_served_rows_equal_fresh_evaluation(self, monkeypatch, seed):
        monkeypatch.setattr(ingest_plan, "CACHE_ITEMS_LIMIT", 24)
        log = self._check_every_lookup(monkeypatch)
        rng = np.random.default_rng(seed)
        fused, legacy = _pair(60 + seed)
        shard_f, shard_l = fused.spawn_sibling(), legacy.spawn_sibling()
        items, deltas = _stream(70 + seed, size=600)
        cuts = np.sort(rng.choice(np.arange(1, 600), size=14, replace=False))
        chunks = list(zip(np.r_[0, cuts], np.r_[cuts, 600]))
        for lo, hi in chunks[:8]:
            target = (fused, legacy) if rng.random() < 0.5 else (shard_f, shard_l)
            for est in target:
                est.update_batch(items[lo:hi], deltas[lo:hi])
        # The cap is crossed mid-chunk: a chunk with hits and misses that
        # would overflow it is served without storing its misses.
        assert any(b and m and b + m > 24 and a == b for b, a, m in log)

        old = fused._ingest_plan
        fused.merge(shard_f)
        legacy.merge(shard_l)
        fused._ingest_plan = ingest_plan.build_ingest_plan(fused._sketches, previous=old)
        for new_cell, old_cell in zip(fused._ingest_plan._flat_cells, old._flat_cells):
            assert new_cell.keys is old_cell.keys and new_cell.items is old_cell.items
        for lo, hi in chunks[8:]:
            for est in (fused, legacy):
                est.update_batch(items[lo:hi], deltas[lo:hi])
        _assert_twin(fused, legacy)

    def test_insert_below_capacity_writes_in_place(self):
        est = _gsum(66)
        est.update_batch(np.array([1], dtype=np.int64), np.array([1], dtype=np.int64))
        cell = est._ingest_plan._flat_cells[0]
        cell.lookup(np.arange(100, 110, dtype=np.int64))
        assert cell.keys.shape[0] == 11  # exact fit on growth: 1 + 10
        cell.lookup(np.arange(200, 205, dtype=np.int64))
        assert cell.keys.shape[0] == 22  # doubled
        arrays = (cell.keys, cell.signs, cell.ams_rows)
        pointers = [a.__array_interface__["data"][0] for a in arrays]
        cell.lookup(np.array([3, 100, 300, 301, 302], dtype=np.int64))
        assert cell.items.shape[0] == 20
        for before, after, pointer in zip(arrays, (cell.keys, cell.signs, cell.ams_rows), pointers):
            assert after is before
            assert after.__array_interface__["data"][0] == pointer
        assert cell.signs.dtype == np.int8 and cell.ams_rows.dtype == np.int8

    def test_fused_legacy_scalar_at_default_cap(self):
        assert ingest_plan.CACHE_ITEMS_LIMIT == 1 << 15
        fused, legacy = _pair(67)
        scalar = _gsum(67, fused=False)
        items, deltas = _stream(20, size=500)
        _feed(fused, items, deltas, chunk=37)
        _feed(legacy, items, deltas, chunk=64)
        for item, delta in zip(items.tolist(), deltas.tolist()):
            scalar.update(item, delta)
        _assert_twin(fused, legacy)
        _assert_twin(fused, scalar)
        assert fused.estimate() == legacy.estimate() == scalar.estimate()
