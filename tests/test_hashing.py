"""Tests for hash families."""

import numpy as np
import pytest

from repro.core.gnp import _Substream
from repro.sketch.hashing import (
    MERSENNE_P31 as P,
    BernoulliHash,
    KWiseHash,
    SignHash,
    StackedKWiseBank,
    SubsampleHash,
    VectorKWiseHash,
    _batch_arg,
    _horner,
)
from repro.util.rng import as_source


class TestKWiseHash:
    def test_range_respected(self):
        h = KWiseHash(10, 2, seed=1)
        assert all(0 <= h(x) < 10 for x in range(1000))

    def test_deterministic(self):
        h1 = KWiseHash(100, 2, seed=5)
        h2 = KWiseHash(100, 2, seed=5)
        assert [h1(x) for x in range(50)] == [h2(x) for x in range(50)]

    def test_different_seeds_differ(self):
        h1 = KWiseHash(1000, 2, seed=5)
        h2 = KWiseHash(1000, 2, seed=6)
        assert [h1(x) for x in range(50)] != [h2(x) for x in range(50)]

    def test_roughly_uniform(self):
        h = KWiseHash(4, 2, seed=7)
        counts = np.bincount([h(x) for x in range(4000)], minlength=4)
        assert counts.min() > 700  # expected 1000 each

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            KWiseHash(0, 2)
        with pytest.raises(ValueError):
            KWiseHash(4, 0)

    def test_many_matches_scalar(self):
        h = KWiseHash(64, 4, seed=2)
        xs = list(range(20))
        assert list(h.many(xs)) == [h(x) for x in xs]


class TestSignHash:
    def test_values_are_signs(self):
        s = SignHash(4, seed=1)
        assert set(s(x) for x in range(200)) <= {-1, 1}

    def test_roughly_balanced(self):
        s = SignHash(4, seed=2)
        total = sum(s(x) for x in range(4000))
        assert abs(total) < 400

    def test_pairwise_products_balanced(self):
        """4-wise independence implies E[s(x)s(y)] = 0 for x != y."""
        s = SignHash(4, seed=3)
        corr = sum(s(2 * i) * s(2 * i + 1) for i in range(2000))
        assert abs(corr) < 300


class TestVectorKWiseHash:
    def test_shapes(self):
        v = VectorKWiseHash(17, 4, seed=1)
        assert v.values(5).shape == (17,)
        assert v.signs(5).shape == (17,)

    def test_signs_plus_minus_one(self):
        v = VectorKWiseHash(64, 4, seed=2)
        signs = v.signs(123)
        assert set(np.unique(signs)) <= {-1.0, 1.0}

    def test_deterministic(self):
        a = VectorKWiseHash(32, 4, seed=9).signs(7)
        b = VectorKWiseHash(32, 4, seed=9).signs(7)
        assert np.array_equal(a, b)

    def test_register_balance(self):
        v = VectorKWiseHash(512, 4, seed=4)
        total = sum(v.signs(x).sum() for x in range(200)) / (512 * 200)
        assert abs(total) < 0.05

    def test_invalid(self):
        with pytest.raises(ValueError):
            VectorKWiseHash(0)


class TestSubsampleHash:
    def test_levels_nested(self):
        sub = SubsampleHash(10, seed=1)
        for x in range(500):
            depth = sub.level(x)
            for j in range(depth + 1):
                assert sub.survives(x, j)
            if depth < sub.levels:
                assert not sub.survives(x, depth + 1)

    def test_level_zero_universal(self):
        sub = SubsampleHash(5, seed=2)
        assert all(sub.survives(x, 0) for x in range(100))

    def test_geometric_decay(self):
        sub = SubsampleHash(12, seed=3)
        survivors_1 = sum(sub.survives(x, 1) for x in range(4000))
        survivors_2 = sum(sub.survives(x, 2) for x in range(4000))
        assert 1500 < survivors_1 < 2500
        assert 700 < survivors_2 < 1400

    def test_level_bounds_checked(self):
        sub = SubsampleHash(3, seed=4)
        with pytest.raises(ValueError):
            sub.survives(0, 4)
        with pytest.raises(ValueError):
            sub.survives(0, -1)

    def test_needs_a_level(self):
        with pytest.raises(ValueError):
            SubsampleHash(0)


class TestBernoulliHash:
    def test_zero_one(self):
        b = BernoulliHash(seed=1)
        assert set(b(x) for x in range(100)) <= {0, 1}

    def test_balanced(self):
        b = BernoulliHash(seed=2)
        total = sum(b(x) for x in range(4000))
        assert 1700 < total < 2300


def _reference(column, x: int) -> int:
    """Pure Python-int Horner over GF(p) at the argument ``(x + 1) mod p``."""
    acc, arg = 0, (x + 1) % P
    for c in column:
        acc = (acc * arg + int(c)) % P
    return acc


#: Items whose polynomial arguments are p - 1 and 0, then random ones.
_KERNEL_ITEMS = [P - 2, -1, P - 1] + np.random.default_rng(11).integers(
    -(1 << 62), 1 << 62, size=29
).tolist()


class TestHornerKernel:
    """Every batch route equals the Python-int Horner, element for element,
    at the lazy-reduction worst case (all coefficients and the argument at
    p - 1) and on mixed random planes."""

    @pytest.mark.parametrize("independence", range(1, 9))
    @pytest.mark.parametrize("fill", ["max", "mixed"])
    @pytest.mark.parametrize("range_size", [2, 7, 1 << 14])
    def test_batch_routes_match_python_int_reference(self, independence, fill, range_size):
        count = 6
        rng = np.random.default_rng(independence * 31 + range_size)
        if fill == "max":
            plane = np.full((independence, count), P - 1, dtype=np.uint64)
        else:
            plane = rng.integers(0, P, size=(independence, count), dtype=np.uint64)
            plane[:, 0] = P - 1
            plane[:, 1] = 0
        xs = np.array(_KERNEL_ITEMS, dtype=np.int64)
        want = np.array(
            [[_reference(plane[:, c], x) for c in range(count)] for x in _KERNEL_ITEMS],
            dtype=np.uint64,
        )

        assert np.array_equal(_horner(plane, _batch_arg(xs)), want)

        bank = StackedKWiseBank(plane, range_size)
        assert np.array_equal(bank.values_batch(xs), (want % range_size).astype(np.int64))
        if range_size == 2:
            assert np.array_equal(bank.signs_batch(xs), np.where(want % 2 == 1, 1.0, -1.0))

        vec = VectorKWiseHash(count, independence, seed=0)
        vec._coeffs = plane
        assert np.array_equal(vec.values_batch(xs), want)
        assert np.array_equal(
            vec.signs_batch(xs), (want & np.uint64(1)).astype(np.float64) * 2.0 - 1.0
        )

        for c in range(count):
            h = KWiseHash(range_size, independence, seed=0)
            h._coeffs = [int(v) for v in plane[:, c]]
            assert np.array_equal(
                h.values_batch(xs), (want[:, c] % range_size).astype(np.int64)
            )


class TestExtremeItems:
    """Batch routes agree with the scalar oracle at the ends of the int64
    item range, where ``x + 1`` would wrap before the reduction."""

    ITEMS = [(1 << 63) - 1, -1, -(1 << 63), P - 2, P - 1]

    def test_reported_divergence(self):
        h = KWiseHash(2**14, 2, seed=3)
        assert h.values_batch(np.array([(1 << 63) - 1]))[0] == h((1 << 63) - 1) == 14591

    def test_every_batch_route(self):
        xs = np.array(self.ITEMS, dtype=np.int64)
        for k in range(1, 6):
            h = KWiseHash(1 << 14, k, seed=k)
            assert h.values_batch(xs).tolist() == [h(x) for x in self.ITEMS]
            assert h.many(self.ITEMS).tolist() == [h(x) for x in self.ITEMS]
        sign = SignHash(4, seed=5)
        assert sign.values_batch(xs).tolist() == [float(sign(x)) for x in self.ITEMS]
        bern = BernoulliHash(seed=6)
        assert bern.values_batch(xs).tolist() == [bern(x) for x in self.ITEMS]
        sub = SubsampleHash(6, seed=7)
        assert sub.levels_batch(xs).tolist() == [sub.level(x) for x in self.ITEMS]
        for level in range(7):
            assert sub.survives_batch(xs, level).tolist() == [
                sub.survives(x, level) for x in self.ITEMS
            ]
        vec = VectorKWiseHash(40, 4, seed=8)
        for row, x in zip(vec.values_batch(xs), self.ITEMS):
            assert np.array_equal(row, vec.values(x))
        for row, x in zip(vec.signs_batch(xs), self.ITEMS):
            assert np.array_equal(row, vec.signs(x))
        source = as_source(9, "extreme")
        hashes = [KWiseHash(7, 4, source.child(str(i))) for i in range(5)]
        values = StackedKWiseBank.from_hashes(hashes).values_batch(xs)
        assert values.tolist() == [[h(x) for h in hashes] for x in self.ITEMS]
        signs = [SignHash(4, source.child(f"s{i}")) for i in range(5)]
        stacked = StackedKWiseBank.from_sign_hashes(signs).signs_batch(xs)
        assert stacked.tolist() == [[float(s(x)) for s in signs] for x in self.ITEMS]

    def test_gnp_trial_memberships(self):
        batch = _Substream(8, 5, as_source(10, "gnp"))
        scalar = _Substream(8, 5, as_source(10, "gnp"))
        deltas = [3, -1, 2, 5, -4]
        batch.update_batch(
            np.array(self.ITEMS, dtype=np.int64), np.array(deltas, dtype=np.int64)
        )
        for x, d in zip(self.ITEMS, deltas):
            scalar.update(x, d)
        assert batch.trial_counters == scalar.trial_counters
        assert batch.bit_counters == scalar.bit_counters
