"""Unit tests for shared helpers."""

import numpy as np
import pytest

from repro.utils import (as_int_array, boundary_mask, env_scale, human_bytes,
                         human_ms, rng_from, sorted_unique)


class TestRngFrom:
    def test_seed_determinism(self):
        assert rng_from(5).integers(0, 100, 10).tolist() == \
               rng_from(5).integers(0, 100, 10).tolist()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert rng_from(gen) is gen

    def test_none_gives_fresh_generator(self):
        assert isinstance(rng_from(None), np.random.Generator)


class TestEnvScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert env_scale() == 1.0
        assert env_scale(default=2.0) == 2.0

    def test_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        assert env_scale() == 0.25

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "banana")
        with pytest.raises(ValueError):
            env_scale()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            env_scale()


class TestAsIntArray:
    def test_no_copy_when_matching(self):
        a = np.arange(5, dtype=np.int32)
        assert as_int_array(a, np.int32) is a

    def test_converts(self):
        out = as_int_array([1, 2, 3], np.int32)
        assert out.dtype == np.int32

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            as_int_array(np.zeros((2, 2)), np.int32)


class TestFormatting:
    def test_human_bytes(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(2048) == "2.0 KiB"
        assert human_bytes(3 * 1024**3) == "3.0 GiB"

    def test_human_ms(self):
        assert human_ms(0.5) == "0.500 ms"
        assert human_ms(5) == "5.0 ms"
        assert human_ms(500) == "500 ms"
        assert human_ms(12_000) == "12.0 s"


class TestSortedUnique:
    """``sorted_unique`` is a drop-in for a plain ``np.unique``."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
    @pytest.mark.parametrize("values", [
        [],
        [7],
        [5, 5, 5, 5],
        [0, 1, 1, 2, 9, 9, 12],
        [9, 3, 3, 0, 7, 0, 12, 9],
    ], ids=["empty", "single", "all-duplicate", "already-sorted", "shuffled"])
    def test_matches_np_unique(self, dtype, values):
        a = np.array(values, dtype=dtype)
        got = sorted_unique(a)
        want = np.unique(a)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint64])
    def test_matches_np_unique_random(self, dtype):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 500, 5000).astype(dtype)
        assert np.array_equal(sorted_unique(a), np.unique(a))

    def test_extreme_values(self):
        a = np.array([2**64 - 1, 0, 2**63, 2**64 - 1], dtype=np.uint64)
        assert np.array_equal(sorted_unique(a), np.unique(a))
        b = np.array([-(2**63), 2**63 - 1, -(2**63)], dtype=np.int64)
        assert np.array_equal(sorted_unique(b), np.unique(b))

    def test_input_untouched(self):
        a = np.array([3, 1, 3], dtype=np.int64)
        sorted_unique(a)
        assert a.tolist() == [3, 1, 3]


class TestBoundaryMask:
    def test_empty(self):
        assert boundary_mask(np.zeros(0, np.int64)).tolist() == []

    def test_single_key(self):
        a = np.array([1, 1, 2, 5, 5, 5])
        assert boundary_mask(a).tolist() == [True, False, True, True,
                                             False, False]

    def test_co_sorted_keys_split_runs(self):
        """A run ends where *any* key changes (lexsort order)."""
        first = np.array([0, 0, 0, 1, 1])
        second = np.array([4, 4, 6, 6, 6])
        assert boundary_mask(first, second).tolist() == [True, False, True,
                                                         True, False]
