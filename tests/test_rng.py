import numpy as np
import pytest

from ptlab.rng import make_stream, uint32_draws


class TestMakeStream:
    def test_reproducible(self):
        a = make_stream(7, 2, 5).random(10)
        b = make_stream(7, 2, 5).random(10)
        np.testing.assert_array_equal(a, b)

    def test_keys_give_distinct_streams(self):
        base = make_stream(7, 0, 0).random(10)
        for key in [(1, 0), (0, 1), (1, 1)]:
            other = make_stream(7, *key).random(10)
            assert not np.array_equal(base, other)

    def test_key_lengths_give_distinct_streams(self):
        draws = [make_stream(5, *key).random(10)
                 for key in [(), (0,), (0, 0)]]
        for i in range(3):
            for j in range(i):
                assert not np.array_equal(draws[i], draws[j])

    def test_key_tuple_seed_prepends_its_path(self):
        a = make_stream((5, 1), 0).random(10)
        b = make_stream(5, 1, 0).random(10)
        np.testing.assert_array_equal(a, b)

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            make_stream(-1)
        with pytest.raises(ValueError):
            make_stream((-1, 0), 0)

    def test_seed_changes_stream(self):
        a = make_stream(1).random(10)
        b = make_stream(2).random(10)
        assert not np.array_equal(a, b)

    def test_streams_uncorrelated(self):
        x = make_stream(0, 0, 0).standard_normal(100_000)
        y = make_stream(0, 1, 0).standard_normal(100_000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.01


class TestUint32Draws:
    def test_draws_are_numpys_uint32_order(self):
        # two draws per 64-bit output, low half first, as g.integers does
        draws = uint32_draws(make_stream(15, 0, 0), 10_000)
        np.testing.assert_array_equal(
            draws, make_stream(15, 0, 0).integers(0, 2**32, 10_000,
                                                  dtype=np.uint32))
