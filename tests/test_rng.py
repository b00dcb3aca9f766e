import numpy as np
import pytest

from dpattn import ParamRange
from dpattn.rng import normalize_entropy, standard_normals


class TestStandardNormals:
    def test_deterministic(self):
        a = standard_normals(100, (3, 7))
        b = standard_normals(100, (3, 7))
        assert np.array_equal(a, b)

    def test_streams_are_disjoint(self):
        a = standard_normals(100, (3, 7))
        b = standard_normals(100, (3, 8))
        c = standard_normals(100, (3, 7, 0))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_odd_count_is_prefix_of_even(self):
        # an odd request drops the surplus Box-Muller output, nothing else
        assert np.array_equal(standard_normals(7, (1, 2)), standard_normals(8, (1, 2))[:7])

    def test_zero_count(self):
        assert standard_normals(0, (1,)).shape == (0,)

    def test_moments(self):
        z = standard_normals(200_000, (9, 9))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        # tail mass sanity for the transform
        assert 0.04 < (np.abs(z) > 2.0).mean() < 0.052

    def test_entropy_validation(self):
        with pytest.raises(ParamRange):
            standard_normals(10, (-1, 2))
        with pytest.raises(ParamRange):
            standard_normals(10, ())
        with pytest.raises(ParamRange):
            standard_normals(-1, (1,))

    def test_normalize_entropy_accepts_plain_int(self):
        assert normalize_entropy(5) == (5,)
        assert normalize_entropy((1, 2)) == (1, 2)
