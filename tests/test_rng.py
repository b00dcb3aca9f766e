import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpattn import Activation, DpParams, ParamRange, dp_attention, generate_good_dataset, rng
from dpattn.rng import (MAX_SEED, STREAM_VERSION, chi_squares, generator, normalize_entropy,
                        standard_normals)

README = Path(__file__).resolve().parent.parent / "README.md"


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
        # a shorter request is a prefix of a longer one, whatever their parity
        longest = standard_normals(9, (1, 2))
        for count in range(9):
            assert np.array_equal(standard_normals(count, (1, 2)), longest[:count])

    def test_is_numpy_standard_normal(self):
        assert np.array_equal(standard_normals(11, (1, 2)), generator((1, 2)).standard_normal(11))

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

    def test_negative_count_rejected(self):
        # a bool is an int too, and 2.5 used to end in a bare TypeError
        for count in (-1, 2.5, True):
            with pytest.raises(ParamRange, match="count must be an integer"):
                standard_normals(count, (1,))

    def test_later_calls_continue_the_block(self):
        # what keeps a blocked Bartlett run equal to one block: pieces of a
        # row-major block drawn one after another from one generator
        gen = generator((3, 1))
        pieces = [gen.standard_normal((rows, 3)) for rows in (1, 1, 3, 2)]
        assert np.array_equal(np.concatenate(pieces), standard_normals(21, (3, 1)).reshape(7, 3))

    def test_normalize_entropy_accepts_plain_int(self):
        assert normalize_entropy(5) == (5,)
        assert normalize_entropy((1, 2)) == (1, 2)

    def test_words_are_never_split(self):
        # each value plus one fills one 32-bit slot of the Philox key or
        # counter, so a value above MAX_SEED would overflow into the next
        # slot; entropy above MAX_SEED is refused
        for entropy in ((1, 2**32), (1, MAX_SEED + 1), 2**64):
            with pytest.raises(ParamRange):
                normalize_entropy(entropy)
            with pytest.raises(ParamRange):
                standard_normals(4, entropy)


def philox_state(entropy):
    """The ``(key, counter)`` integers that stream v5 gives ``entropy``."""
    packed = sum((e + 1) << (32 * i) for i, e in enumerate(entropy))
    return packed & (2**128 - 1), packed >> 128 << 128


def keyed_state(entropy):
    """The ``(key, counter)`` integers of ``generator(entropy)``'s Philox."""
    state = generator(entropy).bit_generator.state["state"]
    return tuple(sum(int(w) << (64 * i) for i, w in enumerate(state[part]))
                 for part in ("key", "counter"))


class TestKeying:
    ENTROPIES = [(0,), (MAX_SEED,), (3, 7), (1, MAX_SEED), (3, 7, 0), (4, 0, 0, 0),
                 (2, 5, 9, 1, 0), (MAX_SEED,) * 5, (1, 2, 3, 4, 5, 6), (0,) * 7,
                 (8, 7, 6, 5, 4, 3, 2, 1), (MAX_SEED,) * 8]

    def test_matches_philox_key_and_counter(self):
        for entropy in self.ENTROPIES:
            key, counter = philox_state(entropy)
            assert keyed_state(entropy) == (key, counter), entropy
            expected = np.random.Generator(np.random.Philox(key=key, counter=counter)).random(6)
            assert np.array_equal(generator(entropy).random(6), expected), entropy

    def test_distinct_tuples_get_distinct_states(self):
        prefixes = [tuple(range(1, m + 1)) for m in range(1, 9)]
        zeros = [(0,) * m for m in range(1, 9)]
        entropies = {*self.ENTROPIES, *prefixes, *zeros, (3, 7, 0, 0), (3, 7, 0, 0, 0),
                     (1, 0, 0), (0, 1), (1, 0)}
        assert len({keyed_state(e) for e in entropies}) == len(entropies)

    def test_nine_words_rejected(self):
        with pytest.raises(ParamRange, match="at most 8"):
            generator((1,) * 9)
        with pytest.raises(ParamRange):
            standard_normals(4, (0,) * 9)


class TestKeyingCost:
    def test_release_builds_two_generators(self, monkeypatch):
        data = generate_good_dataset(4, 8, eta=0.01, alpha=0.11, seed=7)
        params = DpParams(eps=0.05, delta=0.01, gamma=0.05, k=1_196_713, r=0.05,
                          kind=Activation.EXP, utility_const=1.0, seed=0)
        built = []

        def counted(entropy):
            built.append(entropy)
            return generator(entropy)

        monkeypatch.setattr(rng, "generator", counted)
        dp_attention(data, 1e-8, params)
        assert len(built) == 2

    def test_no_seed_sequence(self):
        # the key goes to Philox through a seed-sequence type of the package's
        # own, with no SeedSequence hash (Philox(key=...) would leave None)
        seed_seq = generator((1, 2)).bit_generator.seed_seq
        assert isinstance(seed_seq, np.random.bit_generator.ISeedSequence)
        assert not isinstance(seed_seq, np.random.SeedSequence)

    def test_import_leaves_numpy_random_out(self):
        # the key type is built on first use, so importing costs no numpy.random
        env = {**os.environ, "PYTHONPATH": str(Path(rng.__file__).resolve().parents[1])}
        code = "import sys, dpattn, dpattn.cli; print('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestChiSquares:
    def test_equals_numpy_chisquare(self):
        for df in (1, 7, 50, 1_196_713):
            expected = generator((4, 2)).chisquare(df, size=(6, 3))
            assert np.array_equal(chi_squares(df, (6, 3), generator((4, 2))), expected)
        df = np.array([1_196_713, 1_196_712, 3, 1])
        assert np.array_equal(chi_squares(df, df.shape, generator((3, 5, 0))),
                              generator((3, 5, 0)).chisquare(df))

    def test_zero_df_gives_zeros(self):
        assert np.all(chi_squares(0, (5, 2), generator((4, 2))) == 0.0)

    def test_zero_in_a_df_array_is_accepted(self):
        # df >= 0 holds at 0: the array path accepts it and draws an exact zero there
        out = chi_squares(np.array([0.0, 3.0]), (2,), generator((1,)))
        assert out[0] == 0.0 and out[1] > 0.0

    def test_negative_df_rejected(self):
        with pytest.raises(ParamRange):
            chi_squares(-1, (2,), generator((1,)))
        with pytest.raises(ParamRange):
            chi_squares(np.array([4, 0, -1]), (3,), generator((1,)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     np.float64("nan"), np.float64("inf")])
    def test_non_finite_df_rejected(self, bad):
        # nan used to give [nan, nan], and an inf entry inf
        for shape in ((2,), None):
            with pytest.raises(ParamRange, match="finite"):
                chi_squares(bad, shape, generator((1,)))
        with pytest.raises(ParamRange, match="finite"):
            chi_squares(np.array([4.0, bad]), (2,), generator((1,)))

    def test_one_variate_is_a_float_of_the_block(self):
        # shape None: numpy's scalar sampler, the first entry of the block's bits
        for df in (1, 6, 1_196_713):
            one = chi_squares(df, None, generator((4, 2)))
            assert type(one) is float
            assert one == chi_squares(df, (3,), generator((4, 2)))[0]
        gen = generator((3, 5, 0))
        df = [1_196_713, 1_196_712, 3]
        assert ([chi_squares(d, None, gen) for d in df]
                == chi_squares(np.array(df), (3,), generator((3, 5, 0)))).all()

    def test_later_calls_continue_the_block(self):
        df = np.array([9, 8, 7])
        gen = generator((3, 1, 0))
        pieces = [chi_squares(df, (rows, 3), gen) for rows in (1, 4, 2)]
        assert np.array_equal(np.concatenate(pieces), chi_squares(df, (7, 3), generator((3, 1, 0))))


def test_readme_names_the_stream_version():
    # the Determinism section documents the layout of one stream version
    assert f"`{STREAM_VERSION}`" in README.read_text()
