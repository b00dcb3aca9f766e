"""Every parameter passes one of four tests: ``check_integer``, ``check_real``,
``check_array`` or ``check_instance``.

``REALS`` names each real parameter of the library with a call that sets it and
keeps every other argument valid, the values at its interval's closed ends, which
are accepted, and the values at its open ends or just outside its closed ones,
which are rejected.  ``ARRAYS`` does the same for each array argument, with a
valid value and no ends, and ``INSTANCES`` for each argument of one of the
package's own types.
"""

import math
import sys
import warnings

import numpy as np
import pytest

from dpattn import (
    Activation,
    Dataset,
    DpParams,
    NeighborPair,
    ParamRange,
    PrivacyLoss,
    SymMatrix,
    attention_matrix,
    dp_attention,
    dp_certificate,
    entrywise_activation,
    gaussian_sampling_mechanism,
    generate_good_dataset,
    make_neighbor,
    neighbor_loss,
    perturbation_chain_check,
    privacy_loss_samples,
    required_samples,
    rng,
    sensitivity_bound,
    sensitivity_budget,
    theoretical_error_bound,
    utility_radius,
    verify_neighbor_privacy,
)
from dpattn.errors import check_array, check_integer, check_real

DATA = generate_good_dataset(n=2, d=3, eta=0.01, alpha=0.11, seed=1)
LOSS = PrivacyLoss([1.01, 0.99], 10)
ABOVE_TENTH = math.nextafter(0.1, 1.0)
BELOW_ZERO = -5e-324


def _params(**changed) -> DpParams:
    return DpParams(**{**dict(eps=0.05, delta=0.01, gamma=0.3, k=10, r=0.05,
                              kind=Activation.EXP, utility_const=1.0, seed=0), **changed})


# label -> (parameter name, call with the value, accepted ends, rejected values)
REALS = {
    "theoretical_error_bound-eps": (
        "eps", lambda v: theoretical_error_bound(v, 0.05), [0.1], [0, ABOVE_TENTH]),
    "theoretical_error_bound-r": (
        "r", lambda v: theoretical_error_bound(0.05, v), [0.1], [0, ABOVE_TENTH]),
    "Dataset-eta": ("eta", lambda v: Dataset(DATA.x, eta=v, alpha=0.11), [], [0]),
    "Dataset-alpha": ("alpha", lambda v: Dataset(DATA.x, eta=0.01, alpha=v), [], [0]),
    "generate_good_dataset-eta": (
        "eta", lambda v: generate_good_dataset(2, 3, v, 0.11, 1), [], [0]),
    "generate_good_dataset-alpha": (
        "alpha", lambda v: generate_good_dataset(2, 3, 0.01, v, 1), [], [0]),
    "NeighborPair-beta": ("beta", lambda v: NeighborPair(DATA, DATA.x, v, 0), [0], [BELOW_ZERO]),
    "make_neighbor-beta": ("beta", lambda v: make_neighbor(DATA, v, 0, 1), [], [0]),
    "sensitivity_bound-eta": ("eta", lambda v: sensitivity_bound(v, 0.11, 1e-3, 2), [], [0]),
    "sensitivity_bound-alpha": ("alpha", lambda v: sensitivity_bound(0.01, v, 1e-3, 2), [], [0]),
    "sensitivity_bound-beta": (
        "beta", lambda v: sensitivity_bound(0.01, 0.11, v, 2), [0], [BELOW_ZERO]),
    "dp_attention-beta": ("beta", lambda v: dp_attention(DATA, v, _params()), [0], [BELOW_ZERO]),
    "utility_radius-gamma": ("gamma", lambda v: utility_radius(2, v, 10, 1.0), [], [0, 1]),
    "utility_radius-scale": ("scale", lambda v: utility_radius(2, 0.3, 10, v), [], [0]),
    "required_samples-radius_target": (
        "radius_target", lambda v: required_samples(2, 0.3, v, 1.0), [], [0]),
    "DpParams-eps": ("eps", lambda v: _params(eps=v), [0.1], [0, ABOVE_TENTH]),
    "DpParams-delta": ("delta", lambda v: _params(delta=v), [0.1], [0, ABOVE_TENTH]),
    "DpParams-gamma": ("gamma", lambda v: _params(gamma=v), [], [0, 1]),
    "DpParams-r": ("r", lambda v: _params(r=v), [0.1], [0, ABOVE_TENTH]),
    "DpParams-utility_const": ("utility_const", lambda v: _params(utility_const=v), [], [0]),
    "sensitivity_budget-eps": ("eps", lambda v: sensitivity_budget(v, 0.01, 10), [], [0, 1]),
    "sensitivity_budget-delta": ("delta", lambda v: sensitivity_budget(0.05, v, 10), [], [0, 1]),
    # PrivacyLoss.tail, the sub-exponential tail bound
    "tail_bound-t": ("t", lambda v: LOSS.tail(v), [], [0]),
    "chi_squares-df": (
        "df", lambda v: rng.chi_squares(v, None, rng.generator((1,))), [0], [BELOW_ZERO]),
}


@pytest.mark.parametrize("bad", [True, np.True_, math.nan, math.inf, -math.inf, "0.05",
                                 pytest.param(10**400, id="10**400")], ids=repr)
@pytest.mark.parametrize("label", REALS)
def test_a_bool_non_finite_or_string_real_is_rejected(label, bad):
    # a bool used to be read as 1.0, t or radius_target used to take inf, and a
    # Python int beyond the double range ended in a bare OverflowError
    name, call, _, _ = REALS[label]
    with pytest.raises(ParamRange, match=f"^{name} must be"):
        call(bad)


@pytest.mark.parametrize("label", REALS)
def test_closed_ends_are_accepted_and_open_ends_rejected(label):
    name, call, accepted, rejected = REALS[label]
    for value in accepted:
        call(value)
    for value in rejected:
        with pytest.raises(ParamRange, match=f"^{name} must be"):
            call(value)


def test_check_real_takes_python_and_numpy_reals():
    for value in (0.05, np.float64(0.05), np.float32(0.05), 1, np.int64(1), np.uint8(1)):
        check_real("x", value, 0, 1, "(]")
    with pytest.raises(ParamRange, match=r"^x must be a finite real in \[0, inf\), got True$"):
        check_real("x", True, 0, math.inf, "[)")
    for value in (1 + 0j, np.complex128(0.5), None, np.array(0.5)):
        with pytest.raises(ParamRange):
            check_real("x", value, 0, 1, "[]")


def test_check_integer_takes_an_inclusive_maximum():
    check_integer("x", 3, 0, 3)
    with pytest.raises(ParamRange, match=r"^x must be an integer in \[0, 3\], got 4$"):
        check_integer("x", 4, 0, 3)
    with pytest.raises(ParamRange, match=r"^x must be an integer of at least 0, got -1$"):
        check_integer("x", -1, 0)


def test_python_ints_must_lie_in_the_double_range():
    largest = int(sys.float_info.max)
    check_integer("x", largest, 0)
    check_real("x", largest, 0, math.inf, "()")
    beyond = r"^x must be an integer in the double range \(at most 1\.7976931348623157e\+308\)"
    with pytest.raises(ParamRange, match=beyond):
        check_integer("x", largest + 1, 0)
    # a value that also fails a stated end gets the usual message
    with pytest.raises(ParamRange, match=r"^x must be an integer in \[0, 3\], got "):
        check_integer("x", largest + 1, 0, 3)
    for low, value in ((0, largest + 1), (-math.inf, -largest - 1)):
        with pytest.raises(ParamRange, match="^x must be a finite real in "):
            check_real("x", value, low, math.inf, "()")
    # numpy integers always fit, and are compared without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (np.uint64(2**64 - 1), np.int64(-2**63)):
            check_integer("x", value, -2**63)
            check_real("x", value, -math.inf, math.inf, "()")


def test_counts_beyond_the_double_range_are_rejected():
    # each ended in "OverflowError: int too large to convert to float"; the message names
    # the double range, the one end 10**400 fails
    for call in (lambda: sensitivity_budget(0.05, 0.01, 10**400),
                 lambda: dp_attention(DATA, 0.0, _params(k=10**400))):
        with pytest.raises(ParamRange) as info:
            call()
        assert str(info.value) == ("k must be an integer in the double range "
                                   f"(at most 1.7976931348623157e+308), got {10**400}")
    # past Python's 4300-digit limit on printing an int, formatting the message ended in
    # a bare ValueError; the value is named by its length instead
    for call, message in (
            (lambda: check_integer("k", 10**5000, 1),
             "k must be an integer in the double range (at most 1.7976931348623157e+308), "
             "got an int of more than 4300 digits"),
            (lambda: check_real("x", 10**5000, 0, math.inf, "()"),
             "x must be a finite real in (0, inf), got an int of more than 4300 digits")):
        with pytest.raises(ParamRange) as info:
            call()
        assert str(info.value) == message


MATRIX = SymMatrix(np.diag([0.05, 0.05]))

# label -> (parameter name, dimensions, call with the value, a valid value)
ARRAYS = {
    "SymMatrix": ("values", 2, SymMatrix, np.eye(2)),
    "entrywise_activation": (
        "values", 2, lambda v: entrywise_activation(v, Activation.EXP), np.eye(2)),
    "gaussian_sampling_mechanism": (
        "values", 2, lambda v: gaussian_sampling_mechanism(v, 10, 1), np.eye(2)),
    "Dataset": ("x", 2, lambda v: Dataset(v, eta=0.01, alpha=0.11), DATA.x),
    "NeighborPair": ("perturbed", 2, lambda v: NeighborPair(DATA, v, 0.0, 0), DATA.x),
    # a PrivacyLoss's comparison spectrum
    "PrivacySpectrum": ("eigenvalues", 1, lambda v: PrivacyLoss(v, 10), LOSS.eigenvalues),
    "perturbation_chain_check-mu": (
        "mu", 1, lambda v: perturbation_chain_check(MATRIX, MATRIX, v, 0.05, 0.05,
                                                    Activation.EXP), np.ones(2)),
}


def _with_entry(good, entry):
    bad = good.copy()
    bad.flat[-1] = entry
    return bad


# name -> the valid value made malformed
MALFORMED = {
    "ragged": lambda good: [good[0], good[1:]],
    "numeric-strings": lambda good: good.astype(str),
    "words": lambda good: np.full(good.shape, "one"),
    "bools": lambda good: good != 0,
    "complex": lambda good: good + 0j,
    "objects": lambda good: good.astype(object),
    "wrong-ndim": lambda good: good[None],
    "nan": lambda good: _with_entry(good, math.nan),
    "inf": lambda good: _with_entry(good, -math.inf),
}


@pytest.mark.parametrize("malformed", MALFORMED)
@pytest.mark.parametrize("label", ARRAYS)
def test_a_malformed_array_is_rejected_by_name(label, malformed):
    # a ragged or word array ended in a bare ValueError, a numeric string array was
    # read as numbers, and a non-finite matrix was an InvalidMatrix at two entry points
    name, ndim, call, good = ARRAYS[label]
    with pytest.raises(ParamRange, match=f"^{name} must be a {ndim}-d array of finite reals, "):
        call(MALFORMED[malformed](good))


@pytest.mark.parametrize("label", ARRAYS)
def test_an_array_may_be_given_as_nested_lists(label):
    # a list mu ended in "AttributeError: 'list' object has no attribute 'min'"
    _, _, call, good = ARRAYS[label]
    call(good.tolist())


# label -> (parameter name, its type, call with the value)
INSTANCES = {
    "dp_attention-data": ("data", Dataset, lambda v: dp_attention(v, 0.0, _params())),
    "dp_attention-params": ("params", DpParams, lambda v: dp_attention(DATA, 0.0, v)),
    "verify_neighbor_privacy": (
        "pair", NeighborPair, lambda v: verify_neighbor_privacy(v, 0.05, 0.01, 10, 1000, 0)),
    # neighbor_loss, the loss of the neighbor spectrum
    "neighbor_spectrum": ("pair", NeighborPair, lambda v: neighbor_loss(v, 10)),
    "NeighborPair": ("base", Dataset, lambda v: NeighborPair(v, DATA.x, 0.0, 0)),
    "make_neighbor": ("data", Dataset, lambda v: make_neighbor(v, 1e-3, 0, 1)),
    "dp_certificate": ("loss", PrivacyLoss, lambda v: dp_certificate(v, 0.05, 0.01)),
    "privacy_loss_samples": ("loss", PrivacyLoss, lambda v: privacy_loss_samples(v, 5, 0)),
}


@pytest.mark.parametrize("value", [np.eye(2), [[1.0, 0.0], [0.0, 1.0]], None],
                         ids=["ndarray", "list", "None"])
@pytest.mark.parametrize("label", INSTANCES)
def test_a_wrong_type_is_rejected_by_name(label, value):
    # each ended in a bare AttributeError, such as "'NoneType' object has no attribute
    # 'column'" for a None pair
    name, cls, call = INSTANCES[label]
    with pytest.raises(ParamRange, match=f"^{name} must be a {cls.__name__}, "
                                         f"got a {type(value).__name__}$"):
        call(value)


@pytest.mark.parametrize("k", [True, 10.0, -1, pytest.param(10**5000, id="10**5000")],
                         ids=repr)
def test_a_privacy_loss_takes_a_count(k):
    # k is checked once, when the loss is built; 0 is the point mass at 0
    with pytest.raises(ParamRange, match="^k must be an integer "):
        PrivacyLoss(LOSS.eigenvalues, k)
    assert PrivacyLoss(LOSS.eigenvalues, 0).k == 0


def test_check_array_returns_a_read_only_float_copy():
    value = np.array([[1, 2], [3, 4]])
    arr = check_array("x", value, 2)
    assert arr.dtype == np.float64 and not arr.flags.writeable
    assert np.array_equal(arr, value) and not np.shares_memory(arr, value)
    with pytest.raises(ParamRange, match=r"^x must be a 1-d array of finite reals, got a "
                                         r"int64 array of shape \(2, 2\)$"):
        check_array("x", value, 1)


@pytest.mark.parametrize("seed", [True, (1, 2.9), "12", (3, np.False_), 7.0], ids=repr)
def test_seed_words_are_integers(seed):
    # True keyed the stream of 1, (1, 2.9) that of (1, 2) and '12' that of (1, 2)
    with pytest.raises(ParamRange, match="seed word must be an integer"):
        rng.normalize_entropy(seed)
    with pytest.raises(ParamRange, match="seed word must be an integer"):
        generate_good_dataset(n=2, d=3, eta=0.01, alpha=0.11, seed=seed)


def test_accepted_seeds_keep_their_words():
    assert rng.normalize_entropy(np.uint32(7)) == (7,)
    words = rng.normalize_entropy([1, np.int64(rng.MAX_SEED)])
    assert words == (1, rng.MAX_SEED) and all(type(w) is int for w in words)
    assert np.array_equal(rng.standard_normals(5, (np.int64(3), 4)),
                          rng.standard_normals(5, (3, 4)))
    with pytest.raises(ParamRange, match=r"seed word must be an integer in \[0, 4294967294\]"):
        rng.normalize_entropy((1, rng.MAX_SEED + 1))


@pytest.mark.parametrize("kind", ["exp", "cosh", None, 0], ids=repr)
def test_kind_must_be_an_activation(kind):
    # anything but Activation.EXP used to give the cosh map
    m = SymMatrix(np.diag([0.05, 0.05]))
    calls = (lambda: entrywise_activation(m, kind), lambda: attention_matrix(m, kind),
             lambda: perturbation_chain_check(m, m, np.ones(2), 0.05, 0.05, kind))
    for call in calls:
        with pytest.raises(ParamRange, match="kind must be an Activation"):
            call()


@pytest.mark.parametrize("df", [np.array([True, False]), [True, False], np.array(["1", "2"]),
                                np.array([1, 2], dtype=object)], ids=repr)
def test_array_df_is_an_integer_or_float_array(df):
    # a bool array used to be drawn as df 0 and 1
    with pytest.raises(ParamRange, match="df must be a non-negative finite integer or float array"):
        rng.chi_squares(df, (2,), rng.generator((1,)))


def test_integer_array_df_draws_as_float():
    drawn = rng.chi_squares(np.array([3, 4]), (2,), rng.generator((1,)))
    assert np.array_equal(drawn, rng.chi_squares(np.array([3.0, 4.0]), (2,), rng.generator((1,))))
