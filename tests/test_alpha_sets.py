import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqms import DiscreteChannelModel, build_region, build_vhat, build_w, canonicalize, in_v, wn_count


def naive_in_v(alpha, M):
    """Independent check: literal scan over ordered subsets and factor pairs."""
    coords = [Fraction(x) for x in alpha]
    N = len(coords)
    indices = list(range(N))
    for size in range(1, N):
        for U in itertools.combinations(indices, size):
            Uc = [i for i in indices if i not in U]
            if all(coords[i] == 0 for i in U) or all(coords[j] == 0 for j in Uc):
                continue
            found = False
            for i in U:
                for j in Uc:
                    if coords[i] == 0 or coords[j] == 0:
                        continue
                    for m in range(1, M + 1):
                        for n in range(1, M + 1):
                            if coords[i] * m == coords[j] * n:
                                found = True
            if not found:
                return False
    return True


# -- build_w ---------------------------------------------------------------


def test_build_w_binary_capacities():
    for N in (2, 3, 5):
        assert build_w(1, N) == [0, 1]


def test_build_w_two_factor_products():
    assert build_w(2, 3) == [0, 1, 2, 4]


def test_build_w_single_factor():
    assert build_w(3, 2) == [0, 1, 2, 3]


def test_build_w_always_contains_zero_and_one():
    for M in range(1, 5):
        for N in range(2, 5):
            W = build_w(M, N)
            assert 0 in W and 1 in W


def test_build_w_size_formula_in_collisionfree_regime():
    # distinct factor multisets give distinct products for M <= 3 or N = 2
    for M in (1, 2, 3):
        for N in (2, 3, 4, 5):
            assert len(build_w(M, N)) ** N == wn_count(M, N)
    for M in (4, 5, 6):
        assert len(build_w(M, 2)) ** 2 == wn_count(M, 2)


def test_build_w_size_formula_breaks_at_product_collisions():
    # 2*2 = 1*4: the value 4 is reachable twice, so the enumerated set is
    # one short of the multiset count at M=4, N=3
    assert len(build_w(4, 3)) == 10
    assert wn_count(4, 3) == 11**3


# -- wn_count ----------------------------------------------------------------


@pytest.mark.parametrize(
    "M,N,expected",
    [(2, 3, 64), (4, 2, 25), (1, 2, 4), (1, 3, 8), (3, 3, 343), (4, 3, 1331)],
)
def test_wn_count_values(M, N, expected):
    assert wn_count(M, N) == expected


# -- in_v --------------------------------------------------------------------


def test_incompatible_partition_fails():
    assert in_v((1, 2, 5, 10), 2) is False


def test_single_nonzero_real_coordinate_passes():
    assert in_v((0, 2.5, 0, 0), 2) is True


def test_all_ones_passes_any_m():
    for M in (1, 2, 5):
        for N in (2, 3, 4):
            assert in_v((1,) * N, M) is True


@pytest.mark.parametrize(("call", "message"), [
    (lambda: build_w(0, 2), "M must be at least 1, got 0"),
    (lambda: build_w(2, 0), "N must be at least 1, got 0"),
    (lambda: wn_count(0, 2), "M must be at least 1, got 0"),
    (lambda: wn_count(2, 1), "N must be at least 2, got 1"),
    (lambda: canonicalize((2, -4)), "direction coordinates must be nonnegative"),
    (lambda: in_v((1, 1), 0), "M must be at least 1, got 0"),
], ids=["build_w-M", "build_w-N", "wn_count-M", "wn_count-N", "canonicalize-negative", "in_v-M"])
def test_bad_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        in_v((0, 0), 2)


def test_negative_coordinate_rejected():
    with pytest.raises(ValueError):
        in_v((1, -1), 2)


@given(
    alpha=st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=5),
    q=st.sampled_from([1, 2, 3, 5, 7]),
    M=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_in_v_invariant_under_integer_scaling(alpha, q, M):
    if not any(alpha):
        alpha = alpha[:-1] + [1]
    assert in_v(alpha, M) == in_v([q * a for a in alpha], M)


@given(
    alpha=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, 3.0]), min_size=2, max_size=4),
    q=st.sampled_from([0.25, 0.5, 2.0, 4.0]),  # exact float scalings
    M=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_in_v_invariant_under_exact_float_scaling(alpha, q, M):
    if not any(alpha):
        alpha = alpha[:-1] + [1.0]
    assert in_v(alpha, M) == in_v([q * a for a in alpha], M)


def test_in_v_reads_fraction_coordinates_exactly():
    # thirds have no float form: (1/3, 2/3) is (1, 2) and (1/3, 1) is (1, 3), exactly
    assert in_v((Fraction(1, 3), Fraction(2, 3)), 2) is in_v((1, 2), 2) is True
    assert in_v((Fraction(1, 3), Fraction(1)), 2) is in_v((1, 3), 2) is False


def test_in_v_agrees_with_naive_oracle(rng):
    for _ in range(200):
        N = int(rng.integers(2, 5))
        M = int(rng.integers(1, 4))
        alpha = rng.integers(0, 10, N).tolist()
        if not any(alpha):
            alpha[0] = 1
        assert in_v(alpha, M) == naive_in_v(alpha, M)


# -- canonicalize ------------------------------------------------------------


def test_canonicalize_divides_by_gcd():
    assert canonicalize((2, 4, 0)) == (1, 2, 0)
    assert canonicalize((3, 3, 3)) == (1, 1, 1)
    assert canonicalize((0, 7)) == (0, 1)
    # an integral float reads as an integer
    assert canonicalize((2.0, 4.0, 0.0)) == (1, 2, 0)
    assert all(type(a) is int for a in canonicalize((2.0, 4.0)))


def test_canonicalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        canonicalize((0, 0))


@pytest.mark.parametrize(("call", "message"), [
    (lambda: canonicalize((1.5, 3)), r"alpha\[0\] must be an integer, got 1\.5"),
    (lambda: canonicalize((2, 0.5)), r"alpha\[1\] must be an integer, got 0\.5"),
    (lambda: canonicalize((math.inf, 1)), r"alpha\[0\] must be an integer, got inf"),
    (lambda: canonicalize((math.nan, 1)), r"alpha\[0\] must be an integer, got nan"),
    (lambda: canonicalize((True, 2)), r"alpha\[0\] must be an integer, got True"),
    (lambda: in_v((math.inf, 1.0), 2), r"alpha\[0\] must be finite, got inf"),
    (lambda: in_v((1.0, -math.inf), 2), r"alpha\[1\] must be finite, got -inf"),
    (lambda: in_v((math.nan, 1.0), 2), r"alpha\[0\] must be finite, got nan"),
], ids=["canonicalize-fraction", "canonicalize-second", "canonicalize-inf", "canonicalize-nan",
        "canonicalize-bool", "in_v-inf", "in_v-minus-inf", "in_v-nan"])
def test_direction_readers_reject_non_integral_or_non_finite_coordinates(call, message):
    # canonicalize((1.5, 3)) truncated to (1, 3), and an infinite coordinate
    # raised OverflowError from int() or Fraction()
    with pytest.raises(ValueError, match=message):
        call()


# -- build_vhat ----------------------------------------------------------------


def test_vhat_binary_two_queues():
    assert build_vhat(1, 2) == [(0, 1), (1, 0), (1, 1)]


def test_vhat_m2_two_queues():
    assert build_vhat(2, 2) == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]


def test_vhat_m2_three_queues_count():
    assert len(build_vhat(2, 3)) == 25


def test_vhat_single_queue_degenerates():
    assert build_vhat(3, 1) == [(1,)]


def test_vhat_contains_every_basis_vector():
    for M in (1, 2, 3):
        for N in (2, 3):
            vhat = set(build_vhat(M, N))
            for n in range(N):
                e = tuple(1 if i == n else 0 for i in range(N))
                assert e in vhat


def test_vhat_is_scaling_free():
    for M, N in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3)]:
        vhat = build_vhat(M, N)
        for u, v in itertools.combinations(vhat, 2):
            # parallel integer vectors satisfy u[i] v[j] == u[j] v[i] for all i, j
            parallel = all(
                u[i] * v[j] == u[j] * v[i] for i in range(N) for j in range(N)
            )
            assert not parallel, f"{u} and {v} are scalar multiples"


def test_vhat_complete_over_candidate_space():
    # every surviving candidate is an integer multiple of exactly one element
    for M in (1, 2, 3):
        for N in (2, 3):
            vhat = set(build_vhat(M, N))
            W = build_w(M, N)
            for cand in itertools.product(W, repeat=N):
                if not any(cand) or not in_v(cand, M):
                    continue
                rep = canonicalize(cand)
                assert rep in vhat
                g = cand[next(i for i in range(N) if cand[i])] // rep[next(i for i in range(N) if cand[i])]
                assert tuple(g * r for r in rep) == tuple(cand)


def test_vhat_counts_match_naive_oracle():
    for (M, N) in [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (4, 3), (2, 4)]:
        W = build_w(M, N)
        survivors = {
            canonicalize(c)
            for c in itertools.product(W, repeat=N)
            if any(c) and naive_in_v(c, M)
        }
        assert sorted(survivors) == build_vhat(M, N)


def _witness_model(alpha):
    """K = 1, M = 4 model on whose region the inequality for alpha is a facet.

    Oblique (p, q): the one state C = (q, p), whose region is the
    time-sharing triangle p r1 + q r2 <= p q.  Axis e_n: the two
    equiprobable states (1, 0) and (0, 1), whose region is the box
    [0, 1/2]^2.
    """
    p, q = alpha
    if p and q:
        return [((q, p), Fraction(1))]
    return [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 2))]


def test_n2_m4_every_direction_is_needed():
    # for each of the 13 directions at (N, M) = (2, 4) there is a model in
    # that cell and a rate point that meets the other 12 inequalities but
    # breaks this one, so no direction is redundant; all arithmetic is exact
    vhat = build_vhat(4, 2)
    assert len(vhat) == 13
    for alpha in vhat:
        states = _witness_model(alpha)
        model = DiscreteChannelModel.explicit_joint(
            [([[c] for c in C], float(prob)) for C, prob in states], M=4
        )
        region = build_region(model)
        assert [a for a, _ in region.inequalities] == vhat
        beta = {}
        for a, b in region.inequalities:
            exact = sum(prob * max(a[0] * C[0], a[1] * C[1]) for C, prob in states)
            assert Fraction(b) == exact, (alpha, a, b)
            beta[a] = exact
        p, q = alpha
        if p and q:  # just beyond the midpoint of the facet
            point = (Fraction(q, 2) * Fraction(101, 100), Fraction(p, 2) * Fraction(101, 100))
        else:  # just beyond the box side, on the axis
            point = (Fraction(6, 10) * p, Fraction(6, 10) * q)
        for a in vhat:
            lhs = a[0] * point[0] + a[1] * point[1]
            if a == alpha:
                assert lhs > beta[a], (alpha, point)
            else:
                assert lhs <= beta[a], (alpha, a, point)


def test_vhat_enumeration_cap():
    with pytest.raises(ValueError, match="cap exceeded"):
        build_vhat(3, 3, cap=100)


def test_vhat_cap_is_checked_before_w_is_built():
    # W would hold 10^8 + 1 values, and (M + 1)^N alone is past the cap; a single queue keeps W = {1}
    for M, N in ((10**8, 2), (3, 10**6)):
        with pytest.raises(ValueError, match=rf"enumeration cap exceeded: \|W\|\^N >= {M + 1}\^{N} > 10000000"):
            build_vhat(M, N)
    assert build_vhat(10**8, 1) == [(1,)]
