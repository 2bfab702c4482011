"""Tests for the QAP solvers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dim3 import Dim3
from repro.errors import PlacementError
from repro.radius import Radius
from repro.core.partition import HierarchicalPartition
from repro.core.placement import place_node_aware
from repro.core.qap import (
    QapSolution,
    qap_cost,
    solve,
    solve_2opt,
    solve_exhaustive,
    solve_scipy_faq,
)
from repro.topology import summit_node


def random_instance(n, seed):
    rng = np.random.default_rng(seed)  # a seed or a Generator
    w = rng.random((n, n)) * 100
    d = rng.random((n, n))
    np.fill_diagonal(w, 0)
    np.fill_diagonal(d, 0)
    return w, d


def reference_exhaustive(w, d):
    """One permutation at a time: the loop the batched search replaces."""
    best_perm, best_cost, count = None, math.inf, 0
    for perm in itertools.permutations(range(len(w))):
        p = np.asarray(perm)
        c = float(np.sum(w * d[np.ix_(p, p)]))
        count += 1
        if c < best_cost - 1e-12:
            best_cost, best_perm = c, perm
    return best_perm, best_cost, count


@st.composite
def qap_instances(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(
        ["random", "integer", "near_tie", "symmetric", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return random_instance(n, rng)
    if kind == "integer":   # tie-heavy: many assignments share a cost
        return (rng.integers(0, 4, (n, n)).astype(float),
                rng.integers(0, 3, (n, n)).astype(float))
    if kind == "near_tie":  # costs a few eps apart: the tie-break decides
        return (rng.integers(0, 4, (n, n)).astype(float),
                rng.integers(1, 3, (n, n)) + rng.random((n, n)) * 1e-13)
    if kind == "symmetric":
        w, d = random_instance(n, rng)
        return w + w.T, (d + d.T) / 3
    return np.zeros((n, n)), np.zeros((n, n))


class TestCost:
    def test_identity_cost(self):
        w = np.array([[0.0, 2.0], [3.0, 0.0]])
        d = np.array([[0.0, 5.0], [7.0, 0.0]])
        assert qap_cost(w, d, [0, 1]) == 2 * 5 + 3 * 7
        assert qap_cost(w, d, [1, 0]) == 2 * 7 + 3 * 5

    def test_validation(self):
        with pytest.raises(PlacementError):
            solve_exhaustive(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(PlacementError):
            solve_exhaustive(np.ones((2, 2)), np.ones((3, 3)))
        with pytest.raises(PlacementError):
            solve_exhaustive(-np.ones((2, 2)), np.ones((2, 2)))


class TestExhaustive:
    def test_finds_known_optimum(self):
        # High flow between facilities 0,1; locations 0,1 are close.
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 100.0
        d = np.ones((3, 3)) - np.eye(3)
        d[0, 1] = d[1, 0] = 0.1
        sol = solve_exhaustive(w, d)
        # Facilities 0,1 must land on locations {0,1}.
        assert {sol.perm[0], sol.perm[1]} == {0, 1}

    def test_matches_brute_force(self):
        w, d = random_instance(5, 42)
        sol = solve_exhaustive(w, d)
        best = min(qap_cost(w, d, p)
                   for p in itertools.permutations(range(5)))
        assert sol.cost == pytest.approx(best)
        assert sol.evaluated == 120

    def test_deterministic_tiebreak(self):
        w = np.zeros((3, 3))      # all assignments cost 0
        d = np.zeros((3, 3))
        sol = solve_exhaustive(w, d)
        assert sol.perm == (0, 1, 2)  # lexicographically smallest

    def test_refuses_large_n(self):
        with pytest.raises(PlacementError):
            solve_exhaustive(np.zeros((10, 10)), np.zeros((10, 10)))

    @given(qap_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_loop_bit_for_bit(self, instance):
        w, d = instance
        sol = solve_exhaustive(w, d)
        assert (sol.perm, sol.cost, sol.evaluated) == reference_exhaustive(w, d)

    def test_all_zero_n8_is_identity(self):
        sol = solve_exhaustive(np.zeros((8, 8)), np.zeros((8, 8)))
        assert sol.perm == tuple(range(8))
        assert (sol.cost, sol.evaluated) == (0.0, math.factorial(8))

    def test_unique_optimum_in_last_chunk_n8(self):
        # Chain flow i -> i+1; only consecutive locations of ``target`` are
        # at distance 0, so ``target`` is the one zero-cost assignment.  It
        # starts with 7, so it is among the last 7! permutations.
        target = (7, 3, 5, 0, 6, 1, 4, 2)
        w = np.zeros((8, 8))
        d = np.ones((8, 8))
        for i in range(7):
            w[i, i + 1] = 1.0
            d[target[i], target[i + 1]] = 0.0
        sol = solve_exhaustive(w, d)
        assert (sol.perm, sol.cost) == (target, 0.0)

    def test_eps_tie_across_chunks_keeps_first_n8(self):
        # cost(perm) = d[perm[0], perm[1]].  The first optimum, the identity,
        # is in the first chunk; one starting (4, 5) is lower by less than
        # eps and lies four chunks later.  It must not win.
        w = np.zeros((8, 8))
        w[0, 1] = 1.0
        d = np.ones((8, 8))
        d[0, 1] = 0.5
        d[4, 5] = 0.5 - 5e-13
        sol = solve_exhaustive(w, d)
        assert (sol.perm, sol.cost) == (tuple(range(8)), 0.5)

    def test_eps_tie_within_chunk_keeps_first(self):
        w = np.zeros((4, 4))
        w[0, 1] = 1.0
        d = np.ones((4, 4))
        d[0, 1] = 0.5
        d[2, 3] = 0.5 - 5e-13
        sol = solve_exhaustive(w, d)
        assert (sol.perm, sol.cost) == ((0, 1, 2, 3), 0.5)

    def test_n8_peak_allocation_is_chunked(self):
        w, d = random_instance(8, 3)
        tracemalloc.start()
        try:
            solve_exhaustive(w, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One chunk gathers 7! * 64 floats (2.6 MB); scoring all 8!
        # permutations at once would gather 20.6 MB.
        assert peak < 8e6

    @given(st.integers(0, 1000))
    @settings(max_examples=15)
    def test_optimality_property(self, seed):
        w, d = random_instance(4, seed)
        sol = solve_exhaustive(w, d)
        for p in itertools.permutations(range(4)):
            assert sol.cost <= qap_cost(w, d, p) + 1e-9


class TestNonFinite:
    @staticmethod
    def nan_flow():
        w, d = random_instance(4, 0)
        w[1, 2] = np.nan
        return w, d

    @staticmethod
    def inf_distance():
        w, d = random_instance(4, 0)
        d[2, 3] = np.inf
        return w, d

    @pytest.mark.parametrize("solver", [solve_exhaustive, solve_2opt, solve])
    def test_nan_flow_named(self, solver):
        with pytest.raises(PlacementError, match=r"flow matrix .*\[1, 2\] = nan"):
            solver(*self.nan_flow())

    @pytest.mark.parametrize("solver", [solve_exhaustive, solve_2opt, solve])
    def test_inf_distance_named(self, solver):
        with pytest.raises(PlacementError,
                           match=r"distance matrix .*\[2, 3\] = inf"):
            solver(*self.inf_distance())

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_cost_diagnosed(self):
        w = np.full((3, 3), 1e200)
        with pytest.raises(PlacementError, match="finite cost"):
            solve_exhaustive(w, w)

    def test_place_node_aware_inf_distance(self):
        hp = HierarchicalPartition(Dim3(96, 96, 96), 1, 6)
        distance = np.ones((6, 6))
        distance[0, 5] = np.inf
        with pytest.raises(PlacementError, match="distance matrix"):
            place_node_aware(hp, Dim3(0, 0, 0), summit_node(), Radius.constant(1),
                             1, 4, distance=distance)


class TestHeuristics:
    def test_2opt_improves_or_equals_identity(self):
        w, d = random_instance(7, 1)
        sol = solve_2opt(w, d)
        assert sol.cost <= qap_cost(w, d, list(range(7))) + 1e-9
        assert sorted(sol.perm) == list(range(7))

    def test_2opt_never_beats_exhaustive(self):
        for seed in range(5):
            w, d = random_instance(5, seed)
            assert solve_2opt(w, d).cost >= solve_exhaustive(w, d).cost - 1e-9

    def test_2opt_bad_start(self):
        w, d = random_instance(4, 0)
        with pytest.raises(PlacementError):
            solve_2opt(w, d, start=[0, 0, 1, 2])

    def test_2opt_custom_start(self):
        w, d = random_instance(4, 0)
        sol = solve_2opt(w, d, start=[3, 2, 1, 0])
        assert sorted(sol.perm) == [0, 1, 2, 3]

    def test_faq_valid_permutation(self):
        w, d = random_instance(6, 3)
        sol = solve_scipy_faq(w, d)
        assert sorted(sol.perm) == list(range(6))
        assert sol.cost == pytest.approx(qap_cost(w, d, sol.perm))

    def test_faq_deterministic(self):
        w, d = random_instance(6, 3)
        assert solve_scipy_faq(w, d, seed=1).perm == \
            solve_scipy_faq(w, d, seed=1).perm


class TestDispatch:
    def test_auto_small_is_exact(self):
        w, d = random_instance(5, 7)
        assert solve(w, d).method == "exhaustive"

    def test_auto_large_is_2opt(self):
        w, d = random_instance(9, 7)
        assert solve(w, d).method == "2opt"

    def test_explicit_methods(self):
        w, d = random_instance(4, 7)
        for m in ("exhaustive", "2opt", "faq"):
            assert isinstance(solve(w, d, method=m), QapSolution)

    def test_unknown_method(self):
        w, d = random_instance(4, 7)
        with pytest.raises(PlacementError):
            solve(w, d, method="quantum")
