"""Quadratic assignment problem solvers (§III-B).

Given flow matrix ``w`` (facility i → facility j traffic) and distance
matrix ``d`` (location i ↔ location j cost), find the bijection ``f`` from
facilities to locations minimizing ``sum_{i,j} w[i,j] * d[f(i), f(j)]``.

The paper "simply check[s] all possible subdomain-GPU mappings on each
node" — exhaustive search, exact and affordable because nodes have ≤ 8
GPUs.  We implement that, scoring all ``n!`` assignments in chunked numpy
batches rather than one at a time; the costs, the tie-break and the
evaluation count are those of a one-permutation-at-a-time loop.  Two
heuristics cover larger instances (used by the ablation benches, never by
default placement):

* pairwise-swap local search (2-opt) from the identity assignment, and
* scipy's FAQ approximation (``scipy.optimize.quadratic_assignment``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import PlacementError


def qap_cost(w: np.ndarray, d: np.ndarray, perm: Sequence[int]) -> float:
    """Objective value of assignment ``perm`` (facility i → location perm[i])."""
    p = np.asarray(perm, dtype=int)
    return float(np.sum(w * d[np.ix_(p, p)]))


def _validate(w: np.ndarray, d: np.ndarray) -> int:
    w = np.asarray(w, float)
    d = np.asarray(d, float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise PlacementError(f"flow matrix must be square, got {w.shape}")
    if d.shape != w.shape:
        raise PlacementError(
            f"distance matrix shape {d.shape} != flow shape {w.shape}")
    for name, m in (("flow", w), ("distance", d)):
        bad = np.argwhere(~np.isfinite(m))
        if len(bad):
            i, j = bad[0]
            raise PlacementError(
                f"{name} matrix has {len(bad)} non-finite entries, "
                f"first [{i}, {j}] = {m[i, j]}")
    if np.any(w < 0) or np.any(d < 0):
        raise PlacementError("flow/distance entries must be non-negative")
    return w.shape[0]


# Permutations generated and scored per batch: 7!, so n <= 7 is one batch
# and an n = 9 solve holds 5040*81 gathered floats at a time, not 235 MB.
_CHUNK = 5040


def _batch_costs(w: np.ndarray, d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``qap_cost`` of every row of ``p``, bit for bit: each row sums one
    contiguous ``n*n`` block, as ``np.sum`` does on the gathered matrix."""
    terms = d[p[:, :, None], p[:, None, :]]
    terms *= w
    return terms.reshape(len(p), -1).sum(axis=1)


@dataclass(frozen=True, slots=True)
class QapSolution:
    """An assignment and its objective value.

    ``perm[i]`` is the location assigned to facility ``i``;
    ``evaluated`` counts objective evaluations (solver effort metric).
    """

    perm: Tuple[int, ...]
    cost: float
    evaluated: int
    method: str


def solve_exhaustive(w: np.ndarray, d: np.ndarray,
                     max_n: int = 9) -> QapSolution:
    """Exact solution by enumerating all ``n!`` assignments.

    The permutations, in ``itertools.permutations`` order, are scored in
    batches of ``_CHUNK`` (see ``_batch_costs``), and ``evaluated`` is
    ``n!``: the same costs and result as scoring them one at a time.

    Ties (common on symmetric nodes) break toward the lexicographically
    smallest permutation, making placement deterministic.  A small epsilon
    guards against float noise flipping equivalent assignments.
    """
    n = _validate(w, d)
    if n > max_n:
        raise PlacementError(
            f"exhaustive QAP over {n}! assignments refused (n > {max_n}); "
            f"use solve_2opt or solve_scipy_faq")
    w = np.asarray(w, float)
    d = np.asarray(d, float)
    count = math.factorial(n)
    perms = itertools.permutations(range(n))
    best_perm: Tuple[int, ...] = ()
    best_cost = math.inf
    eps = 1e-12
    for start in range(0, count, _CHUNK):
        k = min(_CHUNK, count - start)
        p = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(perms, k)),
            dtype=np.intp, count=k * n).reshape(k, n)
        costs = _batch_costs(w, d, p)
        # Only entries below the running bound can win; best_cost only
        # falls, so scanning those in order is the sequential scan.
        for i in np.flatnonzero(costs < best_cost - eps):
            c = float(costs[i])
            if c < best_cost - eps:
                best_cost = c
                best_perm = tuple(int(x) for x in p[i])
    if best_cost == math.inf:
        raise PlacementError("no assignment has a finite cost "
                             "(flow * distance overflows)")
    return QapSolution(best_perm, best_cost, count, "exhaustive")


def solve_2opt(w: np.ndarray, d: np.ndarray,
               start: Optional[Sequence[int]] = None,
               max_rounds: int = 100) -> QapSolution:
    """Pairwise-swap local search.

    Starts from ``start`` (identity by default) and repeatedly applies the
    best improving swap until a local optimum.  Deterministic; not exact.
    """
    n = _validate(w, d)
    w = np.asarray(w, float)
    d = np.asarray(d, float)
    perm = list(range(n)) if start is None else list(start)
    if sorted(perm) != list(range(n)):
        raise PlacementError(f"start {perm} is not a permutation of 0..{n-1}")
    cost = qap_cost(w, d, perm)
    evaluated = 1
    for _round in range(max_rounds):
        best_delta = -1e-12
        best_swap: Optional[Tuple[int, int]] = None
        for i in range(n):
            for j in range(i + 1, n):
                perm[i], perm[j] = perm[j], perm[i]
                c = qap_cost(w, d, perm)
                evaluated += 1
                perm[i], perm[j] = perm[j], perm[i]
                if c - cost < best_delta:
                    best_delta = c - cost
                    best_swap = (i, j)
        if best_swap is None:
            break
        i, j = best_swap
        perm[i], perm[j] = perm[j], perm[i]
        cost += best_delta
    return QapSolution(tuple(perm), qap_cost(w, d, perm), evaluated, "2opt")


def solve_scipy_faq(w: np.ndarray, d: np.ndarray, seed: int = 0) -> QapSolution:
    """scipy's FAQ (Fast Approximate QAP) with deterministic seeding.

    scipy minimizes ``trace(w @ P @ d @ P.T)`` over permutation matrices,
    which equals our objective with ``perm = col_ind``.
    """
    from scipy.optimize import quadratic_assignment

    n = _validate(w, d)
    res = quadratic_assignment(
        np.asarray(w, float), np.asarray(d, float),
        options={"rng": np.random.default_rng(seed)})
    perm = tuple(int(x) for x in res.col_ind)
    return QapSolution(perm, qap_cost(w, d, perm), int(res.nit) + 1, "faq")


def solve(w: np.ndarray, d: np.ndarray, method: str = "auto") -> QapSolution:
    """Dispatch: exact for node-sized instances, 2-opt beyond.

    ``method`` ∈ {"auto", "exhaustive", "2opt", "faq"}.
    """
    n = _validate(w, d)
    if method == "auto":
        method = "exhaustive" if n <= 8 else "2opt"
    if method == "exhaustive":
        return solve_exhaustive(w, d)
    if method == "2opt":
        return solve_2opt(w, d)
    if method == "faq":
        return solve_scipy_faq(w, d)
    raise PlacementError(f"unknown QAP method {method!r}")
