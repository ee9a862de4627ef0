"""Quadratic multiple knapsack solving with knapsack-dependent profits.

Items carry weights, knapsacks carry capacities, and profits depend on
which knapsack receives an item: ``p[u, i]`` for item i alone and a
symmetric joint profit ``p[u, i, j]`` when items i and j share knapsack u.
Each unordered pair inside a knapsack counts once in the objective.  Joint
profits may be negative; nothing here assumes otherwise.  ``Instance``
keeps them packed, as the profit table builds them: an (N, N) index map
sends (i, j) and (j, i) to one profit and the diagonal to a -0.0 slot, so
row j, a gather of N profits, is column j bit for bit and adds nothing at
i == j.  Every solver reads through that map.

The greedy constructive solver repeatedly assigns the (item, knapsack)
combination of highest value density that still fits, then refreshes the
densities of the remaining items against the knapsack contents.  The
densities live in one (N, K) array.  A placement into knapsack u changes
only column u, so each step costs one masked argmax over the N*K entries
plus a refresh of that column: one row of N joint profits gathered and
added per item of S_u, the content of knapsack u.  An exhaustive
enumerator serves as the optimality oracle on small instances, and four
baseline schemes cover the frequency-assignment instantiation (unit
weights, capacity two).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .profits import ProfitTable, _pair_index


@dataclass(frozen=True, init=False)
class Instance:
    """A problem instance with knapsack-dependent profits, the joint ones packed
    as in :class:`freqassign.profits.ProfitTable`.  Takes dense (K, N, N) joint
    profits, exactly symmetric, and packs them, never reading their diagonal."""

    weights: np.ndarray  # (N,) nonnegative
    capacities: np.ndarray  # (K,) nonnegative
    profits: np.ndarray  # (K, N)
    joint: np.ndarray  # (K, N(N-1)/2 + 1): the pairs in np.triu_indices order, then -0.0
    index: np.ndarray  # (N, N) symmetric, the diagonal at the -0.0 slot

    def __init__(self, weights, capacities, profits, joint_profits):
        dense = np.asarray(joint_profits, dtype=float)
        k, n = len(capacities), len(weights)
        if not np.all(np.isfinite(dense)):  # the diagonal too, though it is never read
            raise ValueError("joint_profits must be finite")
        if dense.shape != (k, n, n):
            raise ValueError("joint profits must have shape (n_knapsacks, n_items, n_items)")
        # Bit for bit, signed zeros included: packing keeps one of (i, j) and (j, i).
        bits = dense.view(np.int64)
        if not np.array_equal(bits, bits.transpose(0, 2, 1)):
            raise ValueError("joint profits must be exactly symmetric in the item indices")
        i, j, index = _pair_index(n)
        self._setup(weights, capacities, profits, np.c_[dense[:, i, j], np.full(k, -0.0)], index)

    def _setup(self, weights, capacities, profits, joint, index) -> "Instance":
        for name, value in zip(self.__annotations__, (weights, capacities, profits, joint)):
            value = np.asarray(value, dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name.replace('joint', 'joint_profits')} must be finite")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "index", index)
        if np.any(self.weights < 0) or np.any(self.capacities < 0):
            raise ValueError("weights and capacities must be nonnegative")
        if self.profits.shape != (self.n_knapsacks, self.n_items):
            raise ValueError("profits must have shape (n_knapsacks, n_items)")
        # The solvers read row j as column j and add its -0.0 at i == j.
        if not (np.array_equal(index, index.T) and np.all(index.diagonal() == joint.shape[1] - 1)):
            raise ValueError("the index map must be symmetric, its diagonal at the last slot")
        if not np.all(self.joint[:, -1].view(np.int64) == np.float64(-0.0).view(np.int64)):
            raise ValueError("the last joint profit slot must hold -0.0")
        return self

    @cached_property
    def joint_profits(self) -> np.ndarray:
        """Dense (K, N, N) ``joint[:, index]``, gathered when first read."""
        return self.joint[:, self.index]

    @property
    def n_items(self) -> int:
        return self.weights.shape[0]

    @property
    def n_knapsacks(self) -> int:
        return self.capacities.shape[0]

    @classmethod
    def from_profit_table(cls, table: ProfitTable) -> "Instance":
        """Frequency instantiation: unit weights, capacity two per user.  The
        table's arrays are read in place: symmetric by construction, so no
        copy and no symmetry scan."""
        weights, capacities = np.ones(table.n_frequencies), np.full(table.n_users, 2.0)
        return cls.__new__(cls)._setup(weights, capacities, table.single, table.joint, table.index)


@dataclass(frozen=True)
class Assignment:
    """Disjoint allocation of items to knapsacks."""

    knapsacks: tuple[frozenset[int], ...]

    @classmethod
    def from_lists(cls, lists) -> "Assignment":
        return cls(tuple(frozenset(int(i) for i in items) for items in lists))

    def as_lists(self) -> list[list[int]]:
        return [sorted(items) for items in self.knapsacks]

    @property
    def n_knapsacks(self) -> int:
        return len(self.knapsacks)


def _check_indices(instance: Instance, assignment: Assignment) -> None:
    if assignment.n_knapsacks != instance.n_knapsacks:
        raise ValueError("assignment does not match the number of knapsacks")
    for items in assignment.knapsacks:
        for i in items:
            if not 0 <= i < instance.n_items:
                raise ValueError(f"item index {i} out of range")


def feasible(instance: Instance, assignment: Assignment) -> bool:
    """True iff knapsacks are pairwise disjoint and capacities hold."""
    _check_indices(instance, assignment)
    seen: set[int] = set()
    for u, items in enumerate(assignment.knapsacks):
        if items & seen:
            return False
        seen |= items
        if sum(instance.weights[i] for i in items) > instance.capacities[u]:
            return False
    return True


def knapsack_profit(instance: Instance, u: int, items) -> float:
    """Profit contributed by knapsack u holding the given items."""
    items = sorted(items)
    total = sum(instance.profits[u, i] for i in items)
    for a, b in itertools.combinations(items, 2):
        total += instance.joint[u, instance.index[a, b]]
    return float(total)


def objective(instance: Instance, assignment: Assignment) -> float:
    """Overall profit of a feasible assignment; each pair counted once."""
    return sum(per_knapsack_profits(instance, assignment))


def value_density(instance: Instance, u: int, i: int, context) -> float:
    """Profit per unit weight of adding item i to knapsack u.

    ``context`` is the set of items considered already present:

        vd_u(i, S) = (p[u, i] + sum_{j in S, j != i} jp[u, i, j]) / w_i
    """
    w = instance.weights[i]
    if w == 0:
        raise ValueError("value density undefined for zero-weight items")
    total = instance.profits[u, i]
    for j in context:
        if j != i:
            total += instance.joint[u, instance.index[i, j]]
    return float(total / w)


def _profit_sums(profits: np.ndarray, joint: np.ndarray, index: np.ndarray, context) -> np.ndarray:
    """``profits[..., i] + sum_{j in context, j != i} jp[..., i, j]`` for every item i.

    Each context item j costs one gather of row j, ``joint[..., index[j]]``,
    which is column j, into one buffer and one add, in the context's order:
    the additions ``value_density`` makes, so the sums agree bit for bit.  The
    j == i term adds the -0.0 slot, and x + (-0.0) == x for every x, -0.0 too.
    """
    total = np.array(profits, dtype=float)
    row = np.empty_like(total)
    for j in context:
        total += np.take(joint, index[j], axis=-1, out=row, mode="clip")
    return total


GreedyStep = namedtuple("GreedyStep", ["item", "knapsack", "density"])


def greedy_construct(instance: Instance, return_trace: bool = False):
    """Constructive value-density procedure.

    Starting from the empty assignment, the densities of all items are
    computed against the full item set; then, repeatedly, the
    highest-density (item, knapsack) combination that still fits is
    assigned and the densities of the remaining items are refreshed against
    each knapsack's current contents.  Ties break towards the lower item
    index, then the lower knapsack index.  Stops when no unassigned item
    fits anywhere.

    The densities are one (N, K) array, equal bit for bit to
    ``value_density``.  The first placement switches every column's context
    from the full item set to the knapsack contents and rebuilds all
    columns; after that a placement into knapsack u refreshes only column u
    (:func:`_profit_sums`).  The mask of free items that fit is updated in
    place (row i, column u), so a placed item's densities are never read
    again.  A row-major argmax picks the first maximum: the tie-break above.

    With ``return_trace`` the assigned (item, knapsack, density) steps are
    returned alongside the final assignment.
    """
    n, k = instance.n_items, instance.n_knapsacks
    p, joint, index, w = instance.profits, instance.joint, instance.index, instance.weights
    if k and np.any(w == 0):
        raise ValueError("value density undefined for zero-weight items")
    contents = [set() for _ in range(k)]
    remaining = instance.capacities.copy()
    # C order, so that density.ravel() below is a view, not a copy per step.
    density = np.divide(_profit_sums(p, joint, index, range(n)).T, w[:, None], out=np.empty((n, k)))
    fits = w[:, None] <= remaining

    trace: list[GreedyStep] = []
    while True:
        candidates = np.flatnonzero(fits)
        if candidates.size == 0:
            break
        i, u = divmod(int(candidates[np.argmax(density.ravel()[candidates])]), k)
        contents[u].add(i)
        remaining[u] -= w[i]
        fits[i] = False
        fits[:, u] &= w <= remaining[u]
        trace.append(GreedyStep(i, u, density[i, u]))
        for v in range(k) if len(trace) == 1 else (u,):
            np.divide(_profit_sums(p[v], joint[v], index, contents[v]), w, out=density[:, v])

    result = Assignment(tuple(frozenset(s) for s in contents))
    if return_trace:
        return result, trace
    return result


EXHAUSTIVE_LIMIT = 10**7


def exhaustive_solve(instance: Instance) -> Assignment:
    """Optimal assignment by full enumeration; small instances only.

    Every item independently goes to one of the K knapsacks or stays out,
    so (K+1)**N allocations are scanned, each kept if :func:`feasible`
    accepts it and scored as the sum of :func:`knapsack_profit` over its
    knapsacks.  Ties resolve to the first optimum in lexicographic order of
    the per-item codes (0 = unassigned), making the result deterministic.
    """
    n, k = instance.n_items, instance.n_knapsacks
    if (k + 1) ** n > EXHAUSTIVE_LIMIT:
        raise ValueError("instance too large for exhaustive enumeration")
    best, best_value = None, -np.inf
    for code in itertools.product(range(k + 1), repeat=n):
        lists = [[i for i, c in enumerate(code) if c == u] for u in range(1, k + 1)]
        assignment = Assignment.from_lists(lists)
        if not feasible(instance, assignment):
            continue
        value = sum(knapsack_profit(instance, u, items) for u, items in enumerate(assignment.knapsacks))
        if value > best_value:
            best, best_value = assignment, value
    return best


def _require_frequency_shape(instance: Instance) -> None:
    if not (np.all(instance.weights == 1.0) and np.all(instance.capacities == 2.0)):
        raise ValueError("scheme expects unit weights and capacity 2 per knapsack")


def assign_random(instance: Instance, seed) -> Assignment:
    """Uniform random frequency assignment, two items per knapsack.

    Samples min(2K, N) distinct items and deals them out one per knapsack
    per round, so with fewer items than slots every knapsack still gets at
    most one item ahead of any second round.  ``seed`` is anything
    accepted by numpy's default_rng.
    """
    _require_frequency_shape(instance)
    rng = np.random.default_rng(seed)
    n, k = instance.n_items, instance.n_knapsacks
    picks = rng.choice(n, size=min(2 * k, n), replace=False)
    lists: list[list[int]] = [[] for _ in range(k)]
    for pos, item in enumerate(picks):
        lists[pos % k].append(int(item))
    return Assignment.from_lists(lists)


def assign_rr_simple(instance: Instance) -> Assignment:
    """Round robin over users: item u first, then item u + K.

    Items are expected in ascending frequency order.  Second-round items
    beyond the item count are dropped.
    """
    _require_frequency_shape(instance)
    n, k = instance.n_items, instance.n_knapsacks
    if n < k:
        raise ValueError("round robin needs at least one item per knapsack")
    lists = [[u] for u in range(k)]
    for u in range(k):
        if u + k < n:
            lists[u].append(u + k)
    return Assignment.from_lists(lists)


def assign_rr_block(instance: Instance) -> Assignment:
    """Blockwise round robin: user u takes the adjacent items 2u, 2u + 1."""
    _require_frequency_shape(instance)
    n, k = instance.n_items, instance.n_knapsacks
    lists = [[i for i in (2 * u, 2 * u + 1) if i < n] for u in range(k)]
    return Assignment.from_lists(lists)


def assign_rr_profits(instance: Instance) -> Assignment:
    """Profit-aware round robin.

    Users take turns over two rounds; on each turn a user grabs the
    unassigned item with the highest marginal value density given what the
    user already holds.  Ties break towards the lower item index.
    """
    _require_frequency_shape(instance)
    n, k = instance.n_items, instance.n_knapsacks
    lists: list[list[int]] = [[] for _ in range(k)]
    free = np.ones(n, dtype=bool)
    for _ in range(2):
        for u in range(k):
            candidates = np.flatnonzero(free)
            if candidates.size == 0:
                break
            # Unit weights: the profit sums are the value densities.
            sums = _profit_sums(instance.profits[u], instance.joint[u], instance.index, lists[u])
            best = int(candidates[np.argmax(sums[candidates])])
            lists[u].append(best)
            free[best] = False
    return Assignment.from_lists(lists)


def per_knapsack_profits(instance: Instance, assignment: Assignment) -> list[float]:
    """Profit contribution of each knapsack under a feasible assignment."""
    if not feasible(instance, assignment):
        raise ValueError("assignment is infeasible")
    return [
        knapsack_profit(instance, u, items)
        for u, items in enumerate(assignment.knapsacks)
    ]
