"""Quadratic multiple knapsack solving with knapsack-dependent profits.

Items carry weights, knapsacks carry capacities, and profits depend on
which knapsack receives an item: ``p[u, i]`` for item i alone and a
symmetric joint profit ``p[u, i, j]`` when items i and j share knapsack u.
Each unordered pair inside a knapsack counts once in the objective.  Joint
profits may be negative; nothing here assumes otherwise.

The greedy constructive solver repeatedly assigns the (item, knapsack)
combination of highest value density that still fits, then refreshes the
densities of the remaining items against the knapsack contents.  The
densities live in one (N, K) array.  A placement into knapsack u changes
only column u, so each step costs one masked argmax over the N*K entries
plus a refresh of that column: one contiguous add of N joint profits per
item of S_u, the content of knapsack u.  The joint profits are read from
one copy of the tensor with its columns stored as rows and its diagonal
set to -0.0, which adds nothing bit for bit, so no item is sliced around.
An exhaustive enumerator serves as the optimality oracle on
small instances, and four baseline schemes cover the frequency-assignment
instantiation (unit weights, capacity two).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .profits import ProfitTable


@dataclass(frozen=True)
class Instance:
    """A problem instance with knapsack-dependent profits."""

    weights: np.ndarray  # (N,) nonnegative
    capacities: np.ndarray  # (K,) nonnegative
    profits: np.ndarray  # (K, N)
    joint_profits: np.ndarray  # (K, N, N) symmetric, zero diagonal

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "capacities", np.asarray(self.capacities, dtype=float))
        object.__setattr__(self, "profits", np.asarray(self.profits, dtype=float))
        object.__setattr__(
            self, "joint_profits", np.asarray(self.joint_profits, dtype=float)
        )
        n, k = self.n_items, self.n_knapsacks
        for name in ("weights", "capacities", "profits", "joint_profits"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.weights < 0) or np.any(self.capacities < 0):
            raise ValueError("weights and capacities must be nonnegative")
        if self.profits.shape != (k, n):
            raise ValueError("profits must have shape (n_knapsacks, n_items)")
        if self.joint_profits.shape != (k, n, n):
            raise ValueError("joint profits must have shape (n_knapsacks, n_items, n_items)")
        # Exact symmetry, as a profit table builds it, is the cheap common case.
        # Otherwise: joint profits are tiny in watts (~1e-8), so the absolute
        # slack must scale with the data; a fixed atol would accept any such
        # tensor.
        joint_t = self.joint_profits.transpose(0, 2, 1)
        if not np.array_equal(self.joint_profits, joint_t):
            scale = np.max(np.abs(self.joint_profits), initial=0.0)
            if not np.allclose(self.joint_profits, joint_t, atol=1e-9 * scale):
                raise ValueError("joint profits must be symmetric in the item indices")

    @property
    def n_items(self) -> int:
        return self.weights.shape[0]

    @property
    def n_knapsacks(self) -> int:
        return self.capacities.shape[0]

    @classmethod
    def from_profit_table(cls, table: ProfitTable) -> "Instance":
        """Frequency instantiation: unit weights, capacity two per user."""
        return cls(
            weights=np.ones(table.n_frequencies),
            capacities=np.full(table.n_users, 2.0),
            profits=table.single,  # neither is a copy: the solvers only read them
            joint_profits=table.pair,  # zero diagonal as built
        )


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
        total += instance.joint_profits[u, a, b]
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
            total += instance.joint_profits[u, i, j]
    return float(total / w)


def _joint_columns(joint: np.ndarray) -> np.ndarray:
    """Copy of ``joint`` (..., N, N) with column j of each matrix stored as
    the contiguous row ``[..., j, :]``, and with the diagonal set to -0.0."""
    columns = np.swapaxes(joint, -1, -2).copy()
    diag = np.arange(columns.shape[-1])
    columns[..., diag, diag] = -0.0
    return columns


def _profit_sums(profits: np.ndarray, columns: np.ndarray, context) -> np.ndarray:
    """``profits[..., i] + sum_{j in context, j != i} joint[..., i, j]`` for every item i.

    ``columns`` is :func:`_joint_columns` of ``joint``.  Each context item
    costs one add of its row, in the context's iteration order: the same
    additions, in the same order, that ``value_density`` makes for each
    entry, so the sums agree bit for bit.  The ``j == i`` term adds the
    -0.0 of the diagonal, and x + (-0.0) == x for every x, -0.0 included.
    """
    total = np.array(profits, dtype=float)
    for j in context:
        total += columns[..., j, :]
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
    from the full item set to the knapsack contents, so all columns are
    rebuilt once; after that a placement into knapsack u changes only
    column u.  Each step therefore costs one argmax over the N*K entries,
    masked to free items that fit, plus one column refresh of one add of N
    joint profits per item in knapsack u (:func:`_profit_sums`).  The mask
    of free items that fit is updated in place: row i and column u.  A
    row-major argmax picks the first maximum, which is the tie-break above.

    With ``return_trace`` the assigned (item, knapsack, density) steps are
    returned alongside the final assignment.
    """
    n, k = instance.n_items, instance.n_knapsacks
    p, jp, w = instance.profits, instance.joint_profits, instance.weights
    if k and np.any(w == 0):
        raise ValueError("value density undefined for zero-weight items")
    contents = [set() for _ in range(k)]
    remaining = instance.capacities.copy()
    free = np.ones(n, dtype=bool)
    columns = _joint_columns(jp)
    # C order, so that density.ravel() below is a view, not a copy per step.
    density = np.divide(_profit_sums(p, columns, range(n)).T, w[:, None], out=np.empty((n, k)))
    fits = w[:, None] <= remaining

    trace: list[GreedyStep] = []
    while True:
        candidates = np.flatnonzero(fits)
        if candidates.size == 0:
            break
        i, u = divmod(int(candidates[np.argmax(density.ravel()[candidates])]), k)
        contents[u].add(i)
        free[i] = False
        remaining[u] -= w[i]
        fits[i] = False
        fits[:, u] &= w <= remaining[u]
        trace.append(GreedyStep(i, u, density[i, u]))
        for v in range(k) if len(trace) == 1 else (u,):
            np.divide(_profit_sums(p[v], columns[v], contents[v]), w, out=density[:, v], where=free)

    result = Assignment(tuple(frozenset(s) for s in contents))
    if return_trace:
        return result, trace
    return result


EXHAUSTIVE_LIMIT = 10**7


def exhaustive_solve(instance: Instance) -> Assignment:
    """Optimal assignment by full enumeration; small instances only.

    Every item independently goes to one of the K knapsacks or stays out,
    so (K+1)**N allocations are scanned.  Ties resolve to the first
    optimum in lexicographic order of the per-item codes (0 = unassigned),
    making the result deterministic.
    """
    n, k = instance.n_items, instance.n_knapsacks
    if (k + 1) ** n > EXHAUSTIVE_LIMIT:
        raise ValueError("instance too large for exhaustive enumeration")
    best_code = None
    best_value = -np.inf
    for code in itertools.product(range(k + 1), repeat=n):
        loads = np.zeros(k)
        ok = True
        for i, c in enumerate(code):
            if c:
                loads[c - 1] += instance.weights[i]
                if loads[c - 1] > instance.capacities[c - 1]:
                    ok = False
                    break
        if not ok:
            continue
        value = 0.0
        for u in range(k):
            items = [i for i, c in enumerate(code) if c == u + 1]
            if items:
                value += knapsack_profit(instance, u, items)
        if value > best_value:
            best_value = value
            best_code = code
    lists: list[list[int]] = [[] for _ in range(k)]
    for i, c in enumerate(best_code):
        if c:
            lists[c - 1].append(i)
    return Assignment.from_lists(lists)


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
            # Held item j's column also adds its diagonal to density[j], but j
            # is no candidate: every free entry equals value_density bit for bit.
            density = np.array(instance.profits[u])
            for j in lists[u]:
                density += instance.joint_profits[u, :, j]
            density /= instance.weights
            best = int(candidates[np.argmax(density[candidates])])
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
