"""Boxes, budget polytopes, partition matroids, and their shrunk/translated images.

The optimizers in this package keep their iterates inside a feasible set that
has been pulled away from the boundary of the objective's box domain by a
margin ``delta``, so that every smoothing sample ``x + delta*u`` stays inside
the domain.  This module owns that geometry: the three supported constraint
families, of which the box domain is the ``box`` kind, the shrink-and-translate
transform, and the one feasibility predicate, :func:`contains`, which tests a
point or every row of a matrix; :func:`independent` applies it to a set.

All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

DEFAULT_FEASIBILITY_TOL = 1e-9

BOX = "box"
BLOCK_BUDGET = "block_budget"
PARTITION_MATROID = "partition_matroid"

_KINDS = (BOX, BLOCK_BUDGET, PARTITION_MATROID)


class DomainError(ValueError):
    """A point or parameter leaves the box domain (e.g. delta too large)."""


class InfeasibleTransformError(ValueError):
    """The shrunk/translated constraint set is empty."""


def _as_readonly_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _normalize_blocks(dim: int, blocks) -> tuple[tuple[int, ...], ...]:
    """``blocks`` as tuples of ints, each in its given order: non-empty, pairwise
    disjoint, and of integer indices in ``range(dim)`` (:func:`_members`)."""
    blocks = tuple(map(tuple, blocks))
    if not blocks:  # a box: no ground set of dim members to build
        return ()
    ground = frozenset(range(dim))
    members = [_members(block, ground) for block in blocks]
    if not all(members):
        raise ValueError("blocks must be non-empty")
    if sum(map(len, blocks)) != len(frozenset().union(*members)):
        raise ValueError("blocks must be pairwise disjoint (an index repeats)")
    return tuple(tuple(map(operator.index, block)) for block in blocks)


def _index_arrays(blocks) -> tuple[np.ndarray, ...]:
    """Read-only ``np.intp`` index arrays of ``blocks``, built once per constraint."""
    out = []
    for block in blocks:
        idx = np.array(block, dtype=np.intp)
        idx.setflags(write=False)
        out.append(idx)
    return tuple(out)


@dataclass(frozen=True)
class ConstraintSpec:
    """One of the three supported constraint families.

    * ``box``: the box ``[0, upper]`` itself.
    * ``block_budget``: ``{0 <= x <= cap, sum_{i in B_k} x_i <= b_k}`` over
      disjoint blocks; coordinates outside every block see only the box.
    * ``partition_matroid``: the polytope of a partition matroid, i.e. a
      block-budget set with unit caps and integer per-block limits.

    ``upper`` stores the per-coordinate cap for all three kinds so membership,
    linear maximization, and projection can treat them uniformly;
    ``block_index`` holds each block as an index array for the same code, and
    ``block_scan`` all blocks at once for :func:`~zogreedy.polytope.lmo`.
    Two specs are equal, and hash alike, when their class, kind, the bytes
    of ``upper``, their blocks and their budgets agree.
    """

    kind: str
    upper: np.ndarray
    blocks: tuple[tuple[int, ...], ...] = ()
    budgets: tuple[float, ...] = ()
    block_index: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        self._store(self.upper, self.blocks, self.budgets)
        if np.any(self.upper <= 0):
            raise ValueError("per-coordinate caps must be strictly positive")
        if len(self.blocks) != len(self.budgets):
            raise ValueError("need one budget per block")
        for idx, budget in zip(self.block_index, self.budgets):
            if not budget > 0:  # NaN fails too
                raise ValueError("budgets must be strictly positive")
            cap_total = float(np.sum(self.upper[idx]))
            if budget > cap_total + 1e-12:
                raise ValueError(
                    f"budget {budget} exceeds block capacity {cap_total}"
                )
        if self.kind == BOX and self.blocks:
            raise ValueError("box constraints carry no blocks")
        if self.kind == PARTITION_MATROID:
            for budget in self.budgets:
                if abs(budget - round(budget)) > 1e-12:
                    raise ValueError("partition matroid limits must be integers")

    def _store(self, upper, blocks, budgets) -> None:
        """Freeze the fields: read-only caps, int blocks, float budgets."""
        upper = _as_readonly_array(upper, "upper")
        blocks = _normalize_blocks(upper.size, blocks)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "budgets", tuple(float(b) for b in budgets))
        object.__setattr__(self, "block_index", _index_arrays(blocks))

    @functools.cached_property
    def block_scan(self) -> tuple[np.ndarray, ...]:
        """Every block laid out for one sort and one running difference.

        ``(members, block_of, slots, table)``, built at first use: ``members``
        lists the blocked coordinates block by block, each block's indices
        ascending, and ``block_of`` the block of each.  Sorted by block and
        then by any key, the coordinate at position ``j`` lands in row
        ``block_of[j]`` of the ``(blocks, longest block + 1)`` scan matrix, at
        the flat position ``slots[j]``.  ``table`` is that matrix with the
        budgets in its first column and zeros elsewhere.
        """
        sizes = np.array([len(block) for block in self.blocks], dtype=np.intp)
        width = int(sizes.max(initial=0)) + 1
        members = np.array([i for block in self.blocks for i in sorted(block)], dtype=np.intp)
        # the narrowest type lets np.lexsort radix-sort the block key
        block_of = np.repeat(np.arange(sizes.size, dtype=np.min_scalar_type(sizes.size)), sizes)
        rank = np.arange(1, members.size + 1) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        table = np.zeros((sizes.size, width))
        table[:, 0] = self.budgets
        scan = (members, block_of, block_of.astype(np.intp) * width + rank, table)
        for arr in scan:
            arr.setflags(write=False)
        return scan

    def _key(self) -> tuple:
        return (type(self), self.kind, self.upper.tobytes(), self.blocks, self.budgets)

    def __eq__(self, other):
        if not isinstance(other, ConstraintSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def dim(self) -> int:
        return self.upper.size

    @classmethod
    def box(cls, upper) -> "ConstraintSpec":
        return cls(kind=BOX, upper=upper)

    @classmethod
    def block_budget(cls, dim: int, blocks, budgets, cap: float = 1.0) -> "ConstraintSpec":
        return cls(
            kind=BLOCK_BUDGET,
            upper=np.full(_count(dim, "dim"), float(cap)),
            blocks=blocks,
            budgets=budgets,
        )

    @classmethod
    def partition_matroid(cls, dim: int, blocks, limits) -> "ConstraintSpec":
        return cls(
            kind=PARTITION_MATROID,
            upper=np.ones(_count(dim, "dim")),
            blocks=blocks,
            budgets=limits,
        )

    @classmethod
    def _shrunk(cls, upper, blocks, budgets) -> "ConstraintSpec":
        """A ``box`` (no blocks) or ``block_budget`` set, left unchecked: the
        shrunk set of :func:`transform_constraint` may have zero or fractional
        caps and budgets, and budgets above a block's capacity.
        """
        spec = object.__new__(cls)
        object.__setattr__(spec, "kind", BLOCK_BUDGET if blocks else BOX)
        spec._store(upper, blocks, budgets)
        return spec


class BoxDomain(ConstraintSpec):
    """An objective's box domain ``prod_i [0, upper_i]``: the ``box`` kind.

    Its class is part of equality, so it never equals the ``box`` constraint
    of the same ``upper``.
    """

    def __init__(self, upper):
        super().__init__(BOX, upper)

    @classmethod
    def unit_cube(cls, dim: int) -> "BoxDomain":
        return cls(np.ones(_count(dim, "dim")))


def transform_constraint(
    domain: BoxDomain, constraint: ConstraintSpec, delta: float
) -> ConstraintSpec:
    """Shrunk and translated image K' of a constraint inside its box domain.

    For domain ``[0, a]``, base set K, and margin ``delta`` this is
    ``{x : 0 <= x <= min(a - 2*delta, cap - delta), block sums <= b_k - delta*|B_k|}``,
    i.e. the intersection of the twice-shrunk box with K translated by
    ``-delta``.  Every member x satisfies ``x + delta*1 in K``.  The result is
    a ``box`` when K has no blocks and a ``block_budget`` set otherwise; its
    caps and budgets may be zero or fractional.

    Raises :class:`ValueError` unless ``delta > 0``, :class:`DomainError`
    when the box ``[0, a - 2*delta]`` is empty or degenerate, and
    :class:`InfeasibleTransformError` when some cap or block budget drops
    below zero (the transformed set would not contain the origin).
    """
    if constraint.dim != domain.dim:
        raise ValueError("constraint and domain dimensions differ")
    if np.any(constraint.upper > domain.upper + 1e-12):
        raise ValueError("constraint caps must not exceed the domain box")
    delta = float(delta)
    if not delta > 0:  # NaN fails too
        raise ValueError("delta must be strictly positive")
    shrunk = domain.upper - 2.0 * delta
    if np.any(shrunk <= 0):
        raise DomainError(
            f"delta={delta} leaves an empty or degenerate box (need delta < min(a)/2)"
        )
    upper = np.minimum(shrunk, constraint.upper - delta)
    if np.any(upper < 0):
        raise InfeasibleTransformError(
            "a per-coordinate cap is below delta; transformed set is empty"
        )
    budgets = []
    for block, budget in zip(constraint.blocks, constraint.budgets):
        adjusted = budget - delta * len(block)
        if adjusted < -1e-12:
            raise InfeasibleTransformError(
                f"budget {budget} < delta*|block| = {delta * len(block)}"
            )
        budgets.append(max(adjusted, 0.0))
    return ConstraintSpec._shrunk(upper, constraint.blocks, budgets)


def contains(
    constraint: ConstraintSpec, x: np.ndarray, tol: float = DEFAULT_FEASIBILITY_TOL
) -> bool:
    """True iff every box and budget inequality holds within additive ``tol`` at
    the point ``x``, shape ``(dim,)``, or at every row of the matrix ``x``, shape
    ``(n, dim)``, so always for ``n = 0``; never when a coordinate is NaN."""
    upper = constraint.upper
    x = np.asarray(x, dtype=float)
    if x.ndim > 2 or x.shape[-1:] != upper.shape:
        raise ValueError(f"point has shape {x.shape}, expected {upper.shape} or (n, {upper.size})")
    if not x.size:
        return True
    # the minimum is NaN when any coordinate is, so a NaN point fails too
    if not (np.minimum.reduce(x, axis=None) >= -tol
            and np.logical_and.reduce(x <= upper + tol, axis=None)):
        return False
    for idx, budget in zip(constraint.block_index, constraint.budgets):
        # take(), unlike x[:, idx], copies each block to a row that sums as np.sum does
        totals = np.add.reduce(x.take(idx, axis=-1), axis=-1)
        if np.maximum.reduce(totals, axis=None) > budget + tol:
            return False
    return True


def _count(n, what: str, least: int = 1) -> int:
    """``n`` as an int, for a value of any integer type but bool that is at
    least ``least``; ``ValueError`` naming ``what`` otherwise.  True is no count."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {n!r}")
    return int(n)


def _members(subset, ground: frozenset) -> frozenset:
    """``subset`` as a frozenset of ints drawn from ``ground``; ``ValueError``
    otherwise, for bools too.  A set of Python ints is taken as it is."""
    try:
        elements = subset if isinstance(subset, (set, frozenset)) else tuple(subset)
        types = set(map(type, elements))
        if bool in types:
            raise TypeError("got a bool")
        members = frozenset(elements if types <= {int} else map(operator.index, elements))
    except TypeError as exc:
        raise ValueError(f"set elements must be integers: {exc}") from None
    if not members <= ground:
        raise ValueError(f"element {min(members - ground)} outside the ground set")
    return members


def independent(matroid: ConstraintSpec, subset) -> bool:
    """True iff the 0/1 indicator of ``subset`` lies in the partition matroid's polytope."""
    if matroid.kind != PARTITION_MATROID:
        raise ValueError("independence is defined for partition matroids only")
    indicator = np.zeros(matroid.dim)
    indicator[list(_members(subset, frozenset(range(matroid.dim))))] = 1.0
    return contains(matroid, indicator)
