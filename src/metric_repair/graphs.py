"""Core data model: weighted graphs, distance matrices and repair deltas.

All weights are exact nonnegative rationals, stored once as integers over one
common scale (``integer_form()``); a ``Fraction`` is built only when read.
Broken cycles are detected through *strict* inequalities, so floating point
values are rejected outright: a float cannot participate in any weight or delta.

A distance matrix is the complete-graph special case, not a second model:
``DistanceMatrix`` is a ``WeightedGraph`` subclass that validates its rows
once, so every graph function takes a matrix as it is.

Every object in this module is immutable after construction and safe to share
across threads; all operations on them are pure functions.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

Edge = tuple[int, int]
WeightLike = Union[int, str, Fraction]


class MetricRepairError(Exception):
    """Base class for errors raised by this package."""


class InputFormatError(MetricRepairError):
    """Malformed external input (edge list, matrix or delta file)."""


class PreconditionError(MetricRepairError):
    """A solver was invoked on an instance it does not accept."""


class EnumerationBudgetError(PreconditionError):
    """An exponential enumeration guard refused to run at this size."""


class SupportRejectedError(MetricRepairError):
    """An approximation produced a support the Verifier would not accept."""

    def __init__(self, outcome):
        super().__init__(f"support rejected: {outcome.reason.value}")
        self.outcome = outcome


MAX_ECHO = 40


def clipped(value: object) -> str:
    """``str(value)`` for an error message: past ``MAX_ECHO`` characters, the
    first ``MAX_ECHO`` of them and the full length, so input echoes stay short."""
    text = str(value)
    return text if len(text) <= MAX_ECHO else f"{text[:MAX_ECHO]}... ({len(text)} chars)"


def as_weight(value: WeightLike) -> Fraction:
    """Coerce ``value`` to an exact nonnegative rational weight.

    Accepts ints, Fractions and decimal/fraction strings.  Floats are rejected
    because solver comparisons must stay exact.
    """
    if isinstance(value, float):
        raise TypeError("floating point weights are not allowed; pass int, str or Fraction")
    w = Fraction(value)
    if w < 0:
        raise ValueError(f"weights must be nonnegative, got {w}")
    return w


def _checked_weight(value: WeightLike) -> int | Fraction:
    """``as_weight``, passing a nonnegative plain int or Fraction through unconverted."""
    if type(value) in (int, Fraction) and value.numerator >= 0:
        return value
    return as_weight(value)


def _scale_weights(weights: Mapping[Edge, int | Fraction], scale: int = 1,
                   intw: Mapping[Edge, int] | None = None) -> tuple[int, dict[Edge, int]]:
    """The one scaling routine: ``weights`` written over the scaled store
    ``(scale, intw)``, empty by default.  The result's scale is the lcm of the
    reduced denominators of all its weights (equal weights, equal scale), and
    ``w`` becomes ``numerator * (scale // den)``.  The stored ints are multiplied
    up only when a new denominator enlarges the scale, and divided down when
    the overwritten weights held the only factor of it."""
    intw = intw or {}
    if scale == 1 and not intw and {*map(type, weights.values())} <= {int}:
        return 1, dict(weights)  # all plain ints: already on scale 1
    new_scale = lcm(scale, *(w.denominator for w in weights.values()))
    factor = new_scale // scale
    out = dict(intw) if factor == 1 else {e: x * factor for e, x in intw.items()}
    for e, w in weights.items():
        out[e] = w.numerator * (new_scale // w.denominator)
    common = gcd(new_scale, *out.values()) if intw and new_scale > 1 else 1
    if common > 1:
        new_scale //= common
        out = {e: x // common for e, x in out.items()}
    return new_scale, out


def as_delta_value(value: WeightLike) -> Fraction:
    """Coerce ``value`` to an exact (signed) rational delta."""
    if isinstance(value, float):
        raise TypeError("floating point deltas are not allowed; pass int, str or Fraction")
    return Fraction(value)


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair; self-loops are invalid."""
    if u == v:
        raise ValueError(f"self-loop ({u},{v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


class OmegaClass(Enum):
    """Sign class of permitted weight modifications."""

    DECREASE_ONLY = "decrease"
    INCREASE_ONLY = "increase"
    GENERAL = "general"

    def allows(self, delta: Fraction) -> bool:
        if self is OmegaClass.DECREASE_ONLY:
            return delta.numerator <= 0
        if self is OmegaClass.INCREASE_ONLY:
            return delta.numerator >= 0
        return True

    @classmethod
    def parse(cls, token: str) -> "OmegaClass":
        for member in cls:
            if member.value == token:
                return member
        raise ValueError(f"unknown omega class {clipped(token)!r}; expected one of "
                         f"{[m.value for m in cls]}")


class WeightedGraph:
    """Undirected graph on vertices ``0..n-1`` with exact edge weights.

    Edges are stored under normalized ``(u, v)`` keys with ``u < v``; there are
    no self-loops and no duplicate edges.  Weight zero is allowed.  The weights
    live only in their scaled integer form: ``weight(e) == intw[e] / scale``.
    """

    __slots__ = ("n", "_scale", "_intw", "_adj", "_edges", "_apsp_cache")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, WeightLike]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        w: dict[Edge, int | Fraction] = {}
        for u, v, weight in edges:
            key = edge_key(u, v)
            if not (0 <= key[0] and key[1] < n):
                raise ValueError(f"edge {key} out of range for n={n}")
            if key in w:
                raise ValueError(f"duplicate edge {key}")
            w[key] = _checked_weight(weight)
        self._build(n, w)

    def _build(self, n: int, weights: dict[Edge, int | Fraction]) -> None:
        """Fill the graph from a checked map ``{(u, v): w}``: ``0 <= u < v < n``, ``w >= 0``."""
        self.n = n
        if len(weights) == n * (n - 1) // 2:  # complete: each vertex sees all others
            self._adj = tuple([(*range(v), *range(v + 1, n)) for v in range(n)])
        else:
            adj: list[list[int]] = [[] for _ in range(n)]
            for u, v in weights:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = tuple([tuple(sorted(nbrs)) for nbrs in adj])
        self._edges = tuple(sorted(weights))
        self._scale, self._intw = _scale_weights(weights)
        self._apsp_cache: dict = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as normalized pairs, in lexicographic order."""
        return self._edges

    def weight(self, u: int, v: int) -> Fraction:
        return Fraction(self._intw[edge_key(u, v)], self._scale)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return edge_key(u, v) in self._intw

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def common_neighbors(self, u: int, v: int) -> tuple[int, ...]:
        nu, nv = set(self._adj[u]), self._adj[v]
        return tuple(x for x in nv if x in nu)

    def max_weight(self) -> Fraction:
        """Largest edge weight (0 on an edgeless graph)."""
        return Fraction(max(self._intw.values(), default=0), self._scale)

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def weight_map(self) -> dict[tuple[int, int], Fraction]:
        """A fresh edge-to-weight mapping."""
        return {e: Fraction(x, self._scale) for e, x in self._intw.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.n, self._scale, self._intw) == (other.n, other._scale, other._intw)

    def __hash__(self):  # pragma: no cover - mappings are unhashable by design
        raise TypeError("WeightedGraph is not hashable")

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"

    # -- derived graphs ----------------------------------------------------

    def replace_weights(self, new_weights: Mapping[Edge, WeightLike]) -> "WeightedGraph":
        """Same topology (shared, not rebuilt) and class with some edge weights
        overridden; only the new weights are scaled onto a copy of the stored
        integers."""
        updates = {}
        for key, value in new_weights.items():
            key = edge_key(*key)
            if key not in self._intw:
                raise ValueError(f"{key} is not an edge")
            updates[key] = _checked_weight(value)
        g = type(self).__new__(type(self))
        g.n, g._adj, g._edges, g._apsp_cache = self.n, self._adj, self._edges, {}
        g._scale, g._intw = _scale_weights(updates, self._scale, self._intw)
        return g

    def without_edges(self, removed: Iterable[tuple[int, int]]) -> "WeightedGraph":
        gone = {edge_key(*e) for e in removed}
        return _trusted_graph(
            self.n, {e: wt for e, wt in self.weight_map().items() if e not in gone})

    def integer_form(self) -> tuple[int, dict[tuple[int, int], int]]:
        """The stored weights ``(scale, {edge: int})``; read-only, never copied.

        ``weight(e) == intw[e] / scale`` exactly, and ``scale`` is the least
        common denominator of the weights.
        """
        return self._scale, self._intw


def _trusted_graph(n: int, weights: dict[Edge, int | Fraction]) -> WeightedGraph:
    """The graph of a map checked as ``WeightedGraph._build`` requires; ``intw`` keeps its order."""
    g = WeightedGraph.__new__(WeightedGraph)
    g._build(n, weights)
    return g


def _top_edge(intw: Mapping[Edge, int], edges: Sequence[Edge]) -> Edge | None:
    """Top edge of the cycle ``edges`` under scaled integer weights, or None.

    The one broken-cycle predicate: a cycle is broken when ``2 * w(top) >
    w(cycle)``.  Only the heaviest edge can outweigh all the others together.
    """
    weights = [intw[e] for e in edges]
    heaviest = max(weights)
    if 2 * heaviest > sum(weights):
        return edges[weights.index(heaviest)]
    return None


class BrokenCycleWitness(NamedTuple):
    """A cycle together with the edge whose weight exceeds the rest of it.

    ``cycle`` lists distinct vertices; consecutive pairs plus the wrap-around
    pair are the cycle edges, and ``top_edge`` is the violating one.  A named
    tuple, so it compares equal to the plain tuple ``(cycle, top_edge)``.
    """

    cycle: tuple[int, ...]
    top_edge: tuple[int, int]

    def edges(self) -> tuple[tuple[int, int], ...]:
        cyc = self.cycle
        return tuple([(a, b) if a < b else (b, a) for a, b in zip(cyc, cyc[1:] + cyc[:1])])

    def bottom_edges(self) -> tuple[tuple[int, int], ...]:
        top = edge_key(*self.top_edge)
        return tuple(e for e in self.edges() if e != top)

    def check(self, g: WeightedGraph) -> None:
        """Raise if this witness does not certify a broken cycle of ``g``."""
        if len(self.cycle) < 3 or len(set(self.cycle)) != len(self.cycle):
            raise ValueError("witness cycle must list at least 3 distinct vertices")
        top = edge_key(*self.top_edge)
        edges = self.edges()
        if top not in edges:
            raise ValueError("top edge is not on the witness cycle")
        intw = g.integer_form()[1]
        for e in edges:
            if e not in intw:
                raise ValueError(f"witness cycle uses non-edge {e}")
        if _top_edge(intw, edges) != top:
            raise ValueError("cycle inequality is not strictly violated")


class RepairDelta:
    """Sparse symmetric weight modification with a declared sign class.

    Only nonzero entries are stored, keyed by normalized edge; the entry count
    is the solution size (the number of modified weights).
    """

    __slots__ = ("_entries", "omega")

    def __init__(self, entries: Mapping[tuple[int, int], WeightLike], omega: OmegaClass):
        normalized: dict[tuple[int, int], Fraction] = {}
        for key, value in entries.items():
            key = edge_key(*key)
            if key in normalized:
                raise ValueError(f"duplicate delta entry {key}")
            if type(value) is not Fraction:
                value = as_delta_value(value)
            if not value.numerator:
                continue
            if not omega.allows(value):
                raise ValueError(
                    f"delta {clipped(value)} on {clipped(key)} violates sign class {omega.value}")
            normalized[key] = value
        self._entries = dict(sorted(normalized.items()))
        self.omega = omega

    @property
    def entries(self) -> Mapping[tuple[int, int], Fraction]:
        return dict(self._entries)

    @property
    def support(self) -> frozenset:
        return frozenset(self._entries)

    def get(self, u: int, v: int) -> Fraction:
        return self._entries.get(edge_key(u, v), Fraction(0))

    def norm0(self) -> int:
        return len(self._entries)

    def norm1(self) -> Fraction:
        return sum((abs(v) for v in self._entries.values()), Fraction(0))

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(self._entries.items())

    def negated(self) -> "RepairDelta":
        flipped = {
            OmegaClass.DECREASE_ONLY: OmegaClass.INCREASE_ONLY,
            OmegaClass.INCREASE_ONLY: OmegaClass.DECREASE_ONLY,
            OmegaClass.GENERAL: OmegaClass.GENERAL,
        }[self.omega]
        return RepairDelta({e: -v for e, v in self._entries.items()}, flipped)

    def merged(self, other: "RepairDelta") -> "RepairDelta":
        """Entrywise sum, in the general sign class."""
        combined = dict(self._entries)
        for e, v in other._entries.items():
            combined[e] = combined.get(e, Fraction(0)) + v
        return RepairDelta(combined, OmegaClass.GENERAL)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RepairDelta):
            return NotImplemented
        return self._entries == other._entries and self.omega == other.omega

    def __repr__(self) -> str:
        return f"RepairDelta(omega={self.omega.value}, entries={len(self._entries)})"


def apply_delta(g: WeightedGraph, delta: RepairDelta) -> WeightedGraph:
    """Apply a repair to a graph: ``w'(e) = w(e) + delta(e)``.

    Raises if the delta touches a non-edge or would make a weight negative.
    The sign class of each entry was already checked when the delta was built.
    Each new weight is computed on the stored integers: ``x / scale + p / q``
    is ``(x * q + p * scale) / (scale * q)``, one ``Fraction`` per entry that
    ``replace_weights`` scales onto the store.
    """
    scale, intw = g.integer_form()
    updated: dict[tuple[int, int], Fraction] = {}
    for (u, v), value in delta.items():
        x = intw.get((u, v))
        if x is None:
            raise ValueError(f"delta touches non-edge ({u},{v})")
        top = x * value.denominator + value.numerator * scale
        if top < 0:
            raise ValueError(f"delta drives edge ({u},{v}) below zero")
        updated[(u, v)] = Fraction(top, scale * value.denominator)
    return g.replace_weights(updated)


class DistanceMatrix(WeightedGraph):
    """A checked complete graph: a symmetric nonnegative matrix, zero diagonal.

    A matrix is the complete-graph case of :class:`WeightedGraph`, not a second
    model: every graph function takes it as it is, and it adds only the
    row checks and the ``entry``/``rows`` reads.
    """

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable[WeightLike]]):
        mat = [tuple(_checked_weight(x) for x in row) for row in rows]
        n = len(mat)
        for i, row in enumerate(mat):
            if len(row) != n:
                raise ValueError("matrix must be square")
            if row[i] != 0:
                raise ValueError(f"diagonal entry ({i},{i}) must be zero")
            for j in range(i):
                if row[j] != mat[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        self._build(n, {(i, j): mat[i][j] for i in range(n) for j in range(i + 1, n)})

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(0) if i == j else self.weight(i, j)

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.n
        return tuple(tuple(self.entry(i, j) for j in range(n)) for i in range(n))

    def to_graph(self) -> WeightedGraph:
        """This matrix, which is already its complete weighted graph."""
        return self

    @classmethod
    def from_graph(cls, g: WeightedGraph) -> "DistanceMatrix":
        """``g`` as a matrix: ``g`` itself when it is one, else a matrix that
        shares its stored integers, topology and APSP cache (no copy)."""
        if not g.is_complete():
            raise PreconditionError("matrix view requires a complete graph")
        if isinstance(g, DistanceMatrix):
            return g
        view = cls.__new__(cls)
        for name in WeightedGraph.__slots__:
            setattr(view, name, getattr(g, name))
        return view

    def apply(self, delta: RepairDelta) -> "DistanceMatrix":
        return apply_delta(self, delta)

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"


class InstanceStats(NamedTuple):
    """Headline facts about an instance, for reports and benches."""

    is_metric: bool
    broken_triangle_count: int
    longest_broken_cycle: int | None = None
    cycle_length_computed: bool = False

    @property
    def ratio_parameter(self) -> int | None:
        """One less than the longest broken cycle length, when known."""
        if self.longest_broken_cycle is None:
            return None
        return self.longest_broken_cycle - 1
