"""Dual graphs with twisted k-differential order data and level structures.

A dual graph carries per-vertex data (genus, marked points, whether a
marked pole sits there, and whether the differential on that component
is known to be a k-th power) and per-edge node orders summing to -2k.
Comparing orders across shared edges yields the component relations
"same level" / "strictly above"; a level graph is a full order refining
them.

enumerate_level_graphs peels the same-level groups into levels, top
first: each level is a nonempty subset of the groups whose strictly
higher groups all sit on the levels above already.  Every such sequence
of subsets is one weak order extending the strict relation, and every
weak order arises once, so the cost follows the number of level graphs
returned.  A dynamic program over the same states (the set of groups
placed so far, an order ideal) counts them first; more than
_MAX_LEVEL_GRAPHS raises BudgetExceeded before any level graph is built.

grc_admissible applies the global residue conditions with three-valued
residue knowledge (zero / nonzero / unknown) per edge side.  It walks
the levels top down with one union-find over the part above the current
level, so each level visits only the upper components that have an edge
down to it.  The two criss-cross cases that need root-of-unity
bookkeeping on the internal structure of an upper-level component are
not modelled; when only they could decide, the verdict is Indeterminate.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Optional, Sequence

from .errors import (
    BadInput,
    BudgetExceeded,
    DirectedLoop,
    MissingResidueState,
    MixedEdgeOrders,
)

ZERO, NONZERO, UNKNOWN = "zero", "nonzero", "unknown"
_STATES = (ZERO, NONZERO, UNKNOWN)
_POWER = ("yes", "no", "unknown")


@dataclass(frozen=True)
class Vertex:
    genus: int
    marked: frozenset[int]
    has_marked_pole: bool
    is_kth_power: str  # "yes" | "no" | "unknown"

    def __post_init__(self):
        if self.genus < 0:
            raise BadInput("vertex genus must be >= 0")
        if self.is_kth_power not in _POWER:
            raise BadInput("is_kth_power must be one of %s" % (_POWER,))


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    ord_a: int
    ord_b: int


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass, float a silent truncation
        raise BadInput("%s must be an integer, got %r" % (what, value))
    return value


class DualGraph:
    """Connected dual graph of a nodal curve with node-order data."""

    def __init__(self, k: int, vertices: Sequence[Vertex], edges: Sequence[Edge]):
        if k < 1:
            raise BadInput("need k >= 1")
        vertices = tuple(vertices)
        edges = tuple(edges)
        if not vertices:
            raise BadInput("graph needs at least one vertex")
        for e in edges:
            if not (0 <= e.a < len(vertices) and 0 <= e.b < len(vertices)):
                raise BadInput("edge endpoint out of range: %s" % (e,))
            if e.ord_a + e.ord_b != -2 * k:
                raise BadInput(
                    "node orders must sum to -2k = %d, got %d + %d"
                    % (-2 * k, e.ord_a, e.ord_b)
                )
        self.k = k
        self.vertices = vertices
        self.edges = edges
        find, _ = _union_find(len(vertices), [(e.a, e.b) for e in edges])
        if len({find(v) for v in range(len(vertices))}) != 1:
            raise BadInput("dual graph must be connected")

    @classmethod
    def from_jsonable(cls, data: Mapping) -> tuple["DualGraph", "ResidueState"]:
        vertices = [
            Vertex(
                genus=_json_int(v["genus"], "genus"),
                marked=frozenset(_json_int(p, "marked label") for p in v.get("marked", ())),
                has_marked_pole=bool(v.get("pole", False)),
                is_kth_power=str(v.get("kth_power", "unknown")).lower(),
            )
            for v in data["vertices"]
        ]
        edges = [
            Edge(*(_json_int(e[f], f) for f in ("a", "b", "ord_a", "ord_b")))
            for e in data["edges"]
        ]
        graph = cls(_json_int(data["k"], "k"), vertices, edges)
        states = {}
        for r in data.get("residues", ()):
            side = str(r["side"]).lower()
            state = str(r["state"]).lower()
            if side not in ("a", "b"):
                raise BadInput("residue side must be 'a' or 'b'")
            if state not in _STATES:
                raise BadInput("residue state must be one of %s" % (_STATES,))
            edge = _json_int(r["edge"], "residue edge")
            if not 0 <= edge < len(edges):
                raise BadInput(
                    "residue entry names edge %r; the graph has %d edge(s)"
                    % (edge, len(edges))
                )
            states[(edge, side)] = state
        return graph, ResidueState(states)

    @classmethod
    def from_json(cls, text: str) -> tuple["DualGraph", "ResidueState"]:
        return cls.from_jsonable(json.loads(text))


@dataclass(frozen=True)
class ResidueState:
    """Three-valued residue knowledge keyed by (edge index, side)."""

    states: Mapping[tuple[int, str], str]

    def get(self, edge: int, side: str) -> Optional[str]:
        return self.states.get((edge, side))


@dataclass(frozen=True)
class TwistedOrderRelation:
    """Derived component relations of a twisted k-differential."""

    graph: DualGraph
    same: tuple[tuple[int, int], ...]  # unordered pairs, normalized (u < v)
    above: tuple[tuple[int, int], ...]  # (u, v) with u strictly above v


def validate_twisted(dg: DualGraph) -> TwistedOrderRelation:
    """Derive the same-level / strictly-above relations between components.

    A shared node with orders (-k, -k) puts the two components on the
    same level; a strict inequality orients them.  All nodes shared by
    one pair must agree (MixedEdgeOrders otherwise), and the strict
    relations must be acyclic on same-level groups (DirectedLoop).
    """
    verdicts: dict[tuple[int, int], str] = {}
    for e in dg.edges:
        if e.a == e.b:
            if e.ord_a != e.ord_b:
                # a strict comparison of a component with itself
                raise DirectedLoop(
                    "self-node on component %d with unequal orders" % e.a
                )
            continue  # a horizontal self-node constrains nothing
        if e.ord_a == e.ord_b:
            kind = "same"  # orders sum to -2k, equality forces (-k, -k)
        elif e.ord_a > e.ord_b:
            kind = "above" if e.a < e.b else "below"
        else:
            kind = "below" if e.a < e.b else "above"
        key = (min(e.a, e.b), max(e.a, e.b))
        if verdicts.setdefault(key, kind) != kind:
            raise MixedEdgeOrders(
                "components %d and %d share nodes with conflicting orders" % key
            )
    same = tuple(sorted(key for key, v in verdicts.items() if v == "same"))
    above = tuple(
        sorted(
            (u, v) if kind == "above" else (v, u)
            for (u, v), kind in verdicts.items()
            if kind != "same"
        )
    )

    # contract same-level groups and look for a strict cycle
    _, group_of, higher = _strict_order(len(dg.vertices), same, above)
    for u, v in above:
        if group_of[u] == group_of[v]:
            raise DirectedLoop(
                "components %d and %d are forced both equal and ordered" % (u, v)
            )
    if not _acyclic(higher):
        raise DirectedLoop("strict order relations contain a cycle")
    return TwistedOrderRelation(dg, same, above)


@dataclass(frozen=True)
class LevelGraph:
    """A dual graph with a full level assignment (top level 0, descending,
    contiguous)."""

    graph: DualGraph
    levels: tuple[int, ...]


def _union_find(n: int, pairs: Sequence[tuple[int, int]] = ()):
    """Union-find over range(n), joined by the given pairs; the root of a
    class is its smallest item.  Returns find(x), the root of x's class,
    and union(u, v), which joins two classes and returns (kept root,
    absorbed root), or None when they are one class already."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru == rv:
            return None
        ru, rv = min(ru, rv), max(ru, rv)
        parent[rv] = ru
        return ru, rv

    for u, v in pairs:
        union(u, v)
    return find, union


def _strict_order(
    n: int, same: Sequence[tuple[int, int]], above: Sequence[tuple[int, int]]
) -> tuple[list[list[int]], list[int], list[int]]:
    """The same-level groups of components 0..n-1 (ascending lists, in
    order of their smallest member), the group of each component, and per
    group the bitmask of the groups strictly above it."""
    find, _ = _union_find(n, same)
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(find(v), []).append(v)
    groups = list(members.values())
    group_of = [0] * n
    for gi, grp in enumerate(groups):
        for v in grp:
            group_of[v] = gi
    higher = [0] * len(groups)
    for u, v in above:
        higher[group_of[v]] |= 1 << group_of[u]
    return groups, group_of, higher


def _sources(higher: Sequence[int], placed: int) -> int:
    """Bitmask of the unplaced groups whose strictly higher groups (the
    bitmask higher[g]) are all placed."""
    out = 0
    for g, mask in enumerate(higher):
        if not (placed >> g) & 1 and not mask & ~placed:
            out |= 1 << g
    return out


def _acyclic(higher: Sequence[int]) -> bool:
    """Whether peeling off the groups with nothing above them left
    eventually places every group."""
    placed = 0
    while step := _sources(higher, placed):
        placed |= step
    return placed == (1 << len(higher)) - 1


# Above the 545,835 level graphs of an 8-leaf star; the 9-leaf star's
# 7,087,261 are refused.
_MAX_LEVEL_GRAPHS = 1_000_000


def _count_weak_orders(higher: Sequence[int], budget: int) -> int:
    """Number of weak orders extending the (acyclic) strict relation.

    count(placed) sums count(placed | block) over the nonempty blocks of
    available groups; it is kept per order ideal `placed`.  Every ideal
    reached has at least one completion, so any count reached bounds the
    total from below and the walk stops with BudgetExceeded as soon as one
    passes the budget.
    """
    full = (1 << len(higher)) - 1
    count = {full: 1}
    avail = _sources(higher, 0)
    stack = [[0, avail, avail, 0]]  # placed, available, next block, total so far
    while stack:
        frame = stack[-1]
        placed, avail, block, total = frame
        if total > budget:
            raise BudgetExceeded("the level-graph count exceeds %d" % budget)
        if not block:
            stack.pop()
            count[placed] = total
            if stack:
                stack[-1][3] += total
            continue
        frame[2] = (block - 1) & avail
        nxt = placed | block
        if nxt in count:
            frame[3] += count[nxt]
        else:
            avail = _sources(higher, nxt)
            stack.append([nxt, avail, avail, 0])
    return count[0]


def _peel(
    higher: Sequence[int], groups: Sequence[Sequence[int]], n: int
) -> Iterator[tuple[int, ...]]:
    """Level vectors of the n components for every weak order of the
    groups extending the strict relation, peeled top level first."""
    full = (1 << len(higher)) - 1
    levels = [0] * n
    avail = _sources(higher, 0)
    stack = [[0, avail, avail]]  # placed above this level, available, next block
    while stack:
        frame = stack[-1]
        placed, avail, block = frame
        if not block:
            stack.pop()
            continue
        frame[2] = (block - 1) & avail
        depth = len(stack) - 1
        rest = block
        while rest:
            low = rest & -rest
            for v in groups[low.bit_length() - 1]:
                levels[v] = -depth
            rest ^= low
        placed |= block
        if placed == full:
            yield tuple(levels)
        else:
            avail = _sources(higher, placed)
            stack.append([placed, avail, avail])


def enumerate_level_graphs(rel: TwistedOrderRelation) -> list[LevelGraph]:
    """All level assignments compatible with the derived relations,
    normalized (top level 0, contiguous) and sorted by level vector,
    descending.  Raises BudgetExceeded, before building any of them, when
    there are more than _MAX_LEVEL_GRAPHS."""
    n = len(rel.graph.vertices)
    groups, _, higher = _strict_order(n, rel.same, rel.above)
    if not _acyclic(higher):
        return []
    _count_weak_orders(higher, _MAX_LEVEL_GRAPHS)
    vectors = sorted(_peel(higher, groups, n), reverse=True)
    return [LevelGraph(rel.graph, levels) for levels in vectors]


@dataclass(frozen=True)
class GrcResult:
    status: str  # "admissible" | "inadmissible" | "indeterminate"
    conditions: tuple[str, ...]
    reason: Optional[str] = None

    @property
    def admissible(self) -> bool:
        return self.status == "admissible"


def grc_admissible(lg: LevelGraph, res: ResidueState) -> GrcResult:
    """Evaluate the global (k-)residue conditions on one level graph.

    For each level L and connected component Y of the part strictly above
    L: a marked pole in Y or a component known not to be a k-th power
    lifts the condition; otherwise the k-residues at the edges joining Y
    to level L must satisfy the root-sum product condition, which with
    one non-zero slot forces that k-residue to vanish and with two or
    more is satisfiable by scaling.  Horizontal nodes record their
    matching condition as text; they are never evaluated.
    """
    dg = lg.graph
    k = dg.k
    levels = lg.levels
    conditions: list[str] = []
    # (edge index, ends, side of the lower end or None if horizontal) by
    # the level of the lower end
    by_low: dict[int, list[tuple[int, int, int, Optional[str]]]] = {}

    states = res.states
    for ei, e in enumerate(dg.edges):
        la, lb = levels[e.a], levels[e.b]
        lower = None if la == lb else "a" if la < lb else "b"
        by_low.setdefault(min(la, lb), []).append((ei, e.a, e.b, lower))
        if lower is None:
            if k == 1:
                conditions.append(
                    "edge %d horizontal: res at side a + res at side b = 0" % ei
                )
            else:
                conditions.append(
                    "edge %d horizontal: res^%d side a = (-1)^%d res^%d side b"
                    % (ei, k, k, k)
                )
        elif states.get((ei, lower)) is None:
            raise MissingResidueState(
                "no residue state for edge %d side %s (lower end)" % (ei, lower)
            )

    # the part above the current level, with the members of each component
    find, union = _union_find(len(dg.vertices))
    members = [[v] for v in range(len(dg.vertices))]

    worst = "admissible"
    reason = None
    for level in sorted(by_low, reverse=True):  # levels without edges change nothing
        edges_here = by_low[level]
        # the upper components with an edge down to this level, and the
        # lower ends of those edges in edge order
        down: dict[int, list[tuple[int, str]]] = {}
        for ei, a, b, side in edges_here:
            if side is not None:
                top = b if side == "a" else a
                down.setdefault(find(top), []).append((ei, side))
        for root in sorted(down):
            comp = members[root]
            if any(
                dg.vertices[v].has_marked_pole or dg.vertices[v].is_kth_power == "no"
                for v in comp
            ):
                continue
            slots = down[root]
            not_zero = [
                (slot, st) for slot in slots if (st := states.get(slot)) != ZERO
            ]
            if not not_zero:
                continue  # the residue sum already vanishes
            if len(not_zero) == 1:
                (ei, side), st = not_zero[0]
                if st == NONZERO:
                    verdict = _verdict_on_violation(dg, levels, set(comp))
                    if verdict == "inadmissible":
                        return GrcResult(
                            "inadmissible",
                            tuple(conditions),
                            "component above level %d forces res^%d = 0 at edge %d "
                            "side %s, but that k-residue is nonzero" % (level, k, ei, side),
                        )
                    worst = "indeterminate"
                    reason = (
                        "violated residue condition could still be lifted by an "
                        "unmodelled criss-cross or k-th power case"
                    )
                else:
                    conditions.append(
                        "res^%d = 0 at edge %d side %s (component above level %d)"
                        % (k, ei, side, level)
                    )
            else:
                names = ", ".join("edge %d side %s" % s for s, _ in not_zero)
                conditions.append(
                    "P_{%d,%d}(res^%d at %s) = 0 (component above level %d; "
                    "satisfiable by scaling)" % (len(slots), k, k, names, level)
                )
        # this level joins the part above the next one
        for _, a, b, _ in edges_here:
            joined = union(a, b)
            if joined:
                members[joined[0]] += members[joined[1]]
    return GrcResult(worst, tuple(conditions), reason)


def _verdict_on_violation(dg: DualGraph, levels, comp) -> str:
    """Could an out-of-scope case still save a violated residue condition?"""
    if any(dg.vertices[v].is_kth_power == "unknown" for v in comp):
        return "indeterminate"  # the not-a-power escape might apply
    internal = [
        e for e in dg.edges if e.a in comp and e.b in comp
    ]
    horizontal = any(levels[e.a] == levels[e.b] for e in internal)
    has_cycle = len(internal) >= len(comp)  # connected multigraph
    if horizontal or has_cycle:
        return "indeterminate"  # criss-cross territory, not modelled
    return "inadmissible"


def eval_pnk(residues: Sequence[complex], k: int, budget: int = 4096) -> complex:
    """Product over all k-th-root choices of the root sum.

    P_{n,k}(R_1..R_n) = prod over tuples (r_1..r_n), r_i^k = R_i, of
    sum(r_i).  Symmetric in the inputs and, being symmetric in each root
    set, a polynomial in the R_i.  Evaluated in floating point; on
    well-conditioned inputs the relative error stays within about 1e-9.
    """
    if k < 1:
        raise BadInput("need k >= 1")
    n = len(residues)
    if k**n > budget:
        raise BudgetExceeded(
            "k^n = %d exceeds the configured budget %d" % (k**n, budget)
        )
    root_sets = []
    for value in residues:
        value = complex(value)
        if k == 1:
            root_sets.append([value])
            continue
        if value == 0:
            root_sets.append([0j] * k)
            continue
        r = abs(value) ** (1.0 / k)
        theta = cmath.phase(value)
        root_sets.append(
            [r * cmath.exp(1j * (theta + 2 * cmath.pi * j) / k) for j in range(k)]
        )
    out = 1 + 0j
    for choice in product(*root_sets):
        out *= sum(choice)
    return out
