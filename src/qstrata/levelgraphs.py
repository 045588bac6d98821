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
the levels top down; what one level adds (its conditions, and whether a
component above it fails) depends only on the vertex bitmasks of the
part above it and of the level, the level number and the bitmask of the
horizontal edges.  Each DualGraph memoises these fragments by that key
for the residue states last seen, so the level graphs of one graph share
them.  The two criss-cross cases that need root-of-unity bookkeeping on
the internal structure of an upper-level component are not modelled;
when only they could decide, the verdict is Indeterminate.
"""

from __future__ import annotations

import cmath
import json
from itertools import product
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    BadInput,
    BudgetExceeded,
    DirectedLoop,
    MissingResidueState,
    MixedEdgeOrders,
)
from .picard import _json_list

ZERO, NONZERO, UNKNOWN = "zero", "nonzero", "unknown"
_STATES = (ZERO, NONZERO, UNKNOWN)
_POWER = ("yes", "no", "unknown")


class Vertex(NamedTuple("_Vertex", [("genus", int), ("marked", frozenset[int]),
                                    ("has_marked_pole", bool), ("is_kth_power", str)])):
    __slots__ = ()

    def __new__(cls, genus: int, marked: frozenset[int], has_marked_pole: bool, is_kth_power: str):
        if genus < 0:
            raise BadInput("vertex genus must be >= 0")
        if is_kth_power not in _POWER:
            raise BadInput("is_kth_power must be one of %s" % (_POWER,))
        return super().__new__(cls, genus, marked, has_marked_pole, is_kth_power)


class Edge(NamedTuple):
    a: int
    b: int
    ord_a: int
    ord_b: int


def _json_value(value, what: str, kind: type = int):
    if type(value) is not kind:  # bool is an int subclass, float a silent truncation
        name = "an integer" if kind is int else "a boolean"
        raise BadInput("%s must be %s, got %r" % (what, name, value))
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
        self._grc_memo: Optional[tuple[dict, dict]] = None  # see grc_admissible
        find = _union_find(len(vertices), [(e.a, e.b) for e in edges])
        if len({find(v) for v in range(len(vertices))}) != 1:
            raise BadInput("dual graph must be connected")

    @classmethod
    def from_jsonable(cls, data: Mapping) -> tuple["DualGraph", "ResidueState"]:
        vertices = [
            Vertex(
                genus=_json_value(v["genus"], "genus"),
                marked=frozenset(_json_value(p, "marked label")
                                 for p in _json_list(v.get("marked", []))),
                has_marked_pole=_json_value(v.get("pole", False), "pole", bool),
                is_kth_power=str(v.get("kth_power", "unknown")).lower(),
            )
            for v in _json_list(data["vertices"])
        ]
        edges = [
            Edge(*(_json_value(e[f], f) for f in ("a", "b", "ord_a", "ord_b")))
            for e in _json_list(data["edges"])
        ]
        graph = cls(_json_value(data["k"], "k"), vertices, edges)
        states = {}
        for r in _json_list(data.get("residues", [])):
            side = str(r["side"]).lower()
            state = str(r["state"]).lower()
            if side not in ("a", "b"):
                raise BadInput("residue side must be 'a' or 'b'")
            if state not in _STATES:
                raise BadInput("residue state must be one of %s" % (_STATES,))
            edge = _json_value(r["edge"], "residue edge")
            if not 0 <= edge < len(edges):
                raise BadInput(
                    "residue entry names edge %r; the graph has %d edge(s)"
                    % (edge, len(edges))
                )
            if (edge, side) in states:
                raise BadInput("repeated residue entry for edge %d side %s" % (edge, side))
            states[(edge, side)] = state
        return graph, ResidueState(states)

    @classmethod
    def from_json(cls, text: str) -> tuple["DualGraph", "ResidueState"]:
        return cls.from_jsonable(json.loads(text))


class ResidueState(NamedTuple):
    """Three-valued residue knowledge keyed by (edge index, side)."""

    states: Mapping[tuple[int, str], str]

    def get(self, edge: int, side: str) -> Optional[str]:
        return self.states.get((edge, side))


class TwistedOrderRelation(NamedTuple):
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


class LevelGraph(NamedTuple("_LevelGraph", [("graph", DualGraph), ("levels", tuple[int, ...])])):
    """A dual graph with one level per component (enumerated ones have top
    level 0, descending, contiguous)."""

    __slots__ = ()

    def __new__(cls, graph: DualGraph, levels: tuple[int, ...]):
        n = len(graph.vertices)
        if len(levels) != n:
            raise BadInput("%d levels given for %d components" % (len(levels), n))
        return super().__new__(cls, graph, levels)


def _union_find(n: int, pairs: Sequence[tuple[int, int]]):
    """find(x) of the union-find over range(n) joined by the given pairs:
    the root of x's class, which is its smallest item."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        parent[max(ru, rv)] = min(ru, rv)
    return find


def _strict_order(
    n: int, same: Sequence[tuple[int, int]], above: Sequence[tuple[int, int]]
) -> tuple[list[list[int]], list[int], list[int]]:
    """The same-level groups of components 0..n-1 (ascending lists, in
    order of their smallest member), the group of each component, and per
    group the bitmask of the groups strictly above it."""
    find = _union_find(n, same)
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


class GrcResult(NamedTuple):
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
    matching condition as text; they are never evaluated.  Each level's
    share comes from the graph's memo of _grc_fragment results.
    """
    dg = lg.graph
    k = dg.k
    levels = lg.levels
    states = res.states
    conditions: list[str] = []
    horizontal = 0  # bitmask of the edges with both ends on one level
    low = set()  # the levels holding the lower end of a strict edge
    for ei, e in enumerate(dg.edges):
        la, lb = levels[e.a], levels[e.b]
        if la == lb:
            horizontal |= 1 << ei
            conditions.append(
                "edge %d horizontal: res at side a + res at side b = 0" % ei if k == 1
                else "edge %d horizontal: res^%d side a = (-1)^%d res^%d side b"
                % (ei, k, k, k)
            )
            continue
        lower = "a" if la < lb else "b"
        low.add(la if la < lb else lb)
        if states.get((ei, lower)) is None:
            raise MissingResidueState(
                "no residue state for edge %d side %s (lower end)" % (ei, lower)
            )
    on_level: dict[int, int] = {}  # level -> bitmask of its vertices
    for v, level in enumerate(levels):
        on_level[level] = on_level.get(level, 0) | 1 << v

    if dg._grc_memo is None or dg._grc_memo[0] != states:
        dg._grc_memo = (dict(states), {})
    snapshot, fragments = dg._grc_memo
    worst, reason = "admissible", None
    above = 0
    for level in sorted(on_level, reverse=True):
        if level in low:
            key = (above, on_level[level], level, horizontal)
            fragment = fragments.get(key)
            if fragment is None:
                fragment = fragments[key] = _grc_fragment(dg, snapshot, *key)
            conds, status, why = fragment
            conditions += conds
            if status == "inadmissible":
                return GrcResult(status, tuple(conditions), why)
            if status == "indeterminate":
                worst, reason = status, why
        above |= on_level[level]  # levels without edges join it too
    return GrcResult(worst, tuple(conditions), reason)


def _grc_fragment(dg: DualGraph, states, above: int, here: int, level: int, horizontal: int):
    """The (conditions, status, reason) that the components of the vertex
    bitmask `above` impose on the vertices `here` on `level`; `horizontal`
    is the bitmask of the horizontal edges.  An inadmissible fragment
    stops at the component that fails."""
    k = dg.k
    edges = dg.edges
    find = _union_find(
        len(dg.vertices), [(e.a, e.b) for e in edges if above >> e.a & 1 and above >> e.b & 1]
    )
    down: dict[int, list[tuple[int, str]]] = {}  # upper component -> lower ends
    for ei, e in enumerate(edges):
        for top, bottom, side in ((e.b, e.a, "a"), (e.a, e.b, "b")):
            if here >> bottom & 1 and above >> top & 1:
                down.setdefault(find(top), []).append((ei, side))
    conditions = []
    status, reason = "admissible", None
    for root in sorted(down):
        comp = [v for v in range(len(dg.vertices)) if above >> v & 1 and find(v) == root]
        powers = {dg.vertices[v].is_kth_power for v in comp}
        if "no" in powers or any(dg.vertices[v].has_marked_pole for v in comp):
            continue
        slots = down[root]
        not_zero = [(slot, st) for slot in slots if (st := states.get(slot)) != ZERO]
        if len(not_zero) == 1:
            (ei, side), st = not_zero[0]
            if st != NONZERO:
                conditions.append(
                    "res^%d = 0 at edge %d side %s (component above level %d)"
                    % (k, ei, side, level)
                )
                continue
            mask = sum(1 << v for v in comp)
            internal = [i for i, e in enumerate(edges) if mask >> e.a & 1 and mask >> e.b & 1]
            # an unknown power status or criss-cross territory (an internal
            # horizontal edge or a cycle) might still lift it: not modelled
            if "unknown" not in powers and len(internal) < len(comp) and not any(
                horizontal >> i & 1 for i in internal
            ):
                return (tuple(conditions), "inadmissible",
                        "component above level %d forces res^%d = 0 at edge %d side %s, "
                        "but that k-residue is nonzero" % (level, k, ei, side))
            status = "indeterminate"
            reason = (
                "violated residue condition could still be lifted by an "
                "unmodelled criss-cross or k-th power case"
            )
        elif not_zero:  # with no such slot the residue sum already vanishes
            names = ", ".join("edge %d side %s" % s for s, _ in not_zero)
            conditions.append(
                "P_{%d,%d}(res^%d at %s) = 0 (component above level %d; "
                "satisfiable by scaling)" % (len(slots), k, k, names, level)
            )
    return tuple(conditions), status, reason


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
    bits = n * (k.bit_length() - 1)  # k^n has more bits than this
    if bits >= budget.bit_length() or k**n > budget:  # a huge k^n is refused unbuilt
        message = "k^n, of over %d bits, exceeds the configured budget" % bits
        try:  # k^n itself, where it is short enough to build and to print
            message = "k^n = %d exceeds the configured budget %d" % (k**n, budget) if bits < 20_000 else message
        except ValueError:  # past the interpreter's int-to-str digit limit
            pass
        raise BudgetExceeded(message)
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
