"""Dual graphs with twisted k-differential order data and level structures.

A dual graph carries per-vertex data (genus, marked points, whether a
marked pole sits there, and whether the differential on that component
is known to be a k-th power) and per-edge node orders summing to -2k.
Comparing orders across shared edges yields the component relations
"same level" / "strictly above"; a level graph is a full order refining
them.

grc_admissible applies the global residue conditions with three-valued
residue knowledge (zero / nonzero / unknown) per edge side.  The two
criss-cross cases that need root-of-unity bookkeeping on the internal
structure of an upper-level component are not modelled; when only they
could decide, the verdict is Indeterminate.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from itertools import combinations, product
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
        if not self._connected():
            raise BadInput("dual graph must be connected")

    def _connected(self) -> bool:
        return len(_components(self, range(len(self.vertices)))) == 1

    @classmethod
    def from_jsonable(cls, data: Mapping) -> tuple["DualGraph", "ResidueState"]:
        vertices = [
            Vertex(
                genus=int(v["genus"]),
                marked=frozenset(int(p) for p in v.get("marked", ())),
                has_marked_pole=bool(v.get("pole", False)),
                is_kth_power=str(v.get("kth_power", "unknown")).lower(),
            )
            for v in data["vertices"]
        ]
        edges = [
            Edge(int(e["a"]), int(e["b"]), int(e["ord_a"]), int(e["ord_b"]))
            for e in data["edges"]
        ]
        graph = cls(int(data["k"]), vertices, edges)
        states = {}
        for r in data.get("residues", ()):
            side = str(r["side"]).lower()
            state = str(r["state"]).lower()
            if side not in ("a", "b"):
                raise BadInput("residue side must be 'a' or 'b'")
            if state not in _STATES:
                raise BadInput("residue state must be one of %s" % (_STATES,))
            states[(int(r["edge"]), side)] = state
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
    find = _same_level_roots(len(dg.vertices), same)
    arcs = set()
    for u, v in above:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise DirectedLoop(
                "components %d and %d are forced both equal and ordered" % (u, v)
            )
        arcs.add((ru, rv))
    # Kahn peel on the contracted digraph
    nodes = {find(v) for v in range(len(dg.vertices))}
    indeg = {x: 0 for x in nodes}
    for _, v in arcs:
        indeg[v] += 1
    queue = [x for x in nodes if not indeg[x]]
    seen = 0
    while queue:
        x = queue.pop()
        seen += 1
        for u, v in arcs:
            if u == x:
                indeg[v] -= 1
                if not indeg[v]:
                    queue.append(v)
    if seen != len(nodes):
        raise DirectedLoop("strict order relations contain a cycle")
    return TwistedOrderRelation(dg, same, above)


@dataclass(frozen=True)
class LevelGraph:
    """A dual graph with a full level assignment (top level 0, descending,
    contiguous)."""

    graph: DualGraph
    levels: tuple[int, ...]


def _same_level_roots(n: int, same: Sequence[tuple[int, int]]):
    """Union-find over n components joined by the same-level pairs;
    returns the function mapping a component to its group root."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in same:
        parent[find(u)] = find(v)
    return find


def _class_partition(rel: TwistedOrderRelation) -> list[list[int]]:
    n = len(rel.graph.vertices)
    find = _same_level_roots(n, rel.same)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return [sorted(g) for g in sorted(groups.values())]


def _all_ordered_partitions(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Ordered set partitions of range(k) (blocks are levels, top first)."""
    items = tuple(range(k))

    def rec(remaining: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if not remaining:
            yield ()
            return
        for r in range(1, len(remaining) + 1):
            for block in combinations(remaining, r):
                rest = tuple(x for x in remaining if x not in block)
                for tail in rec(rest):
                    yield (block, *tail)

    return rec(items)


def enumerate_level_graphs(rel: TwistedOrderRelation) -> list[LevelGraph]:
    """All level assignments compatible with the derived relations,
    normalized (top level 0, contiguous) and sorted by level vector."""
    groups = _class_partition(rel)
    k = len(groups)
    group_of = {}
    for gi, grp in enumerate(groups):
        for v in grp:
            group_of[v] = gi
    strict = {(group_of[u], group_of[v]) for u, v in rel.above}
    out = []
    for blocks in _all_ordered_partitions(k):
        level_of_group = {}
        for depth, block in enumerate(blocks):
            for gi in block:
                level_of_group[gi] = -depth
        if all(level_of_group[u] > level_of_group[v] for u, v in strict):
            levels = tuple(level_of_group[group_of[v]] for v in range(len(group_of)))
            out.append(LevelGraph(rel.graph, levels))
    out.sort(key=lambda lg: lg.levels, reverse=True)
    return out


@dataclass(frozen=True)
class GrcResult:
    status: str  # "admissible" | "inadmissible" | "indeterminate"
    conditions: tuple[str, ...]
    reason: Optional[str] = None

    @property
    def admissible(self) -> bool:
        return self.status == "admissible"


def _edge_side(e: Edge, vertex: int) -> str:
    return "a" if e.a == vertex else "b"


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

    for ei, e in enumerate(dg.edges):
        la, lb = levels[e.a], levels[e.b]
        if la == lb:
            if k == 1:
                conditions.append(
                    "edge %d horizontal: res at side a + res at side b = 0" % ei
                )
            else:
                conditions.append(
                    "edge %d horizontal: res^%d side a = (-1)^%d res^%d side b"
                    % (ei, k, k, k)
                )
        else:
            lower = "a" if la < lb else "b"
            if res.get(ei, lower) is None:
                raise MissingResidueState(
                    "no residue state for edge %d side %s (lower end)" % (ei, lower)
                )

    worst = "admissible"
    reason = None
    for level in sorted(set(levels), reverse=True):
        upper = [v for v in range(len(dg.vertices)) if levels[v] > level]
        if not upper:
            continue
        for comp in _components(dg, upper):
            if any(dg.vertices[v].has_marked_pole for v in comp):
                continue
            if any(dg.vertices[v].is_kth_power == "no" for v in comp):
                continue
            down = []
            for ei, e in enumerate(dg.edges):
                for top, bottom in ((e.a, e.b), (e.b, e.a)):
                    if top in comp and bottom not in comp and levels[bottom] == level:
                        down.append((ei, _edge_side(e, bottom)))
            states = [res.get(ei, side) for ei, side in down]
            not_zero = [
                (slot, st) for slot, st in zip(down, states) if st != ZERO
            ]
            if not down or not not_zero:
                continue  # the residue sum already vanishes
            if len(not_zero) == 1:
                (ei, side), st = not_zero[0]
                if st == NONZERO:
                    verdict = _verdict_on_violation(dg, levels, comp)
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
                slots = ", ".join("edge %d side %s" % s for s, _ in not_zero)
                conditions.append(
                    "P_{%d,%d}(res^%d at %s) = 0 (component above level %d; "
                    "satisfiable by scaling)" % (len(down), k, k, slots, level)
                )
    return GrcResult(worst, tuple(conditions), reason)


def _components(dg: DualGraph, keep: Sequence[int]) -> list[list[int]]:
    keep_set = set(keep)
    seen: set[int] = set()
    out = []
    for start in keep:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for e in dg.edges:
                for u, w in ((e.a, e.b), (e.b, e.a)):
                    if u == v and w in keep_set and w not in comp:
                        comp.add(w)
                        frontier.append(w)
        seen |= comp
        out.append(sorted(comp))
    return out


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
