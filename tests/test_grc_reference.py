"""grc_admissible against a frozen straightforward implementation.

reference_grc_admissible rescans every edge for each vertex, component
and level; the library memoises each level's share per graph and residue
states.  Both must give the same GrcResult (or raise the same error) on
every input, in any order of calls on one graph.
"""

import random

from qstrata import (
    DualGraph,
    Edge,
    GrcResult,
    LevelGraph,
    MissingResidueState,
    ResidueState,
    Vertex,
    enumerate_level_graphs,
    grc_admissible,
    levelgraphs,
    validate_twisted,
)

ZERO, NONZERO = "zero", "nonzero"


def _components(dg, keep):
    keep_set = set(keep)
    seen = set()
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


def _verdict_on_violation(dg, levels, comp):
    if any(dg.vertices[v].is_kth_power == "unknown" for v in comp):
        return "indeterminate"
    internal = [e for e in dg.edges if e.a in comp and e.b in comp]
    horizontal = any(levels[e.a] == levels[e.b] for e in internal)
    has_cycle = len(internal) >= len(comp)
    if horizontal or has_cycle:
        return "indeterminate"
    return "inadmissible"


def reference_grc_admissible(lg, res):
    dg = lg.graph
    k = dg.k
    levels = lg.levels
    conditions = []

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
                        down.append((ei, "a" if e.a == bottom else "b"))
            states = [res.get(ei, side) for ei, side in down]
            not_zero = [(slot, st) for slot, st in zip(down, states) if st != ZERO]
            if not down or not not_zero:
                continue
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


def random_case(rng):
    """A connected dual graph of up to 6 components whose node orders come
    from hidden levels, with self-nodes, multi-edges and horizontal edges,
    and residue states from random_states."""
    n = rng.randint(1, 6)
    k = rng.randint(1, 3)
    hidden = [rng.randint(0, 2) for _ in range(n)]
    vertices = [
        Vertex(
            rng.randint(0, 2),
            frozenset(),
            rng.random() < 0.15,
            rng.choice(("yes", "yes", "no", "unknown")),
        )
        for _ in range(n)
    ]
    pairs = [(v, rng.randrange(v)) for v in range(1, n)]  # spanning tree
    for _ in range(rng.randint(0, 4)):
        u = rng.randrange(n)
        pairs.append((u, u if rng.random() < 0.3 else rng.randrange(n)))
    edges = []
    for u, w in pairs:
        if hidden[u] == hidden[w]:
            edges.append(Edge(u, w, -k, -k))
        else:
            top = rng.randint(1, 3) - k  # the upper end's order exceeds -k
            if hidden[u] > hidden[w]:
                edges.append(Edge(u, w, top, -2 * k - top))
            else:
                edges.append(Edge(u, w, -2 * k - top, top))
    return DualGraph(k, vertices, edges), ResidueState(random_states(rng, len(edges)))


def random_states(rng, n_edges):
    """A residue state on every edge side, a few of them missing."""
    states = {}
    for ei in range(n_edges):
        for side in "ab":
            if rng.random() > 0.03:
                states[(ei, side)] = rng.choice(("zero", "nonzero", "unknown"))
    return states


def outcome(fn, lg, res):
    try:
        return fn(lg, res)
    except MissingResidueState as exc:
        return ("MissingResidueState", str(exc))


def hand_built(rng, graph):
    """Level vectors that need not refine the relation: strict edges on
    one level, gaps between levels, a top level other than 0."""
    return [
        LevelGraph(graph, tuple(rng.choice((3, 1, 0, -2, -5)) for _ in graph.vertices))
        for _ in range(3)
    ]


def test_grc_matches_reference():
    # Up to 50 level graphs per graph in shuffled order plus hand-built
    # ones, all on one graph object, each under one of two alternating
    # residue states, then twice under a third states dict, mutated in
    # place between the two calls.
    rng = random.Random(11)
    seen = set()

    def check(lg, res):
        want = outcome(reference_grc_admissible, lg, res)
        assert outcome(grc_admissible, lg, res) == want
        seen.add(want[0] if isinstance(want, tuple) else want.status)
        if isinstance(want, GrcResult):
            seen.update(kind(c) for c in want.conditions)

    for _ in range(400):
        graph, res = random_case(rng)
        other = ResidueState(random_states(rng, len(graph.edges)))
        live = dict(res.states)
        level_graphs = enumerate_level_graphs(validate_twisted(graph))
        calls = rng.sample(level_graphs, min(50, len(level_graphs))) + hand_built(rng, graph)
        rng.shuffle(calls)
        for i, lg in enumerate(calls):
            check(lg, (res, other)[i % 2])
            check(lg, ResidueState(live))
            slot = (rng.randrange(max(1, len(graph.edges))), rng.choice("ab"))
            state = rng.choice(("zero", "nonzero", "unknown", None))
            if state is None:
                live.pop(slot, None)
            else:
                live[slot] = state
            check(lg, ResidueState(live))
            if max(lg.levels) != 0:
                seen.add("top level not 0")
            if len(set(lg.levels)) <= max(lg.levels) - min(lg.levels):
                seen.add("level gap")
            if any(e.a != e.b and e.ord_a != e.ord_b and lg.levels[e.a] == lg.levels[e.b]
                   for e in graph.edges):
                seen.add("strict edge on one level")
        if any(e.a == e.b for e in graph.edges):
            seen.add("self-node")
        ends = [frozenset((e.a, e.b)) for e in graph.edges]
        if len(set(ends)) < len(ends):
            seen.add("multi-edge")
        if any(v.has_marked_pole for v in graph.vertices):
            seen.add("marked pole")
        seen.update("k-th power " + v.is_kth_power for v in graph.vertices)
    for case in ("admissible", "inadmissible", "indeterminate", "MissingResidueState",
                 "self-node", "multi-edge", "marked pole", "k-th power no",
                 "k-th power unknown", "horizontal", "P_{n,k}", "res^k = 0",
                 "top level not 0", "level gap", "strict edge on one level"):
        assert case in seen, case


def test_grc_memo_keys_on_horizontal_edges():
    # a chain 0 > 1 > 2 whose strict edge 0-1 a hand-built level graph puts
    # on one level: the same vertices lie above and on level -2 in both
    # graphs, and only the horizontal edge turns the violation indeterminate
    yes = Vertex(1, frozenset(), False, "yes")
    res = ResidueState({(0, "b"): "unknown", (1, "b"): "nonzero"})
    for order in ((0, -1, -2), (0, 0, -2)), ((0, 0, -2), (0, -1, -2)):
        graph = DualGraph(2, [yes] * 3, [Edge(0, 1, 0, -4), Edge(1, 2, 0, -4)])
        got = [grc_admissible(LevelGraph(graph, levels), res) for levels in order]
        assert got == [reference_grc_admissible(LevelGraph(graph, lv), res) for lv in order]
        assert {v.status for v in got} == {"inadmissible", "indeterminate"}


def test_grc_memo_is_hit(monkeypatch):
    # A centre below six leaves: every one of its 4,683 level graphs has one
    # level with edges down to it, the centre's, and the part above it is
    # always all six leaves, so one fragment per depth of the centre serves
    # them all.
    powers = ("yes", "yes", "unknown", "no", "yes", "yes")
    leaves = [Vertex(1, frozenset(), i == 4, p) for i, p in enumerate(powers)]
    graph = DualGraph(2, [Vertex(0, frozenset(), False, "yes")] + leaves,
                      [Edge(x, 0, 0, -4) for x in range(1, 7)])
    states = ("zero", "unknown", "nonzero", "nonzero", "unknown", "unknown")
    res = ResidueState({(x, "b"): st for x, st in enumerate(states)})
    built = []
    build = levelgraphs._grc_fragment
    monkeypatch.setattr(levelgraphs, "_grc_fragment", lambda *a: built.append(a) or build(*a))
    level_graphs = enumerate_level_graphs(validate_twisted(graph))
    verdicts = [grc_admissible(lg, res) for lg in level_graphs]
    assert len(level_graphs) == 4683
    assert len(built) <= 6
    rng = random.Random(5)
    for i in rng.sample(range(len(level_graphs)), 300):
        assert verdicts[i] == reference_grc_admissible(level_graphs[i], res)
    # the unknown-power leaf's nonzero residue, and two res^k = 0 conditions
    assert {(v.status, len(v.conditions)) for v in verdicts} == {("indeterminate", 2)}


def kind(condition):
    if "horizontal" in condition:
        return "horizontal"
    return "P_{n,k}" if condition.startswith("P_{") else "res^k = 0"
