import functools
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from qstrata import (
    BadInput,
    BudgetExceeded,
    DirectedLoop,
    DualGraph,
    Edge,
    LevelGraph,
    MissingResidueState,
    MixedEdgeOrders,
    ResidueState,
    TwistedOrderRelation,
    Vertex,
    enumerate_level_graphs,
    eval_pnk,
    grc_admissible,
    validate_twisted,
)
from qstrata.levelgraphs import _count_weak_orders, _strict_order

DATA = Path(__file__).parent / "data"


def load(name):
    return DualGraph.from_json((DATA / name).read_text())


def test_dual_graph_invariants():
    v = Vertex(1, frozenset(), False, "unknown")
    with pytest.raises(BadInput):
        DualGraph(2, [v, v], [Edge(0, 1, 2, -4)])  # orders sum to -2, not -4
    with pytest.raises(BadInput):
        DualGraph(2, [v, v], [])  # disconnected
    DualGraph(2, [v, v], [Edge(0, 1, -2, -2)])


def test_example1_relation_and_enumeration():
    graph, residues = load("ex1.json")
    rel = validate_twisted(graph)
    assert rel.above == ((0, 1),)
    assert rel.same == ()
    level_graphs = enumerate_level_graphs(rel)
    assert len(level_graphs) == 1
    verdict = grc_admissible(level_graphs[0], residues)
    assert verdict.admissible
    assert any("res^2 = 0" in c for c in verdict.conditions)


def test_example2_relations_enumeration_admissibility():
    graph, residues = load("ex2.json")
    rel = validate_twisted(graph)
    assert set(rel.above) == {(0, 1), (0, 2)}
    level_graphs = enumerate_level_graphs(rel)
    assert len(level_graphs) == 3
    verdicts = {lg.levels: grc_admissible(lg, residues) for lg in level_graphs}
    assert sum(v.admissible for v in verdicts.values()) == 2
    # the tail with nonzero k-residue must sit on the lowest level
    assert not verdicts[(0, -2, -1)].admissible
    assert verdicts[(0, -1, -2)].admissible
    assert any("res^2 = 0" in c for c in verdicts[(0, -1, -2)].conditions)
    assert verdicts[(0, -1, -1)].admissible
    assert any("P_{2,2}" in c for c in verdicts[(0, -1, -1)].conditions)


def test_example3_broom_covers_every_verdict():
    # a head above three bristles (two with doubled edges) and a handle
    # whose two components share a horizontal edge: four groups below the
    # head, so Fubini(4) = 75 level graphs
    graph, residues = load("ex3.json")
    level_graphs = enumerate_level_graphs(validate_twisted(graph))
    assert len(level_graphs) == 75
    verdicts = [grc_admissible(lg, residues) for lg in level_graphs]
    assert {v.status for v in verdicts} == {"admissible", "inadmissible", "indeterminate"}
    conditions = [c for v in verdicts for c in v.conditions]
    for kind in ("horizontal", "P_{", "res^2 = 0"):
        assert any(kind in c for c in conditions), kind
    # the bristle with a nonzero k-residue fails alone below the head
    assert grc_admissible(
        next(lg for lg in level_graphs if lg.levels == (0, -1, -2, -2, -2, -2)), residues
    ).status == "inadmissible"


def test_single_vertex_relation_empty():
    graph = DualGraph(2, [Vertex(2, frozenset(), False, "unknown")], [])
    rel = validate_twisted(graph)
    assert rel.same == () and rel.above == ()
    assert len(enumerate_level_graphs(rel)) == 1


def test_mixed_edge_orders_rejected():
    v = Vertex(1, frozenset(), False, "unknown")
    graph = DualGraph(
        2, [v, v], [Edge(0, 1, -2, -2), Edge(0, 1, 0, -4)]
    )
    with pytest.raises(MixedEdgeOrders):
        validate_twisted(graph)


def test_directed_loop_rejected():
    v = Vertex(1, frozenset(), False, "unknown")
    graph = DualGraph(
        2,
        [v, v, v],
        [Edge(0, 1, 0, -4), Edge(1, 2, 0, -4), Edge(2, 0, 0, -4)],
    )
    with pytest.raises(DirectedLoop):
        validate_twisted(graph)


def test_strict_self_node_rejected():
    v = Vertex(1, frozenset(), False, "unknown")
    with pytest.raises(DirectedLoop):
        validate_twisted(DualGraph(2, [v], [Edge(0, 0, 0, -4)]))
    # an order-(-k,-k) self-node is an ordinary horizontal node
    rel = validate_twisted(DualGraph(2, [v], [Edge(0, 0, -2, -2)]))
    (lg,) = enumerate_level_graphs(rel)
    verdict = grc_admissible(lg, ResidueState({}))
    assert verdict.admissible
    assert any("horizontal" in c for c in verdict.conditions)


def test_same_and_strict_conflict_rejected():
    v = Vertex(1, frozenset(), False, "unknown")
    graph = DualGraph(
        2,
        [v, v, v],
        [Edge(0, 1, -2, -2), Edge(1, 2, 0, -4), Edge(2, 0, 0, -4)],
    )
    with pytest.raises(DirectedLoop):
        validate_twisted(graph)


def test_two_incomparable_vertices_three_level_graphs():
    # relation-level count: ordered partitions of two incomparable items
    v = Vertex(1, frozenset(), False, "unknown")
    graph = DualGraph(2, [v, v], [Edge(0, 1, -2, -2)])
    rel = TwistedOrderRelation(graph, same=(), above=())
    assert len(enumerate_level_graphs(rel)) == 3


@functools.cache
def normalized_level_vectors(n):
    """Every level vector of n components: top level 0, levels contiguous."""
    out = []
    for levels in product(range(-(n - 1), 1), repeat=n):
        if max(levels) == 0 and set(levels) == set(range(min(levels), 1)):
            out.append(levels)
    return out


def brute_force(n, same, above):
    return sorted(
        (
            levels
            for levels in normalized_level_vectors(n)
            if all(levels[u] == levels[v] for u, v in same)
            and all(levels[u] > levels[v] for u, v in above)
        ),
        reverse=True,
    )


def test_enumeration_matches_brute_force():
    rng = random.Random(5)
    v = Vertex(1, frozenset(), False, "unknown")
    cases = [
        # strict cycles, directly and through a same-level pair
        (2, {(0, 1)}, {(0, 1)}),
        (3, set(), {(0, 1), (1, 2), (2, 0)}),
        (4, {(0, 1)}, {(1, 2), (2, 0)}),
    ]
    for _ in range(200):
        n = rng.randint(1, 6)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        same = set()
        above = set()
        for a, b in rng.sample(pairs, k=min(len(pairs), rng.randint(0, 5))):
            if rng.random() < 0.4:
                same.add((min(a, b), max(a, b)))
            else:
                above.add((a, b))
        cases.append((n, same, above))
    empty = 0
    for n, same, above in cases:
        chain = [Edge(i, i + 1, -2, -2) for i in range(n - 1)]
        graph = DualGraph(2, [v] * n, chain)
        rel = TwistedOrderRelation(graph, tuple(sorted(same)), tuple(sorted(above)))
        got = [lg.levels for lg in enumerate_level_graphs(rel)]
        assert got == brute_force(n, same, above)
        empty += not got
    assert empty >= 3  # the cyclic relations give no level graph


def star(leaves):
    """A centre component strictly below `leaves` leaf components."""
    v = Vertex(1, frozenset(), False, "yes")
    edges = [Edge(x, 0, 0, -4) for x in range(1, leaves + 1)]
    return DualGraph(2, [v] * (leaves + 1), edges)


def test_enumeration_budget():
    _, _, higher = _strict_order(6, (), tuple((x, 0) for x in range(1, 6)))
    with pytest.raises(BudgetExceeded):  # the 5-leaf star has 541
        _count_weak_orders(higher, 100)
    with pytest.raises(BudgetExceeded):
        _count_weak_orders(higher, 540)
    assert _count_weak_orders(higher, 541) == 541
    assert len(enumerate_level_graphs(validate_twisted(star(5)))) == 541
    # 7,087,261 level graphs: refused by the count, before any is built
    with pytest.raises(BudgetExceeded):
        enumerate_level_graphs(validate_twisted(star(9)))
    # a strict cycle beside 18 free groups: no level graph, found before
    # the count, which would walk the free part's order ideals and refuse
    v = Vertex(1, frozenset(), False, "unknown")
    chain = DualGraph(2, [v] * 21, [Edge(i, i + 1, -2, -2) for i in range(20)])
    cyclic = TwistedOrderRelation(chain, (), ((0, 1), (1, 2), (2, 0)))
    assert enumerate_level_graphs(cyclic) == []


def test_residue_entry_for_unknown_edge_rejected():
    graph = {
        "k": 2,
        "vertices": [{"genus": 1}, {"genus": 1}],
        "edges": [{"a": 0, "b": 1, "ord_a": 0, "ord_b": -4}],
    }
    DualGraph.from_jsonable(dict(graph, residues=[{"edge": 0, "side": "b", "state": "zero"}]))
    for edge in (1, -1, 0.5, True, "0"):
        with pytest.raises(BadInput):
            DualGraph.from_jsonable(
                dict(graph, residues=[{"edge": edge, "side": "b", "state": "zero"}])
            )


def test_missing_residue_state():
    graph, _ = load("ex1.json")
    rel = validate_twisted(graph)
    (lg,) = enumerate_level_graphs(rel)
    with pytest.raises(MissingResidueState):
        grc_admissible(lg, ResidueState({}))


def test_level_vector_must_match_components():
    # a chain of three components: one level per component, no more or less
    v = Vertex(1, frozenset(), False, "yes")
    graph = DualGraph(2, [v, v, v], [Edge(0, 1, 0, -4), Edge(1, 2, 0, -4)])
    res = ResidueState({(0, "b"): "nonzero", (1, "b"): "nonzero"})
    for levels in ((0, -1), (0, -1, -2, -3)):
        with pytest.raises(BadInput):
            grc_admissible(LevelGraph(graph, levels), res)
    # gaps and a top level other than 0 stay accepted
    for levels in ((0, -1, -2), (3, 1, -2)):
        assert grc_admissible(LevelGraph(graph, levels), res).status == "inadmissible"


def test_horizontal_condition_recorded_not_evaluated():
    v_yes = Vertex(1, frozenset(), False, "yes")
    graph = DualGraph(
        2,
        [v_yes, v_yes],
        [Edge(0, 1, -2, -2)],
    )
    rel = validate_twisted(graph)
    flat = [lg for lg in enumerate_level_graphs(rel) if lg.levels == (0, 0)]
    verdict = grc_admissible(flat[0], ResidueState({}))
    assert verdict.admissible
    assert any("horizontal" in c for c in verdict.conditions)


def test_indeterminate_when_criss_cross_could_decide():
    # two kth-power vertices joined by two parallel vertical edges form a
    # cycle above the bottom vertex; a violated residue condition there is
    # out of scope rather than fatal
    top = Vertex(1, frozenset(), False, "yes")
    mid = Vertex(1, frozenset(), False, "yes")
    bot = Vertex(1, frozenset(), False, "yes")
    graph = DualGraph(
        2,
        [top, mid, bot],
        [
            Edge(0, 1, 0, -4),
            Edge(0, 1, 0, -4),
            Edge(1, 2, 0, -4),
        ],
    )
    rel = validate_twisted(graph)
    level_graphs = enumerate_level_graphs(rel)
    assert [lg.levels for lg in level_graphs] == [(0, -1, -2)]
    states = ResidueState(
        {(0, "b"): "unknown", (1, "b"): "unknown", (2, "b"): "nonzero"}
    )
    verdict = grc_admissible(level_graphs[0], states)
    assert verdict.status == "indeterminate"


def test_inadmissible_without_escape():
    graph, residues = load("ex2.json")
    rel = validate_twisted(graph)
    bad = [lg for lg in enumerate_level_graphs(rel) if lg.levels == (0, -2, -1)]
    verdict = grc_admissible(bad[0], residues)
    assert verdict.status == "inadmissible"
    assert "nonzero" in verdict.reason


def test_grc_monotone_in_residue_knowledge():
    rank = {"inadmissible": 0, "indeterminate": 1, "admissible": 2}
    rng = random.Random(23)
    cases = 0
    while cases < 200:
        n = rng.randint(2, 4)
        vertices = [
            Vertex(
                rng.randint(0, 2),
                frozenset(),
                rng.random() < 0.3,
                rng.choice(["yes", "no", "unknown"]),
            )
            for _ in range(n)
        ]
        edges = [
            Edge(i, rng.randrange(i), rng.choice([-2, 0, 2, -4]), 0)
            for i in range(1, n)
        ]
        edges = [Edge(e.a, e.b, e.ord_a, -4 - e.ord_a) for e in edges]
        graph = DualGraph(2, vertices, edges)
        try:
            rel = validate_twisted(graph)
        except (MixedEdgeOrders, DirectedLoop):
            continue
        for lg in enumerate_level_graphs(rel):
            states = {}
            for ei, e in enumerate(graph.edges):
                for side, vtx in (("a", e.a), ("b", e.b)):
                    states[(ei, side)] = rng.choice(["zero", "nonzero", "unknown"])
            before = grc_admissible(lg, ResidueState(states))
            for key, value in states.items():
                if value != "nonzero":
                    continue
                relaxed = dict(states)
                relaxed[key] = "unknown"
                after = grc_admissible(lg, ResidueState(relaxed))
                assert rank[after.status] >= rank[before.status]
                cases += 1
    assert cases >= 200


def test_pnk_base_cases():
    assert eval_pnk([3, 4], 1) == 7
    assert abs(eval_pnk([5], 2) + 5) < 1e-9
    assert abs(eval_pnk([1, 1], 2)) < 1e-9


def test_pnk_budget():
    with pytest.raises(BudgetExceeded):
        eval_pnk([1, 1, 1, 1, 1, 1, 1], 4)  # 4^7 > 4096
    eval_pnk([1, 1, 1], 4)
    eval_pnk([1, 1, 1, 1, 1, 1, 1], 4, budget=4**7)
    # the bit-length bound refuses exactly when k^n > budget, with the
    # message that prints k^n
    for k in range(1, 10):
        for n in range(6):
            for budget in (-1, 0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 511, 512, 600):
                try:
                    eval_pnk([0] * n, k, budget=budget)
                except BudgetExceeded as exc:
                    assert k**n > budget, (k, n, budget)
                    assert str(exc) == "k^n = %d exceeds the configured budget %d" % (k**n, budget)
                else:
                    assert k**n <= budget, (k, n, budget)
    # a power too large to print is refused by its bit count, unbuilt
    class Unpowered(int):
        def __pow__(self, other):
            raise AssertionError("k^n was built")

    for k, n in ((10**3999, 2), (10**3999, 100_000), (2**20_000, 1)):
        with pytest.raises(BudgetExceeded, match=r"^k\^n, of over \d+ bits, exceeds"):
            eval_pnk([1] * n, Unpowered(k))
    with pytest.raises(BudgetExceeded, match=r"^k\^n = 1\d{3999} exceeds"):
        eval_pnk([1], 10**3999)


def exact_pnk(residues, k):
    """P_{n,k} for integer residues, exactly: the norm of y_1 + ... + y_n in
    Z[y_1..y_n]/(y_i^k - R_i), the determinant of multiplication by it on
    the k^n monomials y^e, 0 <= e_i < k.  Its eigenvalues are the root sums,
    a zero residue counted as a k-fold root 0, so the determinant is their
    product."""
    n = len(residues)
    basis = list(product(range(k), repeat=n))
    pos = {e: row for row, e in enumerate(basis)}
    size = len(basis)
    m = [[0] * size for _ in range(size)]
    for col, e in enumerate(basis):
        for i, r in enumerate(residues):
            f = list(e)
            f[i] += 1
            c = 1
            if f[i] == k:  # y_i^k = R_i
                f[i], c = 0, r
            m[pos[tuple(f)]][col] += c
    # Bareiss elimination: integer entries, every division exact
    sign, prev = 1, 1
    for p in range(size):
        if m[p][p] == 0:
            swap = next((r for r in range(p + 1, size) if m[r][p]), None)
            if swap is None:
                return 0
            m[p], m[swap] = m[swap], m[p]
            sign = -sign
        for r in range(p + 1, size):
            for c in range(p + 1, size):
                m[r][c] = (m[r][c] * m[p][p] - m[r][p] * m[p][c]) // prev
        prev = m[p][p]
    return sign * m[-1][-1]


def test_pnk_matches_exact_norm():
    assert exact_pnk([3, 4], 1) == 7
    assert exact_pnk([5], 2) == -5
    assert exact_pnk([1, 1], 2) == 0
    # (sqrt2 + sqrt3)(sqrt2 - sqrt3)(-sqrt2 + sqrt3)(-sqrt2 - sqrt3) = (2 - 3)^2
    assert exact_pnk([2, 3], 2) == 1
    rng = random.Random(5)
    cases = zeros = 0
    for k in range(1, 9):
        for n in range(1, 7):
            if k**n > 64:
                continue
            for _ in range(6):
                R = [rng.randint(-3, 3) for _ in range(n)]
                exact = exact_pnk(R, k)
                assert abs(eval_pnk(R, k) - exact) <= 1e-9 * max(1, abs(exact)), (R, k)
                cases += 1
                zeros += exact == 0
    assert cases == 156 and zeros > 5
    # rational residues p_i/q: P_{n,k} is homogeneous of degree k^(n-1) in
    # the R_i, so P_{n,k}(p/q) = q^(-k^(n-1)) P_{n,k}(p)
    # (1 + sqrt2)(1 - sqrt2)(-1 + sqrt2)(-1 - sqrt2) = (1 - 2)^2
    assert exact_pnk([1, 2], 2) == 1
    assert eval_pnk([Fraction(1, 3), Fraction(2, 3)], 2) == pytest.approx(Fraction(1, 9))
    cases = 0
    for k in range(1, 9):
        for n in range(1, 7):
            if k**n > 64:
                continue
            for _ in range(4):
                q = rng.randint(2, 5)
                p = [rng.choice([x for x in range(-7, 8) if x % q]) for _ in range(n)]
                exact = Fraction(exact_pnk(p, k), q ** (k ** (n - 1)))
                value = eval_pnk([Fraction(x, q) for x in p], k)
                assert abs(value - exact) <= 1e-9 * max(1, abs(exact)), (p, q, k)
                cases += 1
    assert cases == 104


def test_pnk_permutation_symmetry():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        R = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        base = eval_pnk(R, k)
        perm = list(R)
        rng.shuffle(perm)
        other = eval_pnk(perm, k)
        assert abs(base - other) <= 1e-9 * max(1.0, abs(base))


def test_pnk_conjugation_and_determinism():
    # conjugating all inputs conjugates the value (the root sets conjugate)
    rng = random.Random(9)
    for _ in range(30):
        k = rng.randint(2, 4)
        n = rng.randint(1, 3)
        R = [complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)) for _ in range(n)]
        base = eval_pnk(R, k)
        conj = eval_pnk([z.conjugate() for z in R], k)
        assert abs(conj - base.conjugate()) <= 1e-9 * max(1.0, abs(base))
        assert eval_pnk(R, k) == base  # deterministic
