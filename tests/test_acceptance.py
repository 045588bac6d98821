"""Acceptance gate: one test per criterion, one printed verdict line each.

Exact-arithmetic checks carry zero tolerance; the numeric root-sum
product checks use 1e-9 relative tolerance.
"""

import functools
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from qstrata import (
    CurveFunctional,
    DivisorClass,
    DualGraph,
    QdInput,
    ResidueState,
    Signature,
    audit,
    canonical_boundary_indices,
    canonicalize_index,
    curve_functional,
    delta0_class,
    enumerate_level_graphs,
    eval_pnk,
    grc_admissible,
    lambda_class,
    logan_class,
    multidegree,
    pair,
    qd_class,
    qg_class,
    quad_components,
    solve_qg_coefficients,
    valid_specs,
    validate_twisted,
    weierstrass_check,
    weierstrass_pullback,
)
from qstrata.cli import main as cli_main
from qstrata.picard import genus1_boundary_sum
from qstrata.errors import InvalidIndex

DATA = Path(__file__).parent / "data"


def _coeffs(v):
    """Every coefficient of a class or functional, the boundary as its dense view."""
    return (v.lam, v.psi, v.delta0, v.boundary)


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("criterion %02d %-26s FAIL" % (number, label))
                raise
            print("criterion %02d %-26s PASS" % (number, label))

        return run

    return wrap


@criterion(1, "qd/qg specialization")
def test_criterion_01_specialization():
    for g in (2, 3, 4, 5):
        uniform = qd_class(QdInput(g, 2 * g - 2, (1,) * (2 * g - 2)))
        assert uniform.equals(qg_class(g))


@criterion(2, "verified audit subset g=3")
def test_criterion_02_verified_subset():
    expected = {
        ("A", 1, 1): 32,
        ("A", 0, 2): 192,
        ("A", 1, 2): 0,
        ("A", 2, 2): 64,
        ("A", 1, 4): 144,
        ("A", 2, 4): 0,
        ("B", 1, 0): 0,
    }
    table = {(e.spec.family, e.spec.i, e.spec.s): e for e in audit(3).entries}
    for key, value in expected.items():
        entry = table[key]
        assert entry.pairing == value and entry.oracle == value and entry.match


@criterion(3, "audit transparency g=3")
def test_criterion_03_audit_transparency():
    report = audit(3)
    assert [e.spec for e in report.entries] == list(valid_specs(3))
    assert report.mismatches  # the printed data disagrees with itself
    bad = {(e.spec.family, e.spec.i, e.spec.s) for e in report.mismatches}
    assert ("A", 1, 3) in bad and ("A", 2, 3) in bad
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["audit", "--g", "3", "--json"])
    assert code == 3
    payload = json.loads(buf.getvalue())
    assert payload["total"] == len(report.entries)
    for row in payload["entries"]:
        assert "pairing" in row and "oracle" in row


@criterion(4, "coefficient solver")
def test_criterion_04_solver():
    for g in (2, 3, 4):
        sol = solve_qg_coefficients(g)
        assert sol.c_psi == 3 * Fraction(2) ** (2 * g - 3)
        for i in range(0, g + 1):
            for s in range(1, 2 * g - 2):
                got = sol.get(i, s)
                want = -(Fraction(2) ** (2 * g - 3)) * (s - 2 * i) * (s - 2 * i + 2)
                if got is None:
                    # only the genus-2 relation direction may stay undetermined
                    assert g == 2 and (i, s) == (1, 1)
                    continue
                assert got == want, (g, i, s)
        if g >= 3:
            assert sol.free == ()
    # at g=2 the relation-invariant combination is still pinned: the two
    # free slots satisfy c_{1:1} - c_{1:empty} = c_psi exactly
    sol2 = solve_qg_coefficients(2)
    assert set(sol2.free) == {(1, 0), (1, 1)}
    q2 = qg_class(2)
    assert q2.boundary_coeff(1, {1}) - q2.boundary_coeff(1, ()) == sol2.c_psi


@criterion(5, "weierstrass check")
def test_criterion_05_weierstrass():
    for g in (3, 4, 5):
        assert weierstrass_check(g)
        assert weierstrass_pullback(qg_class(g)).psi[0] == 18 * 4 ** (g - 2)


@criterion(6, "multidegree oracle")
def test_criterion_06_multidegree():
    rng = random.Random(2024)
    nonzero = [x for x in range(-6, 7) if x]
    for _ in range(20):
        h, k, d2, d3 = (rng.choice(nonzero) for _ in range(4))
        assert multidegree(2, (h, 2 * k)) == 8 * h * h * k * k
        assert multidegree(3, (d2, d3, 2 * k)) == 24 * k * k * d2 * d2 * d3 * d3


@criterion(7, "component classifier")
def test_criterion_07_classifier():
    def quad(m):
        return Signature(2, (sum(m) + 4) // 4, tuple(m))

    # the two genus-2 exceptions
    assert quad_components(quad((-1, -1, 6))).count == 2
    assert quad_components(quad((-1, -1, 3, 3))).count == 2
    # the three two-component families, all legal parameters, 3 <= g <= 6
    for g in range(3, 7):
        for t in range(0, g - 1):
            assert quad_components(quad((4 * (g - t) - 6, 4 * t + 2))).count == 2
        for t in range(0, g):
            mu = (2 * (g - t) - 3, 2 * (g - t) - 3, 4 * t + 2)
            assert quad_components(quad(mu)).count == 2
        for t in range(-1, g - 1):
            mu = (2 * (g - t) - 3, 2 * (g - t) - 3, 2 * t + 1, 2 * t + 1)
            assert quad_components(quad(mu)).count == 2
    # the four sporadic strata
    for mu in ((-1, 9), (-1, 3, 6), (-1, 3, 3, 3), (12,)):
        assert quad_components(quad(mu)).count == 2
    # twenty sampled higher-pole signatures with two primitive components
    rng = random.Random(77)
    samples = []
    while len(samples) < 20:
        shape = rng.choice(["2n-2", "2n-ll", "nn-2l", "nn-ll"])
        g = rng.randint(2, 6)
        if shape == "2n-2":
            mu = (4 * g - 2, -2)
        elif shape == "2n-ll":
            l = rng.choice([3, 5, 7])
            mu = (4 * g - 4 + 2 * l, -l, -l)
        elif shape == "nn-2l":
            n = 2 * g - 1 + rng.choice([2, 4])  # odd, above the pole order
            l = n - (2 * g - 2)
            mu = (n, n, -2 * l)
        else:
            l = rng.choice([3, 5])
            n = l + 2 * g - 2  # both odd
            mu = (n, n, -l, -l)
        if min(mu) > -2:
            continue
        out = quad_components(quad(mu))
        assert out.count == 2 and out.kind == "PrimitiveOnly", mu
        samples.append(mu)
    # the irreducibility family: (d1,d2,d3,2^(2g-3)), nonzero, some odd
    for g in range(2, 7):
        tail = (2,) * (2 * g - 3)
        for d1 in range(-4, 7):
            for d2 in range(-4, 7):
                d3 = 2 - d1 - d2
                if 0 in (d1, d2, d3) or abs(d3) > 6:
                    continue
                if not any(x % 2 for x in (d1, d2, d3)):
                    continue
                assert quad_components(quad((d1, d2, d3) + tail)).count == 1


@criterion(8, "level-graph examples")
def test_criterion_08_level_graphs():
    graph, residues = DualGraph.from_json((DATA / "ex1.json").read_text())
    level_graphs = enumerate_level_graphs(validate_twisted(graph))
    assert len(level_graphs) == 1
    verdict = grc_admissible(level_graphs[0], residues)
    assert verdict.admissible
    assert any("res^2 = 0 at edge 0" in c for c in verdict.conditions)

    graph, residues = DualGraph.from_json((DATA / "ex2.json").read_text())
    level_graphs = enumerate_level_graphs(validate_twisted(graph))
    assert len(level_graphs) == 3
    verdicts = {lg.levels: grc_admissible(lg, residues) for lg in level_graphs}
    assert sum(v.admissible for v in verdicts.values()) == 2
    assert verdicts[(0, -1, -1)].admissible  # tails on one level: scaling
    assert verdicts[(0, -1, -2)].admissible  # vanishing k-residue recorded
    assert not verdicts[(0, -2, -1)].admissible  # nonzero k-residue on top


@criterion(9, "root-sum product values")
def test_criterion_09_pnk():
    rng = random.Random(55)
    a, b = complex(rng.uniform(-3, 3)), complex(rng.uniform(-3, 3))
    assert abs(eval_pnk([a, b], 1) - (a + b)) <= 1e-9 * max(1.0, abs(a + b))
    r = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
    assert abs(eval_pnk([r], 2) + r) <= 1e-9 * max(1.0, abs(r))
    assert abs(eval_pnk([1, 1], 2)) <= 1e-9
    for _ in range(50):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        R = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        base = eval_pnk(R, k)
        perm = list(R)
        rng.shuffle(perm)
        assert abs(eval_pnk(perm, k) - base) <= 1e-9 * max(1.0, abs(base))


@criterion(10, "pointed Brill-Noether values")
def test_criterion_10_logan_and_negative_psi():
    cls = logan_class(2, 2, (1, 1))
    assert cls.lam == -1
    assert cls.psi == (1, 1)
    assert cls.delta0 == 0
    assert cls.boundary_coeff(0, {1, 2}) == -3
    for g in (2, 3, 4):
        for position in (0, 1):
            d = [0] * 2
            d[position] = -1
            d[1 - position] = 2 * g - 1
            cls = qd_class(QdInput(g, 2, tuple(d)))
            assert cls.psi[position] == -(Fraction(2) ** (2 * g - 3))


@criterion(11, "randomized property suites")
def test_criterion_11_property_suites():
    rng = random.Random(4242)

    def random_vector(g, n, cls):
        coeff = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        indices = canonical_boundary_indices(g, n)
        boundary = {idx: coeff() for idx in rng.sample(indices, k=min(3, len(indices)))}
        return cls(g, n, coeff(), tuple(coeff() for _ in range(n)), coeff(), boundary)

    # pairing bilinearity
    for _ in range(200):
        g, n = rng.randint(2, 4), rng.randint(1, 5)
        f = random_vector(g, n, CurveFunctional)
        a = random_vector(g, n, DivisorClass)
        b = random_vector(g, n, DivisorClass)
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert pair(f, a.add(b.scale(r))) == pair(f, a) + r * pair(f, b)

    # canonicalization involution + idempotence
    done = 0
    while done < 200:
        g, n = rng.randint(2, 5), rng.randint(1, 6)
        i = rng.randint(0, g)
        S = frozenset(rng.sample(range(1, n + 1), k=rng.randint(0, n)))
        comp = frozenset(range(1, n + 1)) - S
        try:
            idx = canonicalize_index(g, n, i, S)
        except InvalidIndex:
            continue
        assert canonicalize_index(g, n, g - i, comp) == idx
        assert canonicalize_index(g, n, idx.i, idx.points) == idx
        done += 1

    # genus-2 pairing is blind to the Picard relation, for every test-curve
    # functional and random combinations of them
    relation = lambda_class(2, 2).sub(
        delta0_class(2, 2).scale(Fraction(1, 10))
    ).sub(genus1_boundary_sum(2, 2).scale(Fraction(1, 5)))
    functionals = [curve_functional(spec) for spec in valid_specs(2)]
    for f in functionals:
        assert pair(f, relation) == 0
    for _ in range(200):
        combo = CurveFunctional(2, 2)
        for f in functionals:
            combo = combo.add(f.scale(Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        assert pair(combo, relation) == 0

    # residue-knowledge monotonicity of the admissibility verdict
    from qstrata import Edge, Vertex
    from qstrata.errors import DirectedLoop, MixedEdgeOrders

    rank = {"inadmissible": 0, "indeterminate": 1, "admissible": 2}
    checked = 0
    while checked < 200:
        n = rng.randint(2, 4)
        vertices = [
            Vertex(rng.randint(0, 2), frozenset(), rng.random() < 0.3,
                   rng.choice(["yes", "no", "unknown"]))
            for _ in range(n)
        ]
        edges = []
        for i in range(1, n):
            ord_a = rng.choice([-2, 0, 2, -4])
            edges.append(Edge(i, rng.randrange(i), ord_a, -4 - ord_a))
        graph = DualGraph(2, vertices, edges)
        try:
            rel = validate_twisted(graph)
        except (MixedEdgeOrders, DirectedLoop):
            continue
        for lg in enumerate_level_graphs(rel):
            states = {
                (ei, side): rng.choice(["zero", "nonzero", "unknown"])
                for ei in range(len(edges))
                for side in ("a", "b")
            }
            before = grc_admissible(lg, ResidueState(states))
            for key, value in states.items():
                if value != "nonzero":
                    continue
                relaxed = dict(states)
                relaxed[key] = "unknown"
                after = grc_admissible(lg, ResidueState(relaxed))
                assert rank[after.status] >= rank[before.status]
                checked += 1

    # JSON round trip
    for _ in range(200):
        g, n = rng.randint(2, 4), rng.randint(1, 5)
        d = random_vector(g, n, DivisorClass)
        again = DivisorClass.from_json(d.to_json())
        assert _coeffs(again) == _coeffs(d)
