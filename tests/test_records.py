"""The contract of the 13 public records: repr, immutability, the checks of
the five validating ones (error type, message and the order they are made
in), keyword construction, list normalisation and TestCurveSpec's order."""

from fractions import Fraction

import pytest

from qstrata import (
    AuditEntry,
    AuditReport,
    BadInput,
    BadSignature,
    ComponentCount,
    DualGraph,
    Edge,
    GrcResult,
    InvalidSpec,
    LevelGraph,
    QdInput,
    QgSolution,
    ResidueState,
    Signature,
    TestCurveSpec as CurveSpec,
    TwistedOrderRelation,
    Vertex,
)

SPEC = CurveSpec("A", 3, 1, 2)
ENTRY = AuditEntry(SPEC, Fraction(1, 2), 3, False)
VERTEX = Vertex(0, frozenset({1}), False, "yes")
EDGE = Edge(0, 1, -1, -1)
GRAPH = DualGraph(1, [VERTEX, Vertex(1, frozenset(), False, "no")], [EDGE])


def _records():
    """(record, its repr, one of its fields) for each of the 13 records."""
    g = repr(GRAPH)
    return [
        (QdInput(3, 2, [2, 2]), "QdInput(g=3, n=2, d=(2, 2))", "d"),
        (
            QgSolution(2, Fraction(1, 2), {(1, 1): Fraction(3)}, ((1, 2),), 1, 2, 3, "x",
                       {("A", 1, 1): Fraction(0)}),
            "QgSolution(g=2, c_psi=Fraction(1, 2), coefficients={(1, 1): Fraction(3, 1)}, "
            "free=((1, 2),), rank=1, n_unknowns=2, n_equations=3, excluded='x', "
            "residuals={('A', 1, 1): Fraction(0, 1)})",
            "rank",
        ),
        (ENTRY,
         "AuditEntry(spec=TestCurveSpec(family='A', g=3, i=1, s=2), pairing=Fraction(1, 2), "
         "oracle=3, match=False)", "match"),
        (AuditReport(3, (ENTRY,)),
         "AuditReport(g=3, entries=(AuditEntry(spec=TestCurveSpec(family='A', g=3, i=1, s=2), "
         "pairing=Fraction(1, 2), oracle=3, match=False),))", "entries"),
        (SPEC, "TestCurveSpec(family='A', g=3, i=1, s=2)", "s"),
        (Signature(2, 2, [1, 1, 2]), "Signature(k=2, g=2, m=(1, 1, 2))", "m"),
        (ComponentCount(1, "FiniteArea", "x"),
         "ComponentCount(count=1, kind='FiniteArea', notes='x')", "count"),
        (VERTEX, "Vertex(genus=0, marked=frozenset({1}), has_marked_pole=False, is_kth_power='yes')",
         "genus"),
        (EDGE, "Edge(a=0, b=1, ord_a=-1, ord_b=-1)", "ord_a"),
        (ResidueState({(0, "a"): "zero"}), "ResidueState(states={(0, 'a'): 'zero'})", "states"),
        (TwistedOrderRelation(GRAPH, ((0, 1),), ()),
         "TwistedOrderRelation(graph=%s, same=((0, 1),), above=())" % g, "same"),
        (LevelGraph(GRAPH, (0, 0)), "LevelGraph(graph=%s, levels=(0, 0))" % g, "levels"),
        (GrcResult("admissible", ("c",)),
         "GrcResult(status='admissible', conditions=('c',), reason=None)", "reason"),
    ]


@pytest.mark.parametrize("index", range(13))
def test_record_repr_and_frozen(index):
    record, text, field = _records()[index]
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize(
    "build, kind, message",
    [
        # QdInput checks g, then the length, then the sum
        (lambda: QdInput(1, 3, (1,)), BadSignature, "need g >= 2"),
        (lambda: QdInput(3, 0, ()), BadSignature, "expected 0 entries, got 0"),
        (lambda: QdInput(3, 2, (4,)), BadSignature, "expected 2 entries, got 1"),
        (lambda: QdInput(3, 2, (1, 2)), BadSignature, "entries must sum to 2g-2=4, got 3"),
        # Signature checks k, then g, then the sum
        (lambda: Signature(0, -1, (1,)), BadSignature, "need k >= 1"),
        (lambda: Signature(2, -1, (1,)), BadSignature, "need g >= 0"),
        (lambda: Signature(2, 2, [1, 1]), BadSignature, "orders must sum to k(2g-2) = 4, got 2"),
        # TestCurveSpec checks the family, g, i, then s
        (lambda: CurveSpec("D", 1, 9, 9), InvalidSpec, "unknown family 'D'"),
        (lambda: CurveSpec("A", 1, 9, 9), InvalidSpec, "test curves need g >= 2"),
        (lambda: CurveSpec("A", 3, 5, 9), InvalidSpec, "i=5 outside [0, 3]"),
        (lambda: CurveSpec("A", 3, 1, 9), InvalidSpec, "family A with g=3, i=1 needs 1 <= s <= 4"),
        # Vertex checks the genus, then the power status
        (lambda: Vertex(-1, frozenset(), False, "maybe"), BadInput, "vertex genus must be >= 0"),
        (lambda: Vertex(0, frozenset(), False, "maybe"), BadInput,
         "is_kth_power must be one of ('yes', 'no', 'unknown')"),
        (lambda: LevelGraph(GRAPH, (0,)), BadInput, "1 levels given for 2 components"),
    ],
)
def test_validating_records_refuse(build, kind, message):
    with pytest.raises(kind) as info:
        build()
    assert str(info.value) == message


def test_keyword_construction_and_normalisation():
    v = Vertex(genus=1, marked=frozenset({2}), has_marked_pole=True, is_kth_power="unknown")
    assert v == Vertex(1, frozenset({2}), True, "unknown")
    assert (v.genus, v.marked, v.has_marked_pole, v.is_kth_power) == (1, {2}, True, "unknown")
    q = QdInput(g=3, n=2, d=[True, 3])
    assert q.d == (1, 3) and type(q.d) is tuple and all(type(x) is int for x in q.d)
    assert q == QdInput(3, 2, (1, 3)) and hash(q) == hash(QdInput(3, 2, (1, 3)))
    sig = Signature(k=2, g=2, m=[True, 1, 2])
    assert sig.m == (1, 1, 2) and type(sig.m) is tuple and all(type(x) is int for x in sig.m)
    assert (sig.n, sig.holomorphic) == (3, True)
    assert not Signature(2, 2, (5, -1)).holomorphic
    assert CurveSpec(family="B", g=3, i=1, s=1) == CurveSpec("B", 3, 1, 1)
    assert LevelGraph(graph=GRAPH, levels=(0, -1)).levels == (0, -1)
    assert GrcResult("inadmissible", (), "why").reason == "why"


def test_record_properties():
    good = AuditEntry(SPEC, Fraction(3), 3, True)
    assert AuditReport(3, (good,)).all_match and AuditReport(3, (good,)).mismatches == ()
    report = AuditReport(3, (good, ENTRY))
    assert report.mismatches == (ENTRY,) and not report.all_match
    assert GrcResult("admissible", ()).admissible
    assert not GrcResult("indeterminate", (), "x").admissible
    assert ResidueState({(0, "a"): "zero"}).get(0, "a") == "zero"
    assert ResidueState({}).get(0, "b") is None


def test_curve_spec_order_and_str():
    specs = [CurveSpec("C", 3, 0, 1), CurveSpec("A", 3, 2, 1), CurveSpec("B", 3, 0, 2),
             CurveSpec("A", 3, 1, 4), CurveSpec("A", 2, 1, 2), CurveSpec("A", 3, 1, 2)]
    ordered = sorted(specs)
    assert [str(s) for s in ordered] == [
        "A_{1:2} (g=2)", "A_{1:2} (g=3)", "A_{1:4} (g=3)", "A_{2:1} (g=3)",
        "B_{0:2} (g=3)", "C_{0:1} (g=3)",
    ]
    assert ordered == sorted(specs, key=lambda s: (s.family, s.g, s.i, s.s))
    assert CurveSpec("A", 3, 1, 2) < CurveSpec("A", 3, 1, 3) <= CurveSpec("A", 3, 1, 3)
    assert "%s . class" % (SPEC,) == "A_{1:2} (g=3) . class"
