import gc
import importlib
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qstrata import (
    BoundaryIndex,
    BudgetExceeded,
    CurveFunctional,
    DivisorClass,
    DimensionMismatch,
    InvalidIndex,
    WrongGenus,
    boundary_class,
    canonical_boundary_indices,
    canonicalize_index,
    curve_functional,
    delta0_class,
    g2_normal_form,
    lambda_class,
    logan_class,
    pair,
    qg_class,
)
from qstrata import picard
from qstrata.picard import (
    _MAX_DENSE_ENTRIES,
    OrbitTable,
    _PicardVector,
    _class_is_valid,
    boundary_term,
    format_rational,
    genus1_boundary_sum,
    orbit_key,
    parse_rational,
    psi_class,
    weight_table,
)
from qstrata.testcurves import TestCurveSpec as CurveSpec


def _coeffs(v):
    """Every coefficient of a class or functional, the boundary as its dense view."""
    return (v.lam, v.psi, v.delta0, v.boundary)


def test_canonical_indices_keep_no_label_set():
    # a plain and a mirrored index on spaces with about 200,000 labels: once
    # the results are dropped, no set of the n labels stays alive
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(200_001, 200_004):
            assert canonicalize_index(3, n, 1, (1, 2)) == (1, (1, 2))
            assert len(canonicalize_index(3, n, 2, (1, 2)).points) == n - 2
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20, kept


def test_canonicalize_examples():
    assert canonicalize_index(2, 2, 1, {2}) == BoundaryIndex(1, (1,))
    assert canonicalize_index(3, 4, 2, ()) == BoundaryIndex(1, (1, 2, 3, 4))
    with pytest.raises(InvalidIndex):
        canonicalize_index(2, 2, 0, {1})


def test_canonicalize_rejects_bad_input():
    with pytest.raises(InvalidIndex):
        canonicalize_index(3, 4, 5, {1})
    with pytest.raises(InvalidIndex):
        canonicalize_index(3, 4, 1, {9})
    with pytest.raises(InvalidIndex):
        canonicalize_index(3, 4, 0, ())
    with pytest.raises(InvalidIndex):
        canonicalize_index(3, 4, 3, {1, 2, 3})
    # a repeated label is refused, not collapsed into delta_{1:{1,2}}
    with pytest.raises(InvalidIndex):
        canonicalize_index(3, 4, 1, [1, 1, 2])


def test_boundary_term_routing():
    kind, j = boundary_term(3, 4, 0, {2})
    assert (kind, j) == ("psi", 2)
    kind, j = boundary_term(3, 4, 3, {1, 2, 3})
    assert (kind, j) == ("psi", 4)
    assert boundary_term(3, 4, 0, ()) == ("zero", None)
    assert boundary_term(3, 4, 3, {1, 2, 3, 4}) == ("zero", None)
    kind, idx = boundary_term(3, 4, 1, {1})
    assert kind == "delta" and idx == BoundaryIndex(1, (1,))
    with pytest.raises(InvalidIndex):
        boundary_term(3, 4, 7, {1})


def test_canonical_enumeration_has_no_duplicates():
    for g, n in ((2, 1), (2, 2), (3, 4), (4, 3)):
        indices = canonical_boundary_indices(g, n)
        assert len(indices) == len(set(indices))
        for idx in indices:
            assert canonicalize_index(g, n, idx.i, idx.points) == idx


def test_canonical_indices_are_counted_before_listing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    for g in range(2, 10):
        for n in range(1, 11):
            count = workloads.index_count(g, n)
            assert len(canonical_boundary_indices(g, n)) == count, (g, n)
            # the limit set to the count lists them all, one below refuses
            monkeypatch.setattr(picard, "_MAX_DENSE_ENTRIES", count)
            assert len(canonical_boundary_indices(g, n)) == count, (g, n)
            monkeypatch.setattr(picard, "_MAX_DENSE_ENTRIES", count - 1)
            with pytest.raises(BudgetExceeded):
                canonical_boundary_indices(g, n)
            monkeypatch.undo()
    # the benchmark's counts are listed; 1,572,843 indices at (2, 20) and
    # about 1.6 * 10^12 at (2, 40) are refused before any is listed
    for g, count in workloads.INDEX_COUNT.items():
        assert len(canonical_boundary_indices(g, 2 * g - 2)) == count
    for n in (20, 40):
        assert workloads.index_count(2, n) > _MAX_DENSE_ENTRIES
        with pytest.raises(BudgetExceeded):
            canonical_boundary_indices(2, n)


def test_psi_class_refuses_labels_outside_range():
    assert psi_class(3, 4, 4).psi == (0, 0, 0, 1) and psi_class(3, 4, 1).psi == (1, 0, 0, 0)
    for j in (0, -1, 5):
        with pytest.raises(InvalidIndex, match=r"^psi index %d outside 1\.\.4$" % j):
            psi_class(3, 4, j)


def test_add_scale_examples():
    q2 = qg_class(2)
    assert q2.scale(0).is_zero()
    assert q2.add(q2.scale(-1)).is_zero()
    doubled = logan_class(2, 2, (1, 1)).add(logan_class(2, 2, (1, 1)))
    assert doubled.psi == (Fraction(2), Fraction(2))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        qg_class(2).add(qg_class(3))
    with pytest.raises(DimensionMismatch):
        CurveFunctional(2, 2).pair(qg_class(3))


def test_pair_examples():
    zero = CurveFunctional(3, 4)
    assert pair(zero, qg_class(3)) == 0
    assert pair(curve_functional(CurveSpec("A", 3, 1, 2)), qg_class(3)) == 0
    assert pair(curve_functional(CurveSpec("A", 3, 2, 2)), qg_class(3)) == 64


def test_g2_normal_form_of_lambda():
    nf = g2_normal_form(lambda_class(2, 2))
    assert nf.lam == 0
    assert nf.delta0 == Fraction(1, 10)
    assert nf.boundary_coeff(1, {1}) == Fraction(1, 5)
    assert nf.boundary_coeff(1, {1, 2}) == Fraction(1, 5)
    assert _coeffs(g2_normal_form(nf)) == _coeffs(nf)


def test_g2_normal_form_fixes_delta0():
    d = delta0_class(2, 2)
    assert _coeffs(g2_normal_form(d)) == _coeffs(d)
    with pytest.raises(WrongGenus):
        g2_normal_form(delta0_class(3, 2))


def test_g2_pairing_blind_to_representative():
    f = curve_functional(CurveSpec("B", 2, 1, 0))
    d = qg_class(2)
    assert pair(f, d) == pair(f, g2_normal_form(d))


def test_equals():
    a = qg_class(3)
    assert a.equals(a)
    rhs = delta0_class(2, 2).scale(Fraction(1, 10)).add(
        boundary_class(2, 2, 1, {1}).scale(Fraction(1, 5))
    ).add(boundary_class(2, 2, 1, {1, 2}).scale(Fraction(1, 5)))
    assert lambda_class(2, 2).equals(rhs)
    assert not lambda_class(3, 2).equals(delta0_class(3, 2))


def test_rational_format():
    assert format_rational(Fraction(-64)) == "-64/1"
    assert parse_rational("-64/1") == -64
    assert parse_rational("3/6") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(TypeError):
        parse_rational(0.5)  # a JSON number, not a string rational


def _no_dense(self):
    raise AssertionError("a dense view was built")


def test_repr_builds_no_dense_view(monkeypatch):
    # qg at g = 10 would list 1,310,703 dense entries, past the limit
    monkeypatch.setattr(OrbitTable, "dense", _no_dense)
    q = qg_class(10)
    assert repr(q) == (
        "DivisorClass(g=10, n=18, lambda=-1048576/1, delta0=65536/1, group_sizes=(18,), orbit_keys=%d)"
        % len(q.orbits.coeffs))


def test_reads_leave_the_vector_unchanged():
    # get, pair, equals, boundary and to_json write nothing into a vector,
    # and nothing into its table but the orbit-code layout, set once
    g2 = DivisorClass(2, 2, lam=3, psi=(1, 2), boundary={(1, (1,)): 1, (0, (1, 2)): 5})
    vectors = [qg_class(3), logan_class(3, 4, (3, 0, 0, 0)), g2,
               curve_functional(CurveSpec("A", 3, 1, 2)), curve_functional(CurveSpec("B", 2, 1, 1))]

    def state(v):
        table = v.orbits
        slots = {s: getattr(v, s) for s in _PicardVector.__slots__}
        kept = {s: getattr(table, s) for s in OrbitTable.__slots__ if s != "_code"}
        return slots, kept, dict(table.coeffs)

    for v in vectors:
        # v pairs with the first vector of the other kind on its space
        is_f = isinstance(v, CurveFunctional)
        u = next(u for u in vectors if u.g == v.g and isinstance(u, CurveFunctional) != is_f)
        f, d = (v, u) if is_f else (u, v)
        copy = type(v).from_jsonable(v.to_jsonable())
        slots, kept, coeffs = state(v)
        layout = None
        reads = [lambda: v.orbits.get(next(iter(v.boundary))), lambda: f.pair(d),
                 lambda: v == copy and copy == v and v == v, lambda: v.boundary, v.to_json]
        for read in reads:
            read()
            now_slots, now_kept, now_coeffs = state(v)
            assert all(now_slots[s] is slots[s] for s in slots), (v, read)
            assert all(now_kept[s] is kept[s] for s in kept), (v, read)
            assert now_coeffs == coeffs, (v, read)
            layout = layout or v.orbits._code
            assert v.orbits._code is layout, (v, read)
        assert layout is not None


def test_fraction_subclass_kept():
    class Half(Fraction):
        pass

    x = Half(1, 2)
    d = DivisorClass(2, 1, lam=x)
    assert d.lam is x and d.lam == Fraction(1, 2)


def test_coefficients_must_be_exact():
    with pytest.raises(TypeError):
        DivisorClass(2, 1, lam=0.1)
    with pytest.raises(TypeError):
        DivisorClass(2, 1, psi=(0.5,))


def test_size_limits_refuse_before_allocating():
    def unread():
        raise AssertionError("the weights were read")
        yield

    # n labels within the limit, but at least (g + 1)(n + 1) orbit keys
    g = 500_000
    with pytest.raises(BudgetExceeded):
        weight_table(g, 2 * g - 2, unread())[0]
    # more labels than the limit: no space, class or functional
    n = _MAX_DENSE_ENTRIES + 1
    for build in (lambda: DivisorClass(2, n),
                  lambda: weight_table(2, n, unread())[0], lambda: boundary_term(2, n, 1, ())):
        with pytest.raises(BudgetExceeded):
            build()


@pytest.mark.parametrize("g", range(2, 9))
def test_orbit_keys_are_the_full_walk_filtered(g):
    # keys() walks only i <= g // 2; the walk over every i in 0..g, kept
    # to the canonical valid keys, gives the same keys in the same order
    rng = random.Random(g)
    for _ in range(5):
        weights = [rng.randint(0, 3) for _ in range(rng.randint(1, 7))]
        table = weight_table(g, len(weights), weights)[0]
        full = [(i, counts) for i in range(g + 1)
                for counts in product(*(range(z + 1) for z in table.sizes))
                if _class_is_valid(g, table.n, i, sum(counts))
                and orbit_key(g, table.sizes, i, counts) == (i, counts)]
        assert list(table.keys()) == full, weights


def test_orbit_keys_refuse_the_full_walk_size():
    # (g + 1) * 2^18 keys over the limit, though the walk visits half of them
    with pytest.raises(BudgetExceeded):
        next(weight_table(3, 18, range(18))[0].keys())


def test_json_schema_shape():
    d = qg_class(3).to_jsonable()
    assert d["lambda"] == "-64/1"
    assert d["psi"] == ["24/1"] * 4
    assert d["delta0"] == "4/1"
    assert {"i": 1, "S": [1], "c": "8/1"} in d["boundary"]
    keys = [(e["i"], tuple(e["S"])) for e in d["boundary"]]
    assert keys == sorted(keys)


def test_json_boundary_entries_accumulate_across_mirrors():
    d = DivisorClass.from_jsonable(
        {
            "g": 2,
            "n": 2,
            "lambda": "0/1",
            "psi": ["0/1", "0/1"],
            "delta0": "0/1",
            "boundary": [
                {"i": 1, "S": [1], "c": "1/1"},
                {"i": 1, "S": [2], "c": "1/1"},
            ],
        }
    )
    assert d.boundary_coeff(1, {1}) == 2


@pytest.mark.parametrize("boundary, want", [
    ({(2, (1,)): 1}, lambda: boundary_class(3, 4, 1, (2, 3, 4))),  # its mirror
    ({(1, (1, 2)): 1, (2, (3, 4)): 2}, lambda: boundary_class(3, 4, 1, (1, 2)).scale(3)),  # one divisor, twice
    ({(1, (1, 1)): 1}, "marked points [1, 1] repeat a label"),
    ({(0, (1,)): 1}, "(i=0, S=[1]) is not a boundary divisor on Mbar_{3,4}"),  # not -psi_1
    ({(0, (7, 9)): 1}, "is not one of the labels 1..4"),
], ids=["mirror", "named twice", "repeated label", "genus 0, one label", "labels past n"])
def test_dense_input_is_checked_as_class_files_are(boundary, want):
    # boundary= takes the class-file reader's checked walk: the same entries
    # read as the same class, or raise the same error, either way
    doc = dict(DivisorClass(3, 4).to_jsonable(),
               boundary=[{"i": i, "S": list(S), "c": "%d/1" % c} for (i, S), c in boundary.items()])
    if isinstance(want, str):
        with pytest.raises(InvalidIndex) as read:
            DivisorClass.from_jsonable(doc)
        with pytest.raises(InvalidIndex) as built:
            DivisorClass(3, 4, boundary=boundary)
        assert want in str(read.value) and str(built.value) == str(read.value)
        return
    d, want = DivisorClass(3, 4, boundary=boundary), want()
    assert d == want and d.to_json() == want.to_json() == DivisorClass.from_jsonable(doc).to_json()
    assert [e["c"] for e in d.to_jsonable()["boundary"]] == ["%d/1" % sum(boundary.values())]  # one row


@pytest.mark.parametrize("key, error", [
    ((1, frozenset({2, 1})), None),
    ((1, range(1, 3)), None),
    ((1.5, 5), "'int' object is not iterable"),  # S is listed before i is checked
    ((1, 5), "'int' object is not iterable"),
    ((1.5, (1, 2)), "expected an integer, got 1.5"),
    ((1, "12"), "expected an integer, got '1'"),
])
def test_dense_keys_that_are_no_tuple_read_as_lists(key, error):
    # boundary= takes a tuple S as it is and lists any other S, as it always
    # has: an iterable reads as its labels, and the errors keep their order
    if error is None:
        assert DivisorClass(3, 4, boundary={key: 1}) == boundary_class(3, 4, 1, (1, 2))
        return
    with pytest.raises(TypeError) as built:
        DivisorClass(3, 4, boundary={key: 1})
    assert str(built.value) == error


def test_boundary_and_orbits_are_refused_together():
    # the table would win and the dense entries be lost
    with pytest.raises(TypeError, match="not both"):
        DivisorClass(3, 4, boundary={(1, (1,)): 5}, orbits=OrbitTable(3, 4, [(1, 2, 3, 4)]))
    with pytest.raises(TypeError, match="not both"):
        CurveFunctional(3, 4, boundary={}, orbits=OrbitTable(3, 4, [(1, 2, 3, 4)]))


def test_functional_json_tag():
    f = curve_functional(CurveSpec("B", 3, 1, 0))
    d = f.to_jsonable()
    assert d["functional"] is True
    again = CurveFunctional.from_jsonable(d)
    assert again == f


# -- randomized properties ---------------------------------------------------


small_gn = st.tuples(st.integers(2, 4), st.integers(1, 5))


@st.composite
def boundary_pairs(draw):
    g, n = draw(small_gn)
    i = draw(st.integers(0, g))
    S = frozenset(draw(st.sets(st.integers(1, n))))
    # the labels cut into runs, one label group each
    cuts = sorted(draw(st.sets(st.integers(1, n + 1))) | {1, n + 1})
    groups = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    return g, n, i, S, groups


@settings(max_examples=200, deadline=None)
@given(boundary_pairs())
def test_involution_and_idempotence(data):
    g, n, i, S, groups = data
    comp = frozenset(range(1, n + 1)) - S

    # orbit_key names (i, counts) and its mirror by the smaller of the two
    sizes = tuple(map(len, groups))
    counts = tuple(len(S.intersection(grp)) for grp in groups)
    mirror = (g - i, tuple(z - c for z, c in zip(sizes, counts)))
    assert orbit_key(g, sizes, i, counts) == orbit_key(g, sizes, *mirror) == min((i, counts), mirror)
    try:
        term = boundary_term(g, n, i, S)
    except InvalidIndex:
        term = None
    try:
        idx = canonicalize_index(g, n, i, S)
    except InvalidIndex:
        # raised exactly when boundary_term names no divisor
        assert term is None or term[0] in ("psi", "zero")
        with pytest.raises(InvalidIndex):
            canonicalize_index(g, n, g - i, comp)
        return
    assert term == ("delta", idx)
    assert canonicalize_index(g, n, g - i, comp) == idx
    assert canonicalize_index(g, n, idx.i, idx.points) == idx


# built once: constructing strategies inside every draw dominated the run time
index_lists = {
    (g, n): st.lists(st.sampled_from(canonical_boundary_indices(g, n)), unique=True, max_size=4)
    for g in range(2, 5)
    for n in range(1, 6)
}


def draw_fraction(draw, bound, max_denominator):
    """Any fraction in [-bound, bound] with denominator <= max_denominator."""
    q = draw(st.integers(1, max_denominator))
    return Fraction(draw(st.integers(-bound * q, bound * q)), q)


@st.composite
def random_class(draw, g=None, n=None, cls=DivisorClass):
    if g is None or n is None:
        g, n = draw(small_gn)
    chosen = draw(index_lists[(g, n)])
    return cls(
        g,
        n,
        draw_fraction(draw, 50, 8),
        tuple(draw_fraction(draw, 50, 8) for _ in range(n)),
        draw_fraction(draw, 50, 8),
        {idx: draw_fraction(draw, 50, 8) for idx in chosen},
    )


@st.composite
def functional_and_two_classes(draw):
    g, n = draw(small_gn)
    f = draw(random_class(g=g, n=n, cls=CurveFunctional))
    a = draw(random_class(g=g, n=n))
    b = draw(random_class(g=g, n=n))
    r = draw_fraction(draw, 20, 6)
    return f, a, b, r


@settings(max_examples=200, deadline=None)
@given(functional_and_two_classes())
def test_pairing_bilinearity(data):
    f, a, b, r = data
    assert pair(f, a.add(b.scale(r))) == pair(f, a) + r * pair(f, b)


@settings(max_examples=200, deadline=None)
@given(random_class())
def test_json_round_trip(d):
    again = DivisorClass.from_json(d.to_json())
    assert _coeffs(again) == _coeffs(d)
    assert again.equals(d)


def test_picard_refusals():
    with pytest.raises(DimensionMismatch):
        weight_table(3, 4, (1, 1, 1))[0]  # three weights for four labels
    with pytest.raises(DimensionMismatch):
        DivisorClass(3, 4, psi=[1, 1])  # a dense psi has one entry per label
    with pytest.raises(DimensionMismatch):
        DivisorClass(3, 4, psi=[1, 1], orbits=weight_table(3, 4, (1, 1, 1, 1))[0])  # one per group
    d = qg_class(3)
    for j in (0, d.n + 1):
        with pytest.raises(InvalidIndex):
            d.psi_coeff(j)
    with pytest.raises(WrongGenus):
        genus1_boundary_sum(3, 4)


def test_divisor_class_eq_operator():
    d = qg_class(3)
    assert d == DivisorClass.from_json(d.to_json())
    assert not d != DivisorClass.from_json(d.to_json())
    assert d != d.add(lambda_class(3, 4)) and not d == d.add(lambda_class(3, 4))
    # another type is never equal, a functional on the same space included
    f = curve_functional(CurveSpec("A", 3, 1, 2))
    assert d != 5 and d != f and f != d and not d == f
    # genus 2: lambda = delta_0/10 + (genus-1 classes)/5, so classes are equal
    # exactly when their normal forms are
    for n in (1, 3):
        relation = delta0_class(2, n).scale(Fraction(1, 10)).add(
            genus1_boundary_sum(2, n).scale(Fraction(1, 5)))
        assert lambda_class(2, n) == relation and lambda_class(2, n) == g2_normal_form(lambda_class(2, n))
        assert lambda_class(2, n) != delta0_class(2, n)
        assert lambda_class(2, n) != relation.add(boundary_class(2, n, 1, [1]))


def test_genus2_equality_moves_one_side(monkeypatch):
    # a per-label class on 19 labels: equal lambdas need no move along the
    # relation, so it equals itself and its JSON copy; a lambda that differs
    # moves one side over a per-label table of 3 * 2^19 orbit keys, refused
    a = DivisorClass(2, 19, lam=1, boundary={(0, (1, 2, 3)): 1})
    assert a.orbits.sizes == (1,) * 19
    assert a == a and a == DivisorClass.from_json(a.to_json())
    b = DivisorClass(2, 19, lam=2, boundary={(0, (1, 2, 3)): 1})
    for x, y in ((a, b), (b, a)):
        with pytest.raises(BudgetExceeded):
            x.equals(y)
    # one relation table per comparison, none when the lambdas agree
    relation = delta0_class(2, 3).scale(Fraction(1, 10)).add(genus1_boundary_sum(2, 3).scale(Fraction(1, 5)))
    made, from_terms = [], DivisorClass.from_terms

    def counted(cls, *args):
        made.append(args)
        return from_terms(*args)

    monkeypatch.setattr(DivisorClass, "from_terms", classmethod(counted))
    for x, y, moves in ((relation, relation, 0), (lambda_class(2, 3), relation, 1),
                        (relation, lambda_class(2, 3), 1)):
        made.clear()
        assert x == y and len(made) == moves


def test_boundary_class_holds_two_label_groups():
    # delta_{i:S} is one orbit over the groups S and S^c, ordered by smallest
    # label, and prints as the dense input route prints it
    for g, n, i, S, groups in [
        (3, 4, 1, (2, 3), ((1, 4), (2, 3))),
        (3, 4, 1, (), ((1, 2, 3, 4),)),
        (3, 4, 3, (2, 4), ((1, 3), (2, 4))),  # the mirror of (0, {1, 3})
        (3, 4, 0, (1, 2, 3, 4), ((1, 2, 3, 4),)),
        (4, 4, 2, (3, 4), ((1, 2), (3, 4))),  # a tie keeps the side holding 1
        (4, 5, 2, (2, 5), ((1, 3, 4), (2, 5))),
        (4, 3, 2, (2,), ((1, 3), (2,))),
    ]:
        b, idx = boundary_class(g, n, i, S), canonicalize_index(g, n, i, S)
        ref = DivisorClass(g, n, boundary={idx: 1})
        assert b.orbits.groups == groups, (g, n, i, S)
        assert b.boundary == {idx: 1} and b.to_json() == ref.to_json()
        assert b == ref and ref == b and (b.lam, b.delta0, set(b.psi)) == (0, 0, {0})
    with pytest.raises(InvalidIndex):
        boundary_class(3, 4, 0, (1,))

    # on Mbar_{2,20000} the dense input route gave one group per label, and
    # a peak of about 33 MB under tracemalloc
    start = time.perf_counter()
    b = boundary_class(2, 20000, 0, (1, 2, 3))
    assert time.perf_counter() - start < 0.1
    tracemalloc.start()
    boundary_class(2, 20000, 0, (1, 2, 3))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 10_000_000
    assert b.orbits.sizes == b.add(delta0_class(2, 20000)).orbits.sizes == (3, 19997)
    assert b.to_json() == DivisorClass(2, 20000, boundary={(0, (1, 2, 3)): 1}).to_json()


def test_functional_files_read_only_as_functionals():
    # the CLI tests cover the other refused array fields
    f = curve_functional(CurveSpec("A", 3, 1, 2))
    with pytest.raises(TypeError):
        DivisorClass.from_jsonable(f.to_jsonable())
    assert CurveFunctional.from_jsonable(f.to_jsonable()) == f
    # a top level that is no JSON object fails at d["g"], before any .get
    for top in ([1, 2], "functional", 5, None):
        with pytest.raises(TypeError):
            DivisorClass.from_jsonable(top)
