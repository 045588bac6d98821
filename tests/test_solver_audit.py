import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from qstrata import DivisorClass, audit, pair, qg_class, solve_qg_coefficients, valid_specs
from qstrata.classes import _curve_row
from qstrata.picard import CurveFunctional, OrbitTable
from qstrata.testcurves import curve_functional, oracle


def printed_generic(g, i, s):
    return -(Fraction(2) ** (2 * g - 3)) * (s - 2 * i) * (s - 2 * i + 2)


def printed_empty_side(g, i0):
    return -(Fraction(2) ** (2 * (g - i0) - 1)) * (4**i0 * (i0 - 1) + 2) * i0


def test_solver_reproduces_printed_psi_coefficient():
    for g in (2, 3, 4):
        sol = solve_qg_coefficients(g)
        assert sol.c_psi == 3 * Fraction(2) ** (2 * g - 3)


def test_solver_reproduces_generic_range_where_determined():
    for g in (2, 3, 4):
        sol = solve_qg_coefficients(g)
        for i in range(0, g + 1):
            for s in range(1, 2 * g - 2):
                got = sol.get(i, s)
                if got is None:
                    continue
                if (i, s) in ((0, 1), (g, 2 * g - 3)):
                    assert got == -sol.c_psi
                    continue
                assert got == printed_generic(g, i, s), (g, i, s)


def test_solver_fully_determined_at_g3_g4():
    for g in (3, 4):
        sol = solve_qg_coefficients(g)
        assert sol.free == ()
        # the empty-side coefficients come out right too
        for i0 in range(1, g + 1):
            assert sol.get(i0, 0) == printed_empty_side(g, i0)


def test_solver_g2_free_directions_span_the_relation():
    sol = solve_qg_coefficients(2)
    assert set(sol.free) == {(1, 0), (1, 1)}
    # the relation-invariant combination is pinned and matches the
    # printed class: c_{1:1} - c_{1:empty} = 2 - (-4) = 6
    q = qg_class(2)
    assert q.boundary_coeff(1, {1}) - q.boundary_coeff(1, ()) == 6


def test_solver_diagnostics_unconditional():
    sol = solve_qg_coefficients(3)
    assert sol.rank == sol.n_unknowns
    assert sol.residuals  # emitted even though some residuals are nonzero
    nonzero = {k: v for k, v in sol.residuals.items() if v}
    assert nonzero == {
        ("B", 0, 3): 3,
        ("B", 1, 3): 8,
        ("B", 2, 3): 16,
    }


# the digest and the invariants below share their solutions
_solved = lru_cache(solve_qg_coefficients)

# sha256 of solve_qg_coefficients(g).to_jsonable() as JSON, one line per
# g = 2..16, recorded from the earlier RREF solver (kept as the reference in
# test_orbit_reference.py)
SOLVER_DIGEST = "15485bfb6a269f176e463ac16e4c35d575d0e590d5c6b6aba4b64fee868dc7ca"


def test_solver_output_digest():
    digest = hashlib.sha256()
    for g in range(2, 17):
        digest.update(json.dumps(_solved(g).to_jsonable()).encode() + b"\n")
    assert digest.hexdigest() == SOLVER_DIGEST


@pytest.mark.parametrize("g", [*range(3, 17), 24, 32, 40])
def test_solver_invariants(g):
    sol = _solved(g)
    q = qg_class(g)
    assert sol.free == ()
    assert sol.c_psi == q.psi[0]
    # every orbit coefficient of the class is solved, and no other
    assert sol.coefficients == {
        (i, s): q.orbits.coeffs.get((i, (s,)), 0) for i, (s,) in q.orbits.keys()
    }
    # the cross-checks fail only on the B_{i:2g-3} rows, by (g-i) 4^i
    nonzero = {k: r for k, r in sol.residuals.items() if r}
    assert nonzero == {("B", i, 2 * g - 3): (g - i) * 4**i for i in range(g)}


@pytest.mark.parametrize("g", range(2, 13))
def test_solver_residuals_are_the_audit_rows(g):
    # the solver's cross-checks are the audit's B and C rows, paired with
    # the solved coefficients instead of qg_class
    want = {(e.spec.family, e.spec.i, e.spec.s): e.pairing - e.oracle
            for e in audit(g).entries if e.spec.family != "A"}
    assert _solved(g).residuals == want


def _random_symmetric_class(g, rng):
    """A class on Mbar_{g,2g-2} with all labels in one group and random
    non-integer coefficients."""
    n = 2 * g - 2
    table = OrbitTable(g, n, (0,) * n)
    draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    for key in table.keys():
        table.put(key, draw())
    return DivisorClass(g, n, draw(), [draw()], draw(), orbits=table)


@pytest.mark.parametrize("g", range(2, 8))
def test_solver_rows_are_the_curve_functionals(g):
    # a solver row dotted with a symmetric class's (c_psi, c_{i:s}) is the
    # pairing of the test curve's functional with that class
    cls = _random_symmetric_class(g, random.Random(g))
    unknown = {(i, s): c for (i, (s,)), c in cls.orbits.coeffs.items()}
    unknown["psi"] = cls.group_psi[0]
    for spec in valid_specs(g):
        row = _curve_row(g, spec.family, spec.i, spec.s)
        got = sum(x * unknown.get(key, 0) for key, x in row.items())
        assert got == pair(curve_functional(spec), cls), spec


def test_solver_jsonable():
    d = solve_qg_coefficients(2).to_jsonable()
    assert d["c_psi"] == "6/1"
    assert {"i": 1, "s": 0} in d["free"]


def test_audit_covers_every_valid_spec():
    for g in (2, 3):
        report = audit(g)
        assert [e.spec for e in report.entries] == list(valid_specs(g))


def test_audit_g3_known_rows():
    report = audit(3)
    table = {(e.spec.family, e.spec.i, e.spec.s): e for e in report.entries}
    for key, value in {
        ("A", 1, 1): 32,
        ("A", 0, 2): 192,
        ("A", 1, 2): 0,
        ("A", 2, 2): 64,
        ("A", 1, 4): 144,
        ("A", 2, 4): 0,
        ("B", 1, 0): 0,
    }.items():
        assert table[key].pairing == value
        assert table[key].oracle == value
        assert table[key].match


def test_audit_g3_mismatch_rows_are_the_s3_column():
    report = audit(3)
    bad = {(e.spec.family, e.spec.i, e.spec.s) for e in report.mismatches}
    assert bad == {
        ("A", 0, 3),
        ("A", 1, 3),
        ("A", 2, 3),
        ("B", 0, 3),
        ("B", 1, 3),
        ("B", 2, 3),
    }
    for e in report.mismatches:
        assert e.pairing != e.oracle  # both values present, reported verbatim


def test_audit_g4_mismatches_stay_on_the_2g_minus_3_column():
    report = audit(4)
    bad = {(e.spec.family, e.spec.i, e.spec.s) for e in report.mismatches}
    assert bad == {(fam, i, 5) for fam in "AB" for i in range(0, 4)}


def test_audit_pairing_matches_direct_computation():
    # the audit pairs through the solver's rows; the functional route agrees
    for g in range(2, 9):
        cls = qg_class(g)
        for e in audit(g).entries:
            assert e.pairing == pair(curve_functional(e.spec), cls), e.spec
            assert e.oracle == oracle(e.spec)


def test_audit_builds_no_functional(monkeypatch):
    def refuse(*args):
        raise AssertionError("the audit built a CurveFunctional")

    monkeypatch.setattr(CurveFunctional, "from_terms", refuse)
    for g in range(2, 7):
        assert [e.spec for e in audit(g).entries] == list(valid_specs(g))


# sha256 of audit(g).to_json(), one line per g = 2..24, recorded when the
# audit still paired every test curve's CurveFunctional with qg_class
AUDIT_DIGEST = "ba47e065f15a2a09e7984bb732fda318afd94fb8e871300c8cf168a116880c6e"


def test_audit_output_digest():
    digest = hashlib.sha256()
    for g in range(2, 25):
        digest.update(audit(g).to_json().encode() + b"\n")
    assert digest.hexdigest() == AUDIT_DIGEST


def test_audit_report_serialization():
    report = audit(2)
    data = report.to_jsonable()
    assert data["total"] == len(report.entries)
    assert data["matched"] + data["mismatched"] == data["total"]
    assert "MISMATCH" in report.table()


@pytest.mark.parametrize("g", list(range(3, 21)) + [24, 32, 40])
def test_audit_mismatches_are_pinned(g):
    # The two routes disagree exactly on the s = 2g-3 column, by
    # -(g-i) 4^i on A_{i:2g-3} and +(g-i) 4^i on B_{i:2g-3}, 0 <= i <= g-1.
    # Neither route is patched: a drift in either one fails here by name.
    s = 2 * g - 3
    want = {("A", i, s): -(g - i) * 4**i for i in range(g)}
    want.update({("B", i, s): (g - i) * 4**i for i in range(g)})
    got = {(e.spec.family, e.spec.i, e.spec.s): e.pairing - e.oracle
           for e in audit(g).mismatches}
    assert got == want


def test_audit_mismatches_at_genus_2():
    # the genus-2 Picard group has a relation, and the mismatches differ
    got = {(e.spec.family, e.spec.i, e.spec.s) for e in audit(2).mismatches}
    assert got == {("A", 1, 1), ("B", 1, 1), ("B", 2, 1), ("C", 1, 0)}
