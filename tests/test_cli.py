import hashlib
import io
import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given, settings, strategies as st

from qstrata import (
    AuditReport,
    DivisorClass,
    cli,
    forget_pullback,
    oracle,
    pullback_attach,
    qg_class,
)
from qstrata.classes import _MAX_AUDIT_SPECS, QgSolution
from qstrata.cli import main
from qstrata.picard import _MAX_DENSE_ENTRIES, OrbitTable, _PicardVector
from qstrata.testcurves import TestCurveSpec as CurveSpec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv):
    argv = [str(ROOT / a) if a.startswith("tests/") else a for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def manifest():
    return json.loads((GOLDEN / "manifest.json").read_text())


@pytest.mark.parametrize("entry", manifest(), ids=lambda e: " ".join(e["argv"]))
def test_golden_outputs(entry):
    code, out = run_cli(entry["argv"])
    assert code == entry["exit"]
    assert out == (GOLDEN / entry["file"]).read_text()


def test_determinism_repeated_runs():
    for argv in (["class", "qg", "--g", "3", "--json"], ["audit", "--g", "3", "--json"]):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second


def test_emitted_class_json_round_trips():
    code, out = run_cli(["class", "qg", "--g", "3", "--json"])
    assert code == 0
    parsed = DivisorClass.from_json(out)
    assert parsed.equals(qg_class(3))


def test_every_emitted_class_golden_reparses():
    for entry in manifest():
        if entry["argv"][0] != "class" or "--json" not in entry["argv"]:
            continue
        parsed = DivisorClass.from_json((GOLDEN / entry["file"]).read_text())
        code, out = run_cli(entry["argv"])
        assert parsed.equals(DivisorClass.from_json(out))


def test_curve_subcommand_emits_functional_tag():
    code, out = run_cli(["curve", "--curve", "B:1:0", "--g", "3", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["functional"] is True
    assert data["lambda"] == "0/1"


def test_exit_codes():
    # usage: missing required flag
    code, _ = run_cli(["class", "qd", "--g", "2", "--n", "2"])
    assert code == 1
    # usage: inconsistent mu total
    code, _ = run_cli(["classify-stratum", "--g", "2", "--k", "2", "--mu", "1,1"])
    assert code == 1
    # usage, on one line: k(2g-2), or the sum of --mu, past the
    # interpreter's int-to-str digit limit
    huge, near_limit = str(10**4000), "9" * 4299
    for g, k, mu in ((huge, huge, "1"), ("2", "1", ",".join([near_limit] * 20))):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["classify-stratum", "--g", g, "--k", k, "--mu", mu])
        assert (code, out) == (1, "")
        assert err.getvalue().startswith("usage error: --mu") and err.getvalue().count("\n") == 1
    # domain, on one line: a --k whose k^n is too long to print
    for k in (str(10**3999), "9" * 4000):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["pnk", "--k", k, "--R", "1,2"])
        assert (code, out) == (2, "")
        assert err.getvalue().startswith("domain error: k^n") and err.getvalue().count("\n") == 1
    # domain: genus below the catalogue
    code, _ = run_cli(["classify-stratum", "--g", "1", "--k", "2", "--mu", "1,-1"])
    assert code == 2
    # domain: invalid test-curve spec
    code, _ = run_cli(["pair", "--curve", "A:0:1", "--class", "qg:3"])
    assert code == 2
    # usage: a class-spec field that is not an integer
    for spec in ("qg:x", "qd:3:x:1,1,1,1", "qg:"):
        code, _ = run_cli(["pair", "--curve", "A:1:1", "--class", spec])
        assert code == 1
    # usage: residues that are not finite complex numbers
    for residues in ("nan", "1e400", "1,-inf", "1,nanj"):
        code, out = run_cli(["pnk", "--k", "2", "--R", residues])
        assert (code, out) == (1, "")
    # audit mismatch is exit 3, success is 0
    code, _ = run_cli(["audit", "--g", "3", "--json"])
    assert code == 3
    code, _ = run_cli(["multidegree", "--g", "2", "--d", "1,1"])
    assert code == 0


def test_bad_input_files_are_usage_errors(tmp_path):
    code, _ = run_cli(["levelgraphs", "--input", str(tmp_path / "missing.json")])
    assert code == 1
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _ = run_cli(["levelgraphs", "--input", str(garbled)])
    assert code == 1
    code, _ = run_cli(["pair", "--curve", "A:1:1", "--class", str(garbled)])
    assert code == 1
    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text(qg_class(3).to_json().replace('"lambda": "-64/1"', '"lambda": "1/0"'))
    code, _ = run_cli(["pair", "--curve", "A:1:1", "--class", str(zero_den)])
    assert code == 1
    float_coeff = tmp_path / "float_coeff.json"
    data = qg_class(3).to_jsonable()
    data["boundary"][0]["c"] = 0.5
    float_coeff.write_text(json.dumps(data))
    code, _ = run_cli(["pair", "--curve", "A:1:1", "--class", str(float_coeff)])
    assert code == 1
    # class-file integers must be JSON integers: no float or bool truncation
    for field, value in (("g", 3.0), ("g", 2.7), ("n", True), ("i", 0.5), ("S", 1.0),
                         ("S", True), ("S", "1")):
        data = qg_class(3).to_jsonable()
        if field in ("g", "n"):
            data[field] = value
        elif field == "i":
            data["boundary"][3]["i"] = value
        else:
            data["boundary"][3]["S"][0] = value
        inexact = tmp_path / "inexact.json"
        inexact.write_text(json.dumps(data))
        code, out = run_cli(["pair", "--curve", "A:1:1", "--class", str(inexact)])
        assert (code, out) == (1, ""), (field, value)
    # a label out of range, or repeated in S, names no divisor: a domain error
    for S in ([1, 9], [1, 1, 2]):
        data = qg_class(3).to_jsonable()
        data["boundary"][0]["S"] = S
        bad_label = tmp_path / "bad_label.json"
        bad_label.write_text(json.dumps(data))
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["pair", "--curve", "A:1:2", "--class", str(bad_label)])
        assert (code, out) == (2, ""), S
        assert err.getvalue().startswith("domain error:") and err.getvalue().count("\n") == 1
    # structurally bad graphs are domain errors, not usage errors
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"k": 2, "vertices": [{"genus": 1, "marked": []}, {"genus": 1, "marked": []}],'
        ' "edges": [{"a": 0, "b": 1, "ord_a": 0, "ord_b": 0}], "residues": []}'
    )
    code, _ = run_cli(["levelgraphs", "--input", str(bad)])
    assert code == 2
    unknown_edge = tmp_path / "unknown_edge.json"
    unknown_edge.write_text(
        '{"k": 2, "vertices": [{"genus": 1, "marked": []}, {"genus": 1, "marked": []}],'
        ' "edges": [{"a": 0, "b": 1, "ord_a": -2, "ord_b": -2}],'
        ' "residues": [{"edge": 1, "side": "a", "state": "zero"}]}'
    )
    code, _ = run_cli(["levelgraphs", "--input", str(unknown_edge)])
    assert code == 2
    # dual-graph integers must be JSON integers: no float or bool truncation
    good = {"k": 2, "vertices": [{"genus": 1, "marked": [1]}, {"genus": 1, "marked": []}],
            "edges": [{"a": 0, "b": 1, "ord_a": -2, "ord_b": -2}]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(good))
    assert run_cli(["levelgraphs", "--input", str(path), "--list"])[0] == 0
    for where, value in (("k", 2.0), ("genus", 1.5), ("genus", True), ("marked", 1.0),
                         ("a", 0.0), ("b", True), ("ord_a", -2.0), ("ord_b", -2.5)):
        graph = json.loads(json.dumps(good))
        if where == "k":
            graph["k"] = value
        elif where == "genus":
            graph["vertices"][0]["genus"] = value
        elif where == "marked":
            graph["vertices"][0]["marked"] = [value]
        else:
            graph["edges"][0][where] = value
        path.write_text(json.dumps(graph))
        code, out = run_cli(["levelgraphs", "--input", str(path), "--list"])
        assert (code, out) == (2, ""), (where, value)
    # `pole` must be a JSON boolean: "false" used to read as a marked pole and
    # turned ex2's inadmissible levels 0,-2,-1 admissible; a repeated residue
    # entry used to override the earlier one, with the same effect
    ex2 = json.loads((ROOT / "tests/data/ex2.json").read_text())
    edits = [("pole", v) for v in ("false", "no", 0, 1, None)] + [("repeat", "zero")]
    for what, value in edits:
        graph = json.loads(json.dumps(ex2))
        if what == "pole":
            graph["vertices"][0]["pole"] = value
        else:
            graph["residues"].append({"edge": 1, "side": "b", "state": value})
        path.write_text(json.dumps(graph))
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["levelgraphs", "--input", str(path)])
        assert (code, out) == (2, ""), (what, value)
        assert err.getvalue().startswith("domain error:") and err.getvalue().count("\n") == 1
    assert "edge 1 side b" in err.getvalue()


def refused(argv, code):
    """Run the CLI and check that it ends in exit `code`, one stderr line and
    no stdout; return that line."""
    err = io.StringIO()
    with redirect_stderr(err):
        got, out = run_cli(argv)
    assert (got, out) == (code, ""), argv
    assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    return err.getvalue()


def test_refusals_end_in_one_line():
    # usage errors: a bad --d entry, a missing class file, a two-part
    # --curve, a class that is not on Mbar_{g,2g-2}
    for argv in (["class", "qd", "--g", "3", "--n", "4", "--d", "1,x,1,1"],
                 ["pair", "--curve", "A:1:1", "--class", "nosuchfile"],
                 ["pair", "--curve", "A:1", "--class", "qg:3"],
                 ["pair", "--curve", "A:1:1", "--class", "weierstrass"]):
        assert refused(argv, 1).startswith("usage error:")
    # domain errors: an unknown family, the solver below genus 2, and a k^n
    # whose bit bound refuses it with no k^n built or printed
    for argv in (["curve", "--curve", "D:1:1", "--g", "3"], ["solve", "--g", "1"]):
        assert refused(argv, 2).startswith("domain error:")
    line = refused(["pnk", "--k", "1" + "0" * 2500, "--R", "1,2"], 2)
    assert line.startswith("domain error: k^n, of over ")


def _graph(**fields):
    """A one-vertex dual graph with `fields` replaced."""
    graph = {"k": 2, "vertices": [{"genus": 1, "marked": [1]}], "edges": []}
    graph.update(fields)
    return graph


_V = {"genus": 1, "marked": []}


@pytest.mark.parametrize("graph", [
    _graph(vertices=[{"genus": -1}]),
    _graph(vertices=[{"genus": 1, "kth_power": "perhaps"}]),
    _graph(k=0),
    _graph(vertices=[]),
    _graph(vertices=[_V, _V], edges=[{"a": 0, "b": 2, "ord_a": -2, "ord_b": -2}]),
    _graph(vertices=[_V, _V], edges=[{"a": 0, "b": 1, "ord_a": -2, "ord_b": -2}],
                residues=[{"edge": 0, "side": "c", "state": "zero"}]),
    _graph(vertices=[_V, _V], edges=[{"a": 0, "b": 1, "ord_a": -2, "ord_b": -2}],
                residues=[{"edge": 0, "side": "a", "state": "maybe"}]),
    # 0 and 1, 1 and 2 on one level, so 0 and 2 cannot be ordered
    _graph(vertices=[_V, _V, _V], edges=[
        {"a": 0, "b": 1, "ord_a": -2, "ord_b": -2}, {"a": 1, "b": 2, "ord_a": -2, "ord_b": -2},
        {"a": 0, "b": 2, "ord_a": 0, "ord_b": -4}]),
], ids=["genus", "kth_power", "k", "no vertex", "endpoint", "side", "state", "equal and ordered"])
def test_level_graph_refusals_end_in_one_line(tmp_path, graph):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    assert refused(["levelgraphs", "--input", str(path)], 2).startswith("domain error:")


def test_array_fields_must_be_arrays(tmp_path):
    path = tmp_path / "file.json"

    def run(doc, argv):
        path.write_text(json.dumps(doc))
        return run_cli(argv + [str(path)])

    # a JSON object or string where a class file has an array used to read
    # as its keys or characters: psi as (1, 2, 3, 4), a boundary or an S as
    # empty; a functional file used to pair as a class
    pair_argv = ["pair", "--curve", "A:1:2", "--class"]
    psi_only = {"g": 3, "n": 4, "lambda": "0", "psi": ["1"] * 4, "delta0": "0", "boundary": []}
    assert run(psi_only, pair_argv) == (0, "A_{1:2} (g=3) . class = 2/1\n")
    bad = [dict(psi_only, psi=dict.fromkeys("1234", "1")), dict(psi_only, psi="1234")]
    qg = qg_class(3).to_jsonable()
    assert run(qg, pair_argv)[0] == 0
    bad += [dict(qg, boundary=""), dict(qg, boundary={})]
    for at in (0, 5):  # the first entry, which checks (g, n), and a later one
        for S in ("", {}):
            doc = json.loads(json.dumps(qg))
            doc["boundary"][at].update(i=1, S=S)  # (1, {}) names a divisor at g = 3
            bad.append(doc)
    code, out = run_cli(["curve", "--curve", "A:1:2", "--g", "3", "--json"])
    bad.append(json.loads(out))
    for doc in bad:
        path.write_text(json.dumps(doc))
        assert refused(pair_argv + [str(path)], 1).startswith("usage error: cannot read class file")
    # a dual graph likewise: these read as no vertices, edges, residues or
    # marked points, and "marked": "12" as the labels "1" and "2" (exit 2)
    ex2 = json.loads((ROOT / "tests/data/ex2.json").read_text())
    assert run(ex2, ["levelgraphs", "--list", "--input"])[0] == 0
    for value in ("", {}, "12", {"1": 1}):
        for field in ("vertices", "edges", "residues", "marked"):
            graph = json.loads(json.dumps(ex2))
            (graph["vertices"][0] if field == "marked" else graph)[field] = value
            path.write_text(json.dumps(graph))
            line = refused(["levelgraphs", "--list", "--input", str(path)], 1)
            assert line.startswith("usage error: cannot read dual graph"), (field, value)


def test_levelgraphs_budget(tmp_path):
    # a centre below nine leaves: 7,087,261 level graphs, refused at once
    star = tmp_path / "star9.json"
    star.write_text(json.dumps({
        "k": 2,
        "vertices": [{"genus": 1, "kth_power": "yes"}] * 10,
        "edges": [{"a": x, "b": 0, "ord_a": 0, "ord_b": -4} for x in range(1, 10)],
    }))
    code, out = run_cli(["levelgraphs", "--input", str(star), "--list"])
    assert (code, out) == (2, "")


def test_dense_class_limit():
    # qg at g = 10 would list 1,310,703 nonzero boundary entries: refused
    # at once, before any entry is built
    for argv in (["class", "qg", "--g", "10"], ["class", "qg", "--g", "30", "--json"]):
        start = time.perf_counter()
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.getvalue().startswith("domain error:") and err.getvalue().count("\n") == 1
    # g = 9 is under the limit (printing its 294,897 entries takes seconds)
    assert qg_class(9).orbits.dense_size() == 294_897 <= _MAX_DENSE_ENTRIES


def test_huge_genus_refused_at_once():
    # refused before a list of n labels or the (g+1)(n+1) solver slots exist
    g = "99999999999"
    for argv in (
        ["class", "qg", "--g", g],
        ["class", "qg", "--g", "100000000"],
        ["audit", "--g", g],
        ["curve", "--curve", "A:1:2", "--g", g, "--json"],
        ["pair", "--curve", "A:1:2", "--class", "qg:" + g],
        ["solve", "--g", g],
        ["solve", "--g", "1000"],  # 1,999 labels, but 2,000,999 slots
        ["solve", "--g", "706"],  # 997,577 slots, past the solver's 250,000
        # past 2^63 labels, where len() of a range or repeat(1, n) overflows
        ["curve", "--curve", "A:1:2", "--g", "1" + "0" * 30],
        ["audit", "--g", "1" + "0" * 30],
        ["class", "qg", "--g", "1" + "0" * 30],
    ):
        start = time.perf_counter()
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, ""), argv
        assert err.getvalue().startswith("domain error:") and err.getvalue().count("\n") == 1


def test_audit_budget():
    # g = 331 is the first genus past the audit's limit on the specs it
    # tries; both it and 10^6 are refused at once, before qg_class is built
    for g in ("331", "1000000"):
        start = time.perf_counter()
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["audit", "--g", g, "--json"])
        assert time.perf_counter() - start < 1.0, g
        assert (code, out) == (2, "")
        assert err.getvalue().startswith("domain error:") and err.getvalue().count("\n") == 1
    assert 3 * 331 * 659 <= _MAX_AUDIT_SPECS < 3 * 332 * 661


def test_curve_label_budget():
    # family A at i = g lists about n^2/2 labels: refused at once
    for g in ("2000", "500000"):
        start = time.perf_counter()
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["curve", "--curve", "A:%s:1" % g, "--g", g])
        assert time.perf_counter() - start < 1.0, g
        assert (code, out) == (2, "")
        assert err.getvalue().startswith("domain error:") and err.getvalue().count("\n") == 1
    # a long functional with short sides still prints, as it did before the
    # budget
    code, out = run_cli(["curve", "--curve", "A:1:1", "--g", "5000"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "301d37708b5db4c05f95bb6159a334b503dd4109a9890c20d8114d38f4e65f6f")


def test_only_the_requested_format_is_rendered(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a rendering that is not printed")

    commands = (["class", "qg", "--g", "4"], ["curve", "--curve", "A:1:3", "--g", "3"],
                ["audit", "--g", "3"], ["solve", "--g", "3"])
    with monkeypatch.context() as m:
        m.setattr(cli, "_class_table", refuse)
        m.setattr(AuditReport, "table", refuse)
        m.setattr(QgSolution, "table", refuse)
        for argv in commands:
            code, out = run_cli(argv + ["--json"])
            assert code in (0, 3) and json.loads(out)
    with monkeypatch.context() as m:
        m.setattr(_PicardVector, "to_jsonable", refuse)
        m.setattr(AuditReport, "to_jsonable", refuse)
        m.setattr(QgSolution, "to_jsonable", refuse)
        for argv in commands:
            code, out = run_cli(argv)
            assert code in (0, 3) and out.count("\n") > 5


def test_large_genus_answers_from_orbits(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense boundary view was built")

    monkeypatch.setattr(OrbitTable, "dense", refuse)
    code, out = run_cli(["audit", "--g", "12", "--json"])
    report = json.loads(out)
    # the s = 2g-3 column still disagrees, in 2g rows of families A and B
    assert code == 3 and report["mismatched"] == 24
    assert {e["s"] for e in report["entries"] if not e["match"]} == {21}
    # the test curves are built and paired in orbit form as well
    code, out = run_cli(["audit", "--g", "30", "--json"])
    report = json.loads(out)
    assert code == 3 and report["total"] == 5_355 and report["mismatched"] == 60
    assert {e["s"] for e in report["entries"] if not e["match"]} == {57}
    code, out = run_cli(["pair", "--curve", "A:1:2", "--class", "qg:12", "--json"])
    assert code == 0
    assert json.loads(out)["pairing"] == "%d/1" % oracle(CurveSpec("A", 12, 1, 2))

    # the pullbacks map table to table; checked against the closed form of
    # qg on sampled indices
    def qg_coefficient(g, i, s):
        if s in (0, 2 * g - 2):
            i0 = i if s == 0 else g - i
            return -Fraction(2) ** (2 * (g - i0) - 1) * (4**i0 * (i0 - 1) + 2) * i0
        return -Fraction(2) ** (2 * g - 3) * (s - 2 * i) * (s - 2 * i + 2)

    def sample(g, n, rng):
        # a random (i, S) naming a divisor on Mbar_{g,n}
        while True:
            i = rng.randint(0, g)
            S = tuple(p for p in range(1, n + 1) if rng.random() < 0.5)
            if not (i == 0 and len(S) < 2 or i == g and len(S) > n - 2):
                return i, S

    q, n, rng = qg_class(12), 22, random.Random(12)
    forgot, attached = forget_pullback(q), pullback_attach(q, 2)
    for _ in range(40):
        # forget: delta_{i:S} -> delta_{i:S} + delta_{i:S+{23}}
        i, S = sample(12, n, rng)
        c = qg_coefficient(12, i, len(S))
        assert forgot.boundary_coeff(i, S) == forgot.boundary_coeff(i, S + (23,)) == c
        # attach genus 2 at label 1: the side holding 1 came from genus + 2
        i, S = sample(10, n, rng)
        if 1 not in S:
            i, S = 10 - i, [p for p in range(1, n + 1) if p not in S]
        assert attached.boundary_coeff(i, S) == qg_coefficient(12, i + 2, len(S))
    assert forgot.boundary_coeff(0, (5, 23)) == -q.psi_coeff(5) == -forgot.psi_coeff(5)
    assert attached.psi_coeff(1) == -q.boundary_coeff(2, (1,))
    assert attached.psi_coeff(2) == q.psi_coeff(2)


def test_one_parser_serves_every_call(capsys):
    # a usage error, then two subcommands, in one process: each prints what
    # it prints with a parser of its own
    calls = (["class", "qg", "--g", "x"], ["class", "qg", "--g", "3"],
             ["multidegree", "--g", "2", "--d", "1,-1", "--json"])

    def run(argv):
        code = main(list(argv))
        return (code,) + capsys.readouterr()

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    cli._build_parser.cache_clear()
    assert [run(argv) for argv in calls] == fresh
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [1, 0, 0]


def test_cold_start_loads_no_dataclasses():
    # the records are NamedTuples and files are read through os.path:
    # importing the CLI loads neither dataclasses nor pathlib, nor what they
    # pull in; -S keeps a site hook from loading them first
    loaded = "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'pathlib', 'urllib.parse', 'ipaddress'}"
    code = ("import sys; sys.path.insert(0, %r); import qstrata.cli; "
            "print(sorted(%s & set(sys.modules)))" % (str(ROOT / "src"), loaded))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_file_errors_read_as_before(tmp_path):
    # the lines the CLI printed for a class file when it read files through
    # pathlib.Path, and a dual graph named the same way: "" is ".", and a
    # path prints with its empty and "." parts dropped
    missing, folder = "no/such/dir/x.json", str(tmp_path)
    is_dir = "[Errno 21] Is a directory: %r"
    for arg, line in [
        ("", "cannot read class file .: " + is_dir % "."),
        (".", "cannot read class file .: " + is_dir % "."),
        (missing, "cannot parse class spec %r" % missing),
        ("./" + missing, "cannot parse class spec %r" % ("./" + missing)),
        (folder + "//./", "cannot read class file %s: %s" % (folder, is_dir % folder)),
    ]:
        assert refused(["pair", "--curve", "A:1:1", "--class", arg], 1) == "usage error: %s\n" % line
    for arg, line in [
        ("", " .: " + is_dir % "."),
        ("./" + missing, " %s: [Errno 2] No such file or directory: %r" % (missing, missing)),
        (folder + "/.", " %s: %s" % (folder, is_dir % folder)),
    ]:
        assert refused(["levelgraphs", "--input", arg], 1) == "usage error: cannot read dual graph%s\n" % line


def test_paths_print_as_pathlib_prints_them():
    for parts in product(["/", ".", "a", "..", "b/"], repeat=5):
        text = "".join(parts)
        assert cli._path(text) == str(PurePosixPath(text)), text


def test_pair_accepts_class_file(tmp_path):
    path = tmp_path / "cls.json"
    path.write_text(qg_class(3).to_json())
    code, out = run_cli(["pair", "--curve", "A:1:1", "--class", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["pairing"] == "32/1"


def test_unprintable_results_and_deep_files_end_in_one_line(tmp_path):
    # a pairing with two coprime 3,000-digit denominators is over the
    # interpreter's 4,300-digit int-to-str limit, like 2000! is
    data = qg_class(3).to_jsonable()
    data["boundary"][0]["c"] = "1/%d" % (10**2999 + 1)
    data["boundary"][1]["c"] = "1/%d" % (10**2999 + 3)
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000 + "]" * 200_000)
    cases = [
        (2, ["pnk", "--k", "2", "--R", "1e308,1e308"]),
        (2, ["pnk", "--k", "2", "--R", "1e200,-1e200,1e200"]),
        (2, ["multidegree", "--g", "2000", "--d", ",".join(["1"] * 2000)]),
        (2, ["pair", "--curve", "A:0:2", "--class", str(big)]),
        (1, ["pair", "--curve", "A:1:1", "--class", str(nested)]),
        (1, ["levelgraphs", "--input", str(nested)]),
    ]
    for want, argv in cases:
        for tail in ([], ["--json"]):
            err = io.StringIO()
            with redirect_stderr(err):
                code, out = run_cli(argv + tail)
            assert (code, out) == (want, ""), argv[:3] + tail
            prefix = "domain error:" if want == 2 else "usage error: cannot read "
            assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1
    assert run_cli(["multidegree", "--g", "1500", "--d", ",".join(["1"] * 1500)])[0] == 0


def test_levelgraphs_admissible_filter():
    code, out = run_cli(
        ["levelgraphs", "--input", "tests/data/ex2.json", "--admissible", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert all(row["status"] == "admissible" for row in data["graphs"])


def test_levelgraphs_list_mode():
    code, out = run_cli(["levelgraphs", "--input", "tests/data/ex2.json", "--list", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert all("status" not in row for row in data["graphs"])


# -- argv fuzzing ------------------------------------------------------------

# stands for a file of 200,000 nested JSON arrays, which the test writes once
_NESTED = "NESTED_JSON"

_INT = st.integers(-2, 6).map(str)
# small genera, and huge ones that every command refuses at once
_G = st.one_of(st.integers(-2, 6), st.integers(10**6, 10**12)).map(str)
_INT_LIST = st.lists(st.integers(-4, 6), max_size=6).map(lambda xs: ",".join(map(str, xs)))
_FLAG_VALUES = {
    "--g": _G,
    "--n": _INT,
    "--k": st.one_of(_INT, st.sampled_from([str(10**3999), "-" + "9" * 4000])),
    "--d": _INT_LIST,
    "--mu": _INT_LIST,
    "--budget": st.sampled_from(["-1", "0", "1", "64", "4096"]),
    "--curve": st.builds(
        "{}:{}:{}".format, st.sampled_from("ABCx"), st.integers(-1, 5), st.integers(-1, 6)
    ),
    "--class": st.one_of(
        st.builds("qg:{}".format, _G),
        st.builds("{}:{}:{}:{}".format, st.sampled_from(["qd", "logan"]),
                  st.integers(1, 4), st.integers(0, 6), _INT_LIST),
        st.sampled_from(["weierstrass", "qg:x", "qg:", "tests/data/ex1.json", "missing.json",
                         _NESTED]),
    ),
    "--R": st.lists(
        st.sampled_from(["1", "-1", "0", "2j", "1+1j", "0.5", "nan", "inf", "1e400", "x",
                         "1e200", "-1e200", "1e308"]),
        max_size=5,
    ).map(",".join),
    "--input": st.sampled_from(["tests/data/ex1.json", "tests/data/ex2.json", "missing.json",
                                _NESTED]),
}
_SWITCHES = ("--json", "--list", "--admissible")
_COMMANDS = {
    "class": ("--g", "--n", "--d", "--json"),
    "curve": ("--curve", "--g", "--json"),
    "pair": ("--curve", "--class", "--json"),
    "audit": ("--g", "--json"),
    "solve": ("--g", "--json"),
    "classify-stratum": ("--g", "--k", "--mu", "--json"),
    "multidegree": ("--g", "--d", "--json"),
    "levelgraphs": ("--input", "--list", "--admissible", "--json"),
    "pnk": ("--k", "--R", "--budget", "--json"),
}


@st.composite
def _argv(draw):
    """A subcommand with most of its flags in random order, each with a
    drawn value, and now and then a stray token."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    if command == "class":
        argv.append(draw(st.sampled_from(["qg", "qd", "logan", "weierstrass", "other"])))
    for flag in draw(st.permutations(_COMMANDS[command])):
        if not draw(st.integers(0, 4)):
            continue  # most draws keep a flag, so most reach the command itself
        argv.append(flag)
        if flag not in _SWITCHES:
            argv.append(draw(_FLAG_VALUES[flag]))
    if draw(st.integers(0, 4)) == 0:
        stray = draw(st.sampled_from(sorted(_FLAG_VALUES) + ["", "-", "7"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


# large genera only where the answer stays cheap: class listings, which the
# dense limit refuses
_LARGE_CLASS = st.tuples(st.integers(10, 30), st.booleans()).map(
    lambda t: ["class", "qg", "--g", str(t[0])] + ["--json"] * t[1]
)


@st.composite
def _middle_genus(draw):
    """`pair` and `curve` at a genus between the small draws and the refused
    ones, with i and s drawn a little past their admissible ranges, and
    `solve` and `audit` at g = 7..25."""
    command = draw(st.sampled_from(["curve", "pair", "solve", "audit"]))
    if command in ("solve", "audit"):
        return [command, "--g", str(draw(st.integers(7, 25)))] + ["--json"] * draw(st.booleans())
    g = draw(st.integers(7, 40))
    curve = "%s:%d:%d" % (draw(st.sampled_from("ABC")), draw(st.integers(-1, g + 1)),
                          draw(st.integers(-1, 2 * g)))
    if command == "curve":
        argv = ["curve", "--curve", curve, "--g", str(g)]
    else:
        # classes with at most three label groups, so that each draw is cheap
        n = 2 * g - 2
        klass = draw(st.sampled_from([
            "qg:%d" % g,
            "qd:%d:%d:%d%s" % (g, n, n, ",0" * (n - 1)),
            "qd:%d:%d:3,-1%s" % (g, n, ",1" * (n - 2)),
            "logan:%d:%d:%d%s" % (g, n, g, ",0" * (n - 1)),
        ]))
        argv = ["pair", "--curve", curve, "--class", klass]
    return argv + ["--json"] * draw(st.booleans())


# g! passes the interpreter's 4,300-digit int-to-str limit near g = 1,550
_HUGE_MULTIDEGREE = st.tuples(st.integers(1500, 2500), st.booleans()).map(
    lambda t: ["multidegree", "--g", str(t[0]), "--d", ",".join(["1"] * t[0])] + ["--json"] * t[1]
)


@pytest.fixture(scope="module")
def nested_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("nested") / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    return str(path)


def _no_constant(name):
    raise ValueError("%s is not JSON" % name)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_argv(), _LARGE_CLASS, _middle_genus(), _HUGE_MULTIDEGREE))
def test_cli_fuzz_never_tracebacks(nested_json, argv):
    argv = [nested_json if a == _NESTED else a for a in argv]
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if code == 0 and "--json" in argv:
        json.loads(out, parse_constant=_no_constant)
