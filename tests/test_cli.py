import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qstrata import DivisorClass, qg_class
from qstrata.cli import main

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


def test_pair_accepts_class_file(tmp_path):
    path = tmp_path / "cls.json"
    path.write_text(qg_class(3).to_json())
    code, out = run_cli(["pair", "--curve", "A:1:1", "--class", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["pairing"] == "32/1"


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
