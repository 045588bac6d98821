#!/usr/bin/env python3
"""Regenerate the committed golden CLI outputs.

Each golden file is the exact stdout of one CLI invocation, named by a
hash of the command line; the manifest maps command lines to files and
expected exit codes.  Run from the repository root:

    python3 scripts/make_goldens.py
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qstrata.cli import main  # noqa: E402

COMMANDS = [
    ["class", "qg", "--g", "2", "--json"],
    ["class", "qg", "--g", "3", "--json"],
    ["class", "qg", "--g", "3"],
    ["class", "qd", "--g", "2", "--n", "2", "--d", "3,-1", "--json"],
    ["class", "qd", "--g", "3", "--n", "1", "--d", "4", "--json"],
    ["class", "logan", "--g", "2", "--n", "2", "--d", "1,1", "--json"],
    ["class", "weierstrass", "--json"],
    ["curve", "--curve", "A:1:3", "--g", "3", "--json"],
    ["curve", "--curve", "B:1:0", "--g", "3", "--json"],
    ["pair", "--curve", "A:1:1", "--class", "qg:3", "--json"],
    ["pair", "--curve", "C:1:0", "--class", "qg:3"],
    ["audit", "--g", "2", "--json"],
    ["audit", "--g", "3", "--json"],
    ["audit", "--g", "3"],
    ["solve", "--g", "2", "--json"],
    ["solve", "--g", "3", "--json"],
    ["classify-stratum", "--g", "2", "--k", "2", "--mu", "-1,-1,6", "--json"],
    ["classify-stratum", "--g", "3", "--k", "2", "--mu", "10,-2", "--json"],
    ["classify-stratum", "--g", "4", "--k", "2", "--mu", "12", "--json"],
    ["multidegree", "--g", "3", "--d", "1,1,4", "--json"],
    ["multidegree", "--g", "2", "--d", "3,4"],
    ["levelgraphs", "--input", "tests/data/ex1.json", "--json"],
    ["levelgraphs", "--input", "tests/data/ex2.json", "--json"],
    ["levelgraphs", "--input", "tests/data/ex2.json", "--admissible", "--json"],
    ["levelgraphs", "--input", "tests/data/ex2.json"],
    ["levelgraphs", "--input", "tests/data/ex3.json", "--json"],
    ["pnk", "--k", "2", "--R", "1,1", "--json"],
    ["pnk", "--k", "1", "--R", "3,4"],
    ["curve", "--curve", "C:1:0", "--g", "3"],
    ["solve", "--g", "3"],
    ["solve", "--g", "2"],
    ["classify-stratum", "--g", "3", "--k", "2", "--mu", "3,3,2"],
    ["class", "weierstrass"],
]


def command_hash(argv):
    return hashlib.sha256(" ".join(argv).encode()).hexdigest()[:12]


def absolutize(argv):
    return [
        str(ROOT / a) if a.startswith("tests/") else a
        for a in argv
    ]


def run():
    golden = ROOT / "tests" / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    manifest = []
    for argv in COMMANDS:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(absolutize(argv))
        name = command_hash(argv) + ".txt"
        (golden / name).write_text(buf.getvalue())
        manifest.append({"argv": argv, "file": name, "exit": code})
        print("%-16s <- %s" % (name, " ".join(argv)))
    (golden / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    run()
