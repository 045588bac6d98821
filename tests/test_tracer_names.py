"""The benchmark's tracer rebinds qstrata names by getattr, so every name it
traces must exist, and its restore must put each original object back."""

import importlib
from pathlib import Path

from qstrata import classes, cli, levelgraphs, picard

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_install_and_restore_keep_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    owners = (classes, cli, levelgraphs, picard, picard.DivisorClass)
    before = [dict(vars(owner)) for owner in owners]
    # install() looks every traced name up, so a dropped one fails here
    restore = tracing.Recorder().install()
    try:
        rebound = {
            (owner.__name__, attr)
            for owner, names in zip(owners, before)
            for attr, value in vars(owner).items()
            if names.get(attr) is not value
        }
    finally:
        restore()
    for pair in (("qstrata.picard", "pair"), ("qstrata.cli", "pair"),
                 ("qstrata.classes", "curve_functional"), ("qstrata.cli", "main"),
                 ("DivisorClass", "from_json"), ("DivisorClass", "to_json")):
        assert pair in rebound, pair
    for owner, names in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == names.keys(), owner
        assert all(now[attr] is value for attr, value in names.items()), owner
