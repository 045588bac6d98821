"""Span recorder for the traced run.

The traced run rebinds public names of the qstrata modules (and the names
``qstrata.cli`` imported from them) to wrappers that open a span around
the call and add the layer's counters.  Nothing under ``src/`` changes,
and the untraced run installs nothing.  Spans are kept in memory as
``(name, start, end, parent, job)`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

from qstrata import classes, cli, levelgraphs, picard
from qstrata.errors import BudgetExceeded
from workloads import index_count

_MISSING = object()


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, job]
        self.stack = []
        self.counters = defaultdict(int)
        self.job = -1

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def inside(self, name):
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def install(self):
        """Rebind the traced names; returns a function that restores them."""
        saved = []

        def rebind(owner, attr, wrapper):
            # a class may only inherit the attribute; restore then deletes it
            saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, wrapper)

        def span(modules, attr, name, count=None, refuse=None):
            fn = getattr(modules[0], attr)
            wrapper = _wrap(self, name, fn, count, refuse)
            for module in modules:
                if attr in module.__dict__:
                    rebind(module, attr, wrapper)

        entries = lambda args, result: {"entries": len(result.boundary)}
        span((picard, classes), "canonical_boundary_indices", "picard.indices",
             lambda args, result: {"items": len(result),
                                   "miscounted": len(result) != index_count(*args)})
        span((picard, classes, cli), "pair", "picard.pair")
        span((classes, cli), "curve_functional", "testcurves.functional")
        span((classes,), "oracle", "testcurves.oracle")
        for attr in ("qg_class", "qd_class", "logan_class"):
            span((classes, cli), attr, "classes.assemble", entries)
        span((classes, cli), "audit", "classes.audit",
             lambda args, r: {"rows": len(r.entries), "mismatches": len(r.mismatches)})
        span((classes, cli), "solve_qg_coefficients", "classes.solve",
             lambda args, r: {"equations": r.n_equations, "unknowns": r.n_unknowns,
                              "rank": r.rank})
        for attr in ("forget_pullback", "pullback_attach", "weierstrass_pullback"):
            span((classes,), attr, "classes.pullback", entries)
        for attr in ("quad_components", "multidegree"):
            span((cli,), attr, "strata")
        span((levelgraphs, cli), "validate_twisted", "levelgraphs.validate")
        span((levelgraphs, cli), "enumerate_level_graphs", "levelgraphs.enumerate",
             lambda args, result: {"graphs": len(result)})
        span((levelgraphs, cli), "grc_admissible", "levelgraphs.grc", _grc_count)
        span((levelgraphs, cli), "eval_pnk", "levelgraphs.pnk", _pnk_count, BudgetExceeded)

        # DivisorClass serialisation; bytes counts the JSON text read or written
        cls = picard.DivisorClass
        from_json = cls.from_json.__func__
        to_json = picard._PicardVector.to_json
        rebind(cls, "from_json", classmethod(_wrap(
            self, "picard.json", from_json, lambda args, r: {"bytes": len(args[1])})))
        rebind(cls, "to_json", _wrap(
            self, "picard.json", to_json, lambda args, r: {"bytes": len(r)}))
        rebind(cls, "to_jsonable", _wrap(self, "picard.json", picard._PicardVector.to_jsonable))

        rebind(cli, "main", _cli_main(self, cli.main))

        def restore():
            for owner, attr, value in reversed(saved):
                if value is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, value)

        return restore

    def layer_totals(self):
        """calls, busy_s and self_s per span name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[idx]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def _wrap(rec, name, fn, count=None, refuse=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.inside(name):  # e.g. to_json calling to_jsonable
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.close(idx)
            if refuse is not None and isinstance(exc, refuse):
                rec.counters[name + ".refused"] += 1
            raise
        rec.close(idx)
        if count is not None:
            for key, value in count(args, result).items():
                rec.counters[name + "." + key] += value
        return result

    return wrapper


def _cli_main(rec, fn):
    # stdout is a StringIO while the benchmark calls the CLI in-process
    def counted(argv=None):
        before = sys.stdout.tell()
        code = fn(argv)
        rec.counters["cli.main.stdout_bytes"] += sys.stdout.tell() - before
        return code

    return _wrap(rec, "cli.main", counted)


def _pnk_count(args, result):
    return {"tuples": args[1] ** len(args[0])}


def _grc_count(args, result):
    return {"conditions": len(result.conditions), result.status: 1}
