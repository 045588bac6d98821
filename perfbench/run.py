"""qstrata benchmark driver.

    python3 perfbench/run.py --workload audit-solve --seed 1 --seconds 35 --trace 0

Runs one workload as a closed loop with one client: the next job starts
when the previous one has finished and been checked.  The loop runs as
many whole rounds (see workloads.py) as are expected to end within
``--seconds`` of wall time, and at least one.

--trace 0 prints the end-to-end metrics; --trace 1 runs each round
untraced and then again traced, and prints the per-layer metrics (per
round) with the tracing overhead.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Details (input
properties, percentile and job counts, every failure) go to the lines
before it and to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up samples before the loop and after each round, so that they spread
# over the run like the jobs do
SETUP_BEFORE, SETUP_PER_ROUND = 3, 2
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import qstrata.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)

# name -> (unit, better); the order is the order printed
LAYER_METRICS = {}


def _layer(prefix, unit_better):
    for suffix, (unit, better) in unit_better.items():
        LAYER_METRICS["%s.%s" % (prefix, suffix)] = (unit, better)


_COUNT = ("count/round", "lower")  # work done
_BUSY = ("s/round", "lower")
_OUTPUT = ("count/round", "higher")  # results produced
_layer("picard.indices", {"calls": _COUNT, "busy_s": _BUSY, "items": _COUNT})
_layer("picard.pair", {"calls": _COUNT, "busy_s": _BUSY})
_layer("picard.json", {"calls": _COUNT, "busy_s": _BUSY, "bytes": ("bytes/round", "lower")})
_layer("testcurves.functional", {"calls": _COUNT, "busy_s": _BUSY})
_layer("testcurves.oracle", {"calls": _COUNT, "busy_s": _BUSY})
_layer("classes.assemble", {"calls": _COUNT, "busy_s": _BUSY, "self_s": _BUSY, "entries": _COUNT})
_layer("classes.audit", {"calls": _COUNT, "busy_s": _BUSY, "self_s": _BUSY, "rows": _OUTPUT,
                         "mismatches": ("count/round", "lower")})
_layer("classes.solve", {"calls": _COUNT, "busy_s": _BUSY, "equations": _COUNT,
                         "unknowns": _COUNT, "rank": _COUNT})
_layer("classes.pullback", {"calls": _COUNT, "busy_s": _BUSY, "entries": _COUNT})
_layer("strata", {"calls": _COUNT, "busy_s": _BUSY})
_layer("levelgraphs.validate", {"calls": _COUNT, "busy_s": _BUSY})
_layer("levelgraphs.enumerate", {"calls": _COUNT, "busy_s": _BUSY, "graphs": _OUTPUT,
                                 "order_space": _COUNT, "yield": ("ratio", "higher")})
_layer("levelgraphs.grc", {"calls": _COUNT, "busy_s": _BUSY, "conditions": _OUTPUT,
                           "admissible": _OUTPUT, "inadmissible": _OUTPUT,
                           "indeterminate": _OUTPUT})
_layer("levelgraphs.pnk", {"calls": _COUNT, "busy_s": _BUSY, "tuples": _COUNT,
                           "refused": ("count/round", "lower")})
_layer("cli.main", {"calls": _COUNT, "busy_s": _BUSY, "self_s": _BUSY,
                    "stdout_bytes": ("bytes/round", "lower")})
LAYER_METRICS["trace.overhead_share"] = ("ratio", "lower")

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def measure_setup(repeats):
    """Times to import qstrata.cli, each inside a fresh interpreter."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise RuntimeError("fresh interpreter cannot import qstrata.cli:\n" + done.stderr)
        times.append(float(done.stdout.strip()))
    return times


def percentile(values, q):
    """The q-th percentile, interpolating linearly between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Loop:
    """Closed loop over whole rounds of one workload.

    With a recorder, every job runs twice, untraced and traced, in turns
    of which goes first, so that both see the same warm process and the
    difference is the tracing overhead.
    """

    def __init__(self, workload, seed, recorder=None):
        self.workload = workload
        self.seed = seed
        self.recorder = recorder
        self.latency = []
        self.traced_latency = []
        self.jobs = []  # (size class, key, (g, n), props) per job
        self.failures = []
        self.rounds = 0
        self.round_rates = []  # jobs per second of job time, per round

    def _timed(self, job, recorder=None):
        restore = None
        if recorder is not None:
            recorder.job = len(self.latency)
            restore = recorder.install()
        t0 = perf_counter()
        try:
            out = self.workload.run(job)
        except Exception as exc:  # a job that raises is a failed job
            out, error = None, "%s raised %r" % (job.kind, exc)
        else:
            error = None
        finally:
            latency = perf_counter() - t0
            if restore is not None:
                restore()
        try:
            fails = [error] if error else self.workload.check(job, out)
        except Exception as exc:  # output too malformed to check
            fails = ["checking %s raised %r" % (job.kind, exc)]
        if fails:
            self.failures.append({"job": len(self.latency), "kind": job.kind, "size": job.size,
                                  "traced": recorder is not None, "why": fails[:3]})
        return latency

    def run_round(self):
        jobs = self.workload.round(self.seed, self.rounds)
        first = len(self.latency)
        for job in jobs:
            if self.recorder is not None and len(self.latency) % 2:
                self.traced_latency.append(self._timed(job, self.recorder))
            latency = self._timed(job)
            if self.recorder is not None and not len(self.latency) % 2:
                self.traced_latency.append(self._timed(job, self.recorder))
            self.latency.append(latency)
            self.jobs.append((job.size, job.key, job.gn, job.props))
        self.round_rates.append(len(jobs) / sum(self.latency[first:]))
        self.rounds += 1


def whole_rounds(seconds, run_round):
    """Run rounds while the next one is expected to end within `seconds`;
    at least one.  Returns the wall time."""
    start = perf_counter()
    r = 0
    while r == 0 or (perf_counter() - start) * (r + 1) / r <= seconds:
        run_round()
        r += 1
    return perf_counter() - start


def input_properties(loop):
    seen_keys, seen_gn = set(), set()
    repeat_key = repeat_gn = 0
    sizes, genus, entries, groups, order_space = Counter(), Counter(), Counter(), Counter(), Counter()
    for size, key, gn, props in loop.jobs:
        repeat_key += key in seen_keys
        repeat_gn += gn in seen_gn
        seen_keys.add(key)
        seen_gn.add(gn)
        sizes[size] += 1
        genus[gn[0]] += 1
        if "entries" in props:
            entries[props["entries"]] += 1
        if "groups" in props:
            groups[props["groups"]] += 1
            order_space[props["order_space"]] += 1
    n = len(loop.jobs)
    out = {
        "jobs": n,
        "rounds": loop.rounds,
        "size_classes": dict(sorted(sizes.items())),
        "genus_histogram": dict(sorted(genus.items())),
        "repeat_exact_input_share": repeat_key / n,
        "repeat_g_n_share": repeat_gn / n,
    }
    if entries:
        out["boundary_entries_per_class"] = dict(sorted(entries.items()))
    if groups:
        out["groups_per_graph"] = dict(sorted(groups.items()))
        out["order_space_per_graph (computed: Fubini of groups)"] = dict(sorted(order_space.items()))
    return out


def end_to_end(loop, workload, setup):
    lat = loop.latency
    q = workload.tail_percentile
    tail = percentile(lat, q)
    beyond = sum(1 for x in lat if x > tail)
    metrics = {
        "setup_s": setup,
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail,
        "jobs_per_s": statistics.median(loop.round_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"job_tail_s": "p%d of %d jobs, %d beyond it" % (q, len(lat), beyond)}
    return metrics, notes


def per_layer(rec, loop):
    """Per-round layer totals of the traced runs, and the tracing overhead."""
    rounds = loop.rounds
    totals = rec.layer_totals()
    values = {}
    for name in LAYER_METRICS:
        layer, _, what = name.rpartition(".")
        if what in ("calls", "busy_s", "self_s"):
            values[name] = totals[layer][what] / rounds if layer in totals else 0
        else:
            values[name] = rec.counters.get(name, 0) / rounds
    space = sum(props.get("order_space", 0) for _, _, _, props in loop.jobs)
    values["levelgraphs.enumerate.order_space"] = space / rounds
    values["levelgraphs.enumerate.yield"] = (
        rec.counters["levelgraphs.enumerate.graphs"] / space if space else 0)
    untraced_s = sum(loop.latency)
    values["trace.overhead_share"] = (sum(loop.traced_latency) - untraced_s) / untraced_s
    return values


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "qstrata" / "__init__.py").is_file():
        print("no qstrata sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "loop": "closed, one client, whole rounds"}

    rec = tracing.Recorder() if args.trace else None
    loop = Loop(workload, args.seed, rec)
    if args.trace == 0:
        setup_runs = measure_setup(SETUP_BEFORE)

        def run_round():
            loop.run_round()
            setup_runs.extend(measure_setup(SETUP_PER_ROUND))

        record["wall_s"] = whole_rounds(args.seconds, run_round)
        record["setup_runs_s"] = setup_runs
    else:
        record["wall_s"] = whole_rounds(args.seconds, loop.run_round)
    record["inputs"] = input_properties(loop)
    record["jobs"] = [[job[0], lat] for job, lat in zip(loop.jobs, loop.latency)]

    failures = loop.failures + [{"check": why} for why in workload.post_check()]
    attempted = len(loop.latency) + len(loop.traced_latency)
    if args.trace == 0:
        metrics, record["notes"] = end_to_end(loop, workload, statistics.median(setup_runs))
        units = END_TO_END
    else:
        metrics = per_layer(rec, loop)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        if rec.counters["picard.indices.miscounted"]:
            failures.append({"check": "canonical_boundary_indices count differs from the "
                                      "binomial count in %d calls"
                                      % rec.counters["picard.indices.miscounted"]})
        record["notes"] = {
            "per_layer": "totals per round over %d traced rounds" % loop.rounds,
            "order_space": "computed by the benchmark: Fubini number of the group count",
            "waits": "single-process closed loop: nothing waits, no wait metrics",
            "spans": len(rec.spans),
        }
        rec.write(OUT / ("spans-%s-%d.jsonl" % (workload.name, args.seed)))

    failed = len(failures)
    record["failures"] = failures[:50]
    record["failed_share"] = failed / attempted
    record["metrics"] = metrics
    (OUT / ("record-%s-%d-trace%d.json" % (workload.name, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, default=str))

    print(json.dumps({"inputs": record["inputs"], "notes": record["notes"]}))
    for name, value in metrics.items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    print("failed_share %d/%d" % (failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
