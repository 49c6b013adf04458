"""Benchmark of the three dgcsp pipelines and the search behind them.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload forward-solve --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and README.md) in this process
and a single thread, against the ``dgcsp`` sources under ``src/``.  The
inputs are made from ``--seed``.  Whole rounds, each a set-up of the
program followed by every item of the workload, run for about
``--seconds`` seconds; each output is checked outside the timed region.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A result file
with every raw time goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailure  # noqa: E402


def fresh_import(tracer=None):
    """Import ``dgcsp`` anew from ``src/``, so that each set-up pays the
    package's import cost; with a tracer, wrap its layers."""
    for name in [n for n in sys.modules if n == "dgcsp" or n.startswith("dgcsp.")]:
        del sys.modules[name]
    package = importlib.import_module("dgcsp")
    if Path(package.__file__).resolve().parent != SRC / "dgcsp":
        raise RuntimeError(f"imported dgcsp from {package.__file__}, "
                           f"not from {SRC}")
    if tracer is not None:
        tracer.install(package)
    return package


# The calibration task, plain Python that never touches dgcsp, in two
# parts: bitmask sweeps over a fixed random graph (small dicts, sets and
# ints, like the solver's propagation) and a memo table over 25,000
# tuple keys read back in shuffled order (a few MB touched at random,
# like the memoized lifted operation and the induced subgraphs).
_cal_rng = random.Random(0)
_CAL_N = 2000
_CAL_ADJ = [tuple(_cal_rng.randrange(_CAL_N) for _ in range(5))
            for _ in range(_CAL_N)]
_CAL_KEYS = [(_cal_rng.randrange(1 << 20), _cal_rng.randrange(64),
              _cal_rng.randrange(64)) for _ in range(25000)]
_CAL_ORDER = _cal_rng.sample(_CAL_KEYS, len(_CAL_KEYS))
# its median time on the reference machine (see README.md), so that
# scaled times read as seconds on that machine at its usual speed
CAL_REF_S = 0.025


def calibrate():
    """Time one run of the calibration task, in seconds.

    The machine's speed drifts by a third within seconds, and runs of
    the same code differ as much (README.md).  Each set-up and item is
    bracketed by this task, and its time is scaled by ``CAL_REF_S`` over
    the mean of the two calibration times around it.  A change to the
    program moves the scaled times; a change in the machine's speed
    moves the calibration with them and cancels.
    """
    start = perf_counter()
    for _ in range(3):
        masks = dict.fromkeys(range(_CAL_N), 7)
        seen = set()
        for v, row in enumerate(_CAL_ADJ):
            m = masks[v]
            for u in row:
                masks[u] = masks[u] & ~(m & -m) or masks[u]
                seen.add((u, v) if u < v else (v, u))
    memo = {}
    for i, key in enumerate(_CAL_KEYS):
        memo[key] = i
    hits = 0
    for key in _CAL_ORDER:
        hits += memo[key] >= 0
    return perf_counter() - start


class Phase:
    """The rounds of one workload, traced or not.

    A round is one set-up of the program followed by every item of the
    workload, so set-up times are sampled across the whole run, as item
    times are, and the machine's drift reaches both alike.  Wall times
    are kept raw and scaled by the calibration around them
    (:func:`calibrate`); the metrics use the scaled times.
    """

    def __init__(self, workload, inputs, tracer=None):
        self.workload = workload
        self.inputs = inputs
        self.tracer = tracer
        self.setup_times = []    # scaled seconds
        self.setup_raw = []      # wall seconds
        self.times = []          # (round, item name, wall s, scaled s)
        self.cal_times = []      # every calibration, wall seconds
        self.last_cal = None
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.correct = True

    def round(self):
        for item in self.setup():
            self.one(item)
        self.rounds += 1

    def scaled(self, took):
        """Calibrate after a timed call; scale its wall time by the mean
        of this calibration and the one before the call."""
        gc.collect()
        before, self.last_cal = self.last_cal, calibrate()
        self.cal_times.append(self.last_cal)
        return took * CAL_REF_S / ((before + self.last_cal) / 2)

    def setup(self):
        gc.collect()
        self.last_cal = calibrate()
        self.cal_times.append(self.last_cal)
        gc.collect()
        if self.tracer is not None:
            self.tracer.begin_item(f"{self.rounds}:setup", in_item=False)
        start = perf_counter()
        items = self.workload.setup(fresh_import(self.tracer), self.inputs)
        took = perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_item()
        self.setup_raw.append(took)
        self.setup_times.append(self.scaled(took))
        return items

    def one(self, item):
        gc.collect()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_item(f"{self.rounds}:{item.name}")
        start = perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{item.name}: {type(exc).__name__}: {exc}")
            return
        finally:
            took = perf_counter() - start
            if self.tracer is not None:
                self.tracer.end_item()
            scaled = self.scaled(took)
        self.times.append((self.rounds, item.name, took, scaled))
        try:
            item.check(out)
        except CheckFailure as exc:
            self.correct = False
            self.errors.append(str(exc))

    def item_seconds(self, scaled=True):
        return [t[3] if scaled else t[2] for t in self.times]

    def round_seconds(self):
        """Scaled item time of each round, all its items together."""
        totals = {}
        for rnd, _, _, t in self.times:
            totals[rnd] = totals.get(rnd, 0.0) + t
        return list(totals.values())


def run_rounds(phases, seconds):
    """A round of each phase in turn, whole turns, for about ``seconds``.

    Alternating traced and untraced rounds puts both in the same stretch
    of the machine's drift, so their ratio shows the tracing overhead.
    """
    start = perf_counter()
    while True:
        turn_start = perf_counter()
        for phase in phases:
            phase.round()
        now = perf_counter()
        # a further turn must fit, judged by the one just run
        if now - start + (now - turn_start) > seconds:
            return


def end_to_end(phase):
    secs = phase.item_seconds()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "round_p50_s": (statistics.median(phase.round_seconds()), "s"),
        "items_per_s": (len(secs) / sum(secs), "1/s"),
        "setup_s": (statistics.median(phase.setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


# per-layer metrics: name -> (source, key, unit); sources are span self
# time, span calls and counters, each per round (one set-up, every item)
PER_LAYER = {}
for _span in tracing.span_names():
    PER_LAYER[f"{_span}.self_s"] = ("self_s", _span, "s")
for _name, _span in (("structures.Digraph.induced.calls", "structures.Digraph.induced"),
                     ("gadget.build_gadget.calls", "gadget.build_gadget"),
                     ("solver.HomInstance.calls", "solver.HomInstance.init"),
                     ("reductions.forced_positions.calls", "reductions.forced_positions"),
                     ("lifting.LiftedOperation.calls", "lifting.LiftedOperation.call")):
    PER_LAYER[_name] = ("calls", _span, "count")
for _name in ("solver.constraints", "reductions.pieces", "reductions.hyperedges",
              "reductions.reduced_variables", "algebra.indicator_variables",
              "lifting.evaluations"):
    PER_LAYER[_name] = ("counts", _name, "count")


def per_layer(tracer, traced, untraced):
    """Per-layer values for one round of the traced phase, plus the share
    of item time inside layer spans and the tracing overhead."""
    totals = tracer.totals()
    out = {name: (totals[source].get(key, 0) / traced.rounds, unit)
           for name, (source, key, unit) in PER_LAYER.items()}
    calls = out["lifting.LiftedOperation.calls"][0]
    evals = out["lifting.evaluations"][0]
    out["lifting.memo_hit_ratio"] = (1 - evals / calls if calls else 0.0,
                                     "ratio")
    out["trace.coverage"] = (tracer.covered
                             / sum(traced.item_seconds(scaled=False)),
                             "ratio")
    out["trace.overhead"] = (overhead(traced, untraced), "ratio")
    return out


def overhead(traced, untraced):
    """Traced against untraced scaled item time, by each item's median."""
    def medians(phase):
        by_item = {}
        for _, name, _, t in phase.times:
            by_item.setdefault(name, []).append(t)
        return {k: statistics.median(v) for k, v in by_item.items()}
    on, off = medians(traced), medians(untraced)
    names = on.keys() & off.keys()
    return sum(on[k] for k in names) / sum(off[k] for k in names) - 1


def git_commit():
    """The checked-out commit read from ``.git``, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_result(args, record, spans=None):
    RESULTS.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "item"],
             "spans": spans}) + "\n")
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "dgcsp" / "__init__.py").is_file():
        print(f"error: no dgcsp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    fresh_import()  # the first import compiles bytecode; not measured

    spans = None
    if args.trace == 0:
        phases = [Phase(workload, inputs)]
        run_rounds(phases, args.seconds)
        metrics = end_to_end(phases[0])
    else:
        tracer = tracing.Tracer()
        phases = [Phase(workload, inputs), Phase(workload, inputs, tracer)]
        run_rounds(phases, args.seconds)
        metrics = per_layer(tracer, phases[1], phases[0])
        spans = tracer.spans

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    correct = all(ph.correct for ph in phases)
    errors = [e for ph in phases for e in ph.errors]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), **result, "errors": errors,
        "rounds": [ph.rounds for ph in phases],
        "cal_ref_s": CAL_REF_S,
        "setup_seconds": [{"wall": ph.setup_raw, "scaled": ph.setup_times}
                          for ph in phases],
        "calibration_seconds": [ph.cal_times for ph in phases],
        "items": {"fields": ["round", "item", "wall_s", "scaled_s"],
                  "phases": [[list(t) for t in ph.times] for ph in phases]},
    }
    path = write_result(args, record, spans)

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} items attempted, "
          f"{failed} failed, rounds {record['rounds']}, checks "
          f"{'passed' if correct else 'FAILED'}; {path.relative_to(ROOT)}")
    cal = [c for ph in phases for c in ph.cal_times]
    wall = [t for ph in phases for t in ph.item_seconds(scaled=False)]
    print(f"  calibration median {statistics.median(cal):.6g} s over "
          f"{len(cal)} (scale reference {CAL_REF_S} s); unscaled item time "
          f"{sum(wall):.6g} s")
    width = max(len(k) for k in metrics)
    for k, (v, u) in metrics.items():
        print(f"  {k:<{width}}  {v:14.6g} {u}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
