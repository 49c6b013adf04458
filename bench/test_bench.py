"""Tests of the benchmark itself: small workloads pass their checks, and
every checker rejects a corrupted output.

Run from the root of the checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import CheckFailure  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def dg():
    return run.fresh_import()


def small_items(dg, name, seed=3):
    workload = wl.WORKLOADS[name]
    return workload.setup(dg, workload.make_inputs(seed, small=True))


def named(items, prefix):
    return next(it for it in items if it.name.startswith(prefix))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_small_workload_passes_every_check(name):
    workload = wl.WORKLOADS[name]
    phase = run.Phase(workload, workload.make_inputs(3, small=True))
    phase.round()
    assert phase.rounds == 1 and len(phase.setup_times) == 1
    assert phase.errors == []
    assert phase.correct and phase.failed == 0
    assert phase.attempted == len(phase.times) > 0


def test_times_are_scaled_by_the_calibration_around_them(monkeypatch):
    workload = wl.WORKLOADS["poly-search"]
    phase = run.Phase(workload, workload.make_inputs(3, small=True))
    phase.last_cal = 0.010
    monkeypatch.setattr(run, "calibrate", lambda: 0.030)
    assert phase.scaled(2.0) == pytest.approx(2.0 * run.CAL_REF_S / 0.020)
    assert phase.last_cal == 0.030 and phase.cal_times == [0.030]


def test_inputs_follow_the_seed():
    for workload in wl.WORKLOADS.values():
        a = workload.make_inputs(5, small=True)
        assert a == workload.make_inputs(5, small=True)
    assert (wl.WORKLOADS["forward-solve"].make_inputs(5, small=True)
            != wl.WORKLOADS["forward-solve"].make_inputs(6, small=True))


def test_forward_digraph_matches_forward_translate(dg):
    for name, key, inst, _ in wl.forward_inputs(4, small=True)["cases"]:
        template = wl.forward_inputs(4, small=True)["templates"][key]
        ours = wl.forward_digraph(inst, template)
        theirs = dg.reductions.forward_translate(
            dg.structures.RelationalStructure.from_json(inst),
            dg.structures.RelationalStructure.from_json(template)).digraph
        assert len(ours["vertices"]) == theirs.num_vertices(), name
        assert len(ours["edges"]) == theirs.num_edges(), name
        assert ours["vertices"][:len(inst["domain"])] == inst["domain"]


def test_forward_check_rejects_a_moved_vertex(dg):
    item = named(small_items(dg, "forward-solve"), "k3-2tree")
    g, hom = item.run()
    item.check((g, hom))
    # a variable moved to another element vertex keeps no out-edge: the
    # path vertices above it hang off its old element only
    x = g.vertices[0]
    other = next(v for v in sorted(set(hom.values()))
                 if v.startswith("elem:") and v != hom[x])
    with pytest.raises(CheckFailure):
        item.check((g, dict(hom, **{x: other})))


def test_forward_check_rejects_a_wrong_answer(dg):
    items = small_items(dg, "forward-solve")
    yes, no = named(items, "k3-2tree"), named(items, "odd-cycle")
    g, _ = yes.run()
    with pytest.raises(CheckFailure):
        yes.check((g, None))
    g, _ = no.run()
    with pytest.raises(CheckFailure):
        no.check((g, {v: "elem:0" for v in g.vertices}))


def test_poly_check_rejects_a_changed_row(dg):
    item = named(small_items(dg, "poly-search"), "T4-wnu3")
    out = item.run()
    item.check(out)
    table = out["w"]
    rows = dict(table.rows())
    a, b = table.domain[0], table.domain[1]
    rows[(a, a, a)] = b
    changed = dg.algebra.OperationTable(table.domain, 3, rows)
    with pytest.raises(CheckFailure):
        item.check({"w": changed})
    with pytest.raises(CheckFailure):
        item.check(None)


def test_poly_check_rejects_a_found_operation_on_k4(dg):
    items = small_items(dg, "poly-search")
    found = named(items, "T4-wnu3").run()
    with pytest.raises(CheckFailure):
        named(items, "K4-wnu3").check(found)


def test_backward_check_rejects_a_flipped_answer(dg):
    items = small_items(dg, "backward-reduce")
    yes, no = named(items, "k3-2tree"), named(items, "odd-cycle")
    out, sol = yes.run()
    yes.check((out, sol))
    with pytest.raises(CheckFailure):
        yes.check((out, None))
    bad = dict(sol)
    x = next(iter(bad))
    for value in ("0", "1", "2"):
        bad[x] = value
        try:
            yes.check((out, bad))
        except CheckFailure:
            break
    else:
        pytest.fail("no change of one variable breaks the solution")
    out, sol = no.run()
    assert sol is None
    with pytest.raises(CheckFailure):
        no.check((out, {x: "0" for x in out.instance.domain}))


class OneWrongInput:
    """A lifted operation with the value at one input replaced."""

    def __init__(self, op, at, value):
        self.op, self.at, self.value = op, at, value
        self.arity, self.domain = op.arity, op.domain

    def __call__(self, *c):
        return self.value if c == self.at else self.op(*c)


def test_lift_check_rejects_an_operation_corrupted_at_one_input(dg):
    item = named(small_items(dg, "lift-verify"), "2cycle-wnu3-wnu")
    interp, lifted, ok, detail = item.run()
    assert ok
    item.check((interp, lifted, ok, detail))
    op = lifted["w"]
    elems = [v for v in op.domain if v.startswith("elem:")]
    bad = {"w": OneWrongInput(op, (elems[0],) * 3, elems[1])}
    ok, detail = dg.lifting.verify_lifted_system(
        op.gadget, bad, dg.algebra.wnu_system(3))
    assert not ok
    with pytest.raises(CheckFailure):
        item.check((interp, bad, ok, detail))
    with pytest.raises(CheckFailure):
        item.check((interp, bad, True, None))


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "poly-search",
         "--seed", "2", "--seconds", "0.1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared


def test_command_fails_without_the_sources(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(spec["command"] + ["--workload", "poly-search",
                                            "--seed", "1", "--seconds", "1",
                                            "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
