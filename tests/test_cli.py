import json

import pytest

from dgcsp.cli import main
from dgcsp.templates import two_cycle


@pytest.fixture()
def two_cycle_file(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps(two_cycle().to_json()))
    return str(p)


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_build_counts_table(capsys):
    assert main(["build", "2cycle", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "vertices 24" in out and "edges 24" in out


def test_build_dot(capsys):
    assert main(["build", "parity", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "rank=same" in out


def test_build_output_is_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["build", "parity", "--output", str(a)]) == 0
    assert main(["build", "parity", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert len(obj["vertices"]) == 78 and len(obj["edges"]) == 80


def test_build_respects_max_arity(tmp_path, capsys):
    assert main(["build", "parity", "--max-arity", "3"]) == 2
    assert "max-arity" in capsys.readouterr().err


def test_solve_yes_and_no(tmp_path, capsys):
    sat = write_json(tmp_path, "sat.json", {
        "domain": ["a", "b"],
        "relations": [{"name": "E", "arity": 2,
                       "tuples": [["a", "b"], ["b", "a"]]}]})
    assert main(["solve", "2cycle", "--input", sat]) == 0
    assert json.loads(capsys.readouterr().out) in (
        {"a": "0", "b": "1"}, {"a": "1", "b": "0"})
    unsat = write_json(tmp_path, "unsat.json", {
        "domain": ["a"],
        "relations": [{"name": "E", "arity": 2, "tuples": [["a", "a"]]}]})
    assert main(["solve", "2cycle", "--input", unsat]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_forward_then_backward_round_trip(tmp_path, two_cycle_file, capsys):
    inst = write_json(tmp_path, "inst.json", {
        "domain": ["x", "y"],
        "relations": [{"name": "E", "arity": 2, "tuples": [["x", "y"]]}]})
    dg = str(tmp_path / "dg.json")
    assert main(["forward", two_cycle_file, "--input", inst,
                 "--output", dg]) == 0
    red = str(tmp_path / "red.json")
    code = main(["backward", two_cycle_file, "--input", dg,
                 "--output", red])
    out = capsys.readouterr().out
    if code == 0 and not out.startswith("YES"):
        assert main(["solve", "2cycle", "--input", red]) == 0
    else:
        assert code == 0


def test_backward_definite_no(tmp_path, two_cycle_file, capsys):
    cyc = write_json(tmp_path, "c3.json", {
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["c", "a"]]})
    assert main(["backward", two_cycle_file, "--input", cyc]) == 1
    assert capsys.readouterr().out.startswith("NO")


def test_backward_from_stage3a(tmp_path, capsys):
    from dgcsp.selftest import WORKED_EXAMPLE_STAGE3A
    f = write_json(tmp_path, "w.json", WORKED_EXAMPLE_STAGE3A)
    assert main(["backward", "--from-stage3a", f]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["domain"]) == 12


def test_poly_none_on_the_zigzag(tmp_path, capsys):
    ids = tmp_path / "maltsev.ids"
    ids.write_text("idempotent p\np(y, x, x) = y\np(x, x, y) = y\n")
    assert main(["poly", "zigzag", "--identities", str(ids)]) == 1
    assert capsys.readouterr().out.strip() == "none"


def test_poly_wnu_found(capsys):
    assert main(["poly", "2cycle", "--wnu", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["w"]["arity"] == 3


def test_core_verdicts(tmp_path, capsys):
    assert main(["core", "2cycle"]) == 0
    assert capsys.readouterr().out.strip() == "core"
    noncore = write_json(tmp_path, "nc.json", {
        "domain": ["0", "1", "2"],
        "relations": [{"name": "E", "arity": 2,
                       "tuples": [["0", "1"], ["1", "0"], ["2", "1"]]}]})
    out_file = str(tmp_path / "core.json")
    assert main(["core", noncore, "--output", out_file]) == 1
    assert "retracts to 2" in capsys.readouterr().out
    assert len(json.loads(open(out_file).read())["domain"]) == 2


def test_lift_wnu_verify(capsys):
    assert main(["lift", "2cycle", "--wnu", "3", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "lifted w (arity 3)" in out
    assert "verified" in out


def test_lift_maltsev_rejected(tmp_path, capsys):
    ids = tmp_path / "maltsev.ids"
    ids.write_text("idempotent p\np(y, x, x) = y\np(x, x, y) = y\n")
    assert main(["lift", "2cycle", "--identities", str(ids)]) == 1
    assert "unliftable" in capsys.readouterr().out


def test_budget_exit_code(tmp_path, capsys):
    loops = write_json(tmp_path, "loops.json", {
        "domain": [f"v{i}" for i in range(25)],
        "relations": [{"name": "E", "arity": 2,
                       "tuples": [[f"v{i}", f"v{i}"] for i in range(25)]}]})
    assert main(["solve", "leq", "--input", loops, "--budget", "3"]) == 3
    assert "budget of 3 nodes" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(capsys):
    assert main(["build", "/nonexistent/t.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_selftest_command(capsys):
    assert main(["selftest", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "10/10 criteria passed" in out
    assert out.count("PASS") == 10
