import hashlib
import json

import pytest

from dgcsp import cli, reductions
from dgcsp.cli import main
from dgcsp.gadget import elem_name
from dgcsp.lifting import LiftInvariantError
from dgcsp.structures import RelationalStructure
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


@pytest.mark.parametrize("name, digest", [
    ("2cycle",
     "fbc5a3f865198e9471f22f5f18f2570732a285da905c82217d472583d5eef760"),
    ("one-element",
     "6e413900e811db1774d04ce248100f00d2fcbea92dd6157c0e2548995fa6076d"),
    ("parity",
     "c6a92957ad18615011e1f3319d12deb3aa4bf6877116034e73f111dccd7152f1"),
    ("leq",
     "4aa28f69a2337f34772424635c4c5885e249c57d69b3ebe0cc83f36384733cd9"),
    ("zigzag",
     "0ef28f8ed20545a5b6755a3aff95390d9a1c2a4aec839c05bd4f66cca2bc21cd"),
])
def test_build_dot_matches_its_digest(capsys, name, digest):
    """The DOT drawing of each built-in gadget, rank rows included."""
    assert main(["build", name, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_build_output_is_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["build", "parity", "--output", str(a)]) == 0
    assert main(["build", "parity", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert len(obj["vertices"]) == 78 and len(obj["edges"]) == 80


def test_build_takes_any_template(tmp_path, capsys):
    """Three ternary relations over {0,1} collapse to arity 9; build
    takes them as forward and lift do."""
    three = write_json(tmp_path, "three.json", {
        "domain": [0, 1],
        "relations": [{"name": name, "arity": 3, "tuples": tuples}
                      for name, tuples in (("P", [[0, 0, 1], [1, 1, 0]]),
                                           ("Q", [[0, 1, 1]]),
                                           ("S", [[1, 0, 0], [0, 0, 0]]))]})
    assert main(["build", three, "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "arity 9" in out and "paths 8" in out


def test_build_refuses_an_oversized_gadget(tmp_path, capsys):
    big = write_json(tmp_path, "big.json", {
        "domain": list(range(65)),
        "relations": [{"name": "R", "arity": 1,
                       "tuples": [[i] for i in range(64)]}]})
    assert main(["build", big]) == 2
    assert "4160 connecting paths" in capsys.readouterr().err


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


@pytest.mark.parametrize("extra", [
    ["--input", "/nonexistent.json"], ["--format", "table"],
    ["--format", "stage3a"]], ids=["input", "table", "stage3a"])
def test_backward_from_stage3a_refuses_input_and_format(tmp_path, capsys,
                                                         extra):
    from dgcsp.selftest import WORKED_EXAMPLE_STAGE3A
    f = write_json(tmp_path, "w.json", WORKED_EXAMPLE_STAGE3A)
    assert main(["backward", "2cycle", "--from-stage3a", f, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert main(["backward", "--from-stage3a", f,
                 "--format", "structure"]) == 0


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


def test_lift_output_file_is_pinned(tmp_path, capsys):
    out_file = tmp_path / "lift.json"
    assert main(["lift", "2cycle", "--wnu", "3", "--verify",
                 "--output", str(out_file)]) == 0
    assert capsys.readouterr().out == \
        "lifted w (arity 3) to 24 vertices\nverified\n"
    data = out_file.read_bytes()
    assert len(data) == 1588555
    assert hashlib.sha256(data).hexdigest() == \
        "55cc239ed54c7fe9be75ae0ff8a595dea18e0086db7ad689663bc9b551168d3a"


def test_lift_maltsev_rejected(tmp_path, capsys):
    ids = tmp_path / "maltsev.ids"
    ids.write_text("idempotent p\np(y, x, x) = y\np(x, x, y) = y\n")
    assert main(["lift", "2cycle", "--identities", str(ids)]) == 1
    assert "unliftable" in capsys.readouterr().out


def test_lift_refuses_an_oversized_output_before_any_work(tmp_path, capsys):
    """D(parity) has 78 vertices, so a ternary table has 78^3 rows: the
    refusal comes before any line on stdout, the verification and the
    file."""
    out_file = tmp_path / "lift.json"
    assert main(["lift", "parity", "--wnu", "3", "--verify",
                 "--output", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: materializing w needs 474552 rows; "
                            "drop --output for a summary only\n")
    assert not out_file.exists()


def test_lift_refuses_an_oversized_verification_before_any_work(
        tmp_path, monkeypatch, capsys):
    """<= and >= on four elements have a gadget of 4504 vertices, so the
    verification of a ternary lift would read 4504^3 entries: the refusal
    comes before any line on stdout and before the verification."""
    order = [[a, b] for a in range(4) for b in range(4) if a <= b]
    path = write_json(tmp_path, "leqgeq4.json", {
        "domain": list(range(4)), "relations": [
            {"name": "LE", "arity": 2, "tuples": order},
            {"name": "GE", "arity": 2, "tuples": [[b, a] for a, b in order]}]})

    def never(*args):
        pytest.fail("the verification ran")

    monkeypatch.setattr(cli, "verify_lifted_system", never)
    assert main(["lift", path, "--wnu", "3", "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: verifying w reads {4504 ** 3} entries (bound "
        f"{cli.MAX_VERIFY_ENTRIES}); drop --verify\n")


def test_lift_searches_the_template_not_its_collapse(tmp_path, monkeypatch,
                                                     capsys):
    """<= and >= on two elements: the search gets the two relations as
    loaded, not their 9-tuple product of arity 4."""
    order = [[0, 0], [0, 1], [1, 1]]
    obj = {"domain": [0, 1], "relations": [
        {"name": "LE", "arity": 2, "tuples": order},
        {"name": "GE", "arity": 2, "tuples": [[b, a] for a, b in order]}]}
    searched = []
    find_interpretations = cli.find_interpretations

    def recording(structure, *args, **kwargs):
        searched.append(structure)
        return find_interpretations(structure, *args, **kwargs)

    monkeypatch.setattr(cli, "find_interpretations", recording)
    assert main(["lift", write_json(tmp_path, "t.json", obj),
                 "--wnu", "3"]) == 0
    assert searched == [RelationalStructure.from_json(obj)]
    assert capsys.readouterr().out == "lifted w (arity 3) to 173 vertices\n"


def test_budget_exit_code(tmp_path, capsys):
    loops = write_json(tmp_path, "loops.json", {
        "domain": [f"v{i}" for i in range(25)],
        "relations": [{"name": "E", "arity": 2,
                       "tuples": [[f"v{i}", f"v{i}"] for i in range(25)]}]})
    assert main(["solve", "leq", "--input", loops, "--budget", "3"]) == 3
    assert "budget of 3 nodes" in capsys.readouterr().err


def test_loop_over_two_cycle_is_no_within_one_node(tmp_path, capsys):
    loop = write_json(tmp_path, "loop.json", {
        "domain": ["a"],
        "relations": [{"name": "E", "arity": 2, "tuples": [["a", "a"]]}]})
    assert main(["solve", "2cycle", "--input", loop, "--budget", "1"]) == 1
    assert capsys.readouterr().out == "NO\n"


@pytest.mark.parametrize("command", ["solve", "backward", "poly", "core",
                                     "lift"])
def test_negative_budget_is_a_usage_error(tmp_path, capsys, command):
    inputs = write_json(tmp_path, "c3.json", {
        "domain": ["a", "b", "c"],
        "relations": [{"name": "E", "arity": 2,
                       "tuples": [["a", "b"], ["b", "c"], ["c", "a"]]}]})
    args = {"solve": ["--input", inputs], "backward": ["--input", inputs],
            "poly": ["--wnu", "3"], "core": [], "lift": ["--wnu", "3"]}
    assert main([command, "2cycle", *args[command], "--budget", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --budget must be at least 0, not -5\n"


def test_zero_budget_is_allowed(tmp_path, capsys):
    """Root propagation can answer without a search node."""
    inputs = write_json(tmp_path, "x.json", {
        "domain": ["x"],
        "relations": [{"name": "R", "arity": 1, "tuples": [["x"]]}]})
    assert main(["solve", "one-element", "--input", inputs,
                 "--budget", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"x": "a"}


@pytest.mark.parametrize("args", [
    ["build", "2cycle"],
    ["poly", "leq", "--wnu", "3"],
    ["lift", "leq", "--wnu", "3"],
], ids=["build", "poly", "lift"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, args):
    path = str(tmp_path / "missing" / "x.json")
    assert main([*args, "--output", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("obj", [
    {"domain": ["0", "1"],
     "relations": [{"name": "E", "arity": "2", "tuples": [["0", "1"]]}]},
    {"domain": "ab",
     "relations": [{"name": "E", "arity": 1, "tuples": [["a"]]}]},
    {"domain": ["a", "b"],
     "relations": [{"name": "E", "arity": 2, "tuples": ["ab", "ba"]}]},
    {"domain": ["a"],
     "relations": [{"name": None, "arity": 1, "tuples": [["a"]]}]},
    {"domain": ["a"],
     "relations": [{"name": ["E"], "arity": 1, "tuples": [["a"]]}]},
    {"domain": [None, ["a"]],
     "relations": [{"name": "E", "arity": 2, "tuples": [[None, ["a"]]]}]},
    {"domain": ["True", "1.5"],
     "relations": [{"name": "E", "arity": 2, "tuples": [[True, "1.5"]]}]},
    {"domain": ["True", "1.5"],
     "relations": [{"name": "E", "arity": 2, "tuples": [["True", 1.5]]}]},
], ids=["string-arity", "string-domain", "string-tuples", "null-name",
        "list-name", "null-and-list-elements", "boolean-entry",
        "float-entry"])
def test_mistyped_structure_is_a_usage_error(tmp_path, capsys, obj):
    path = write_json(tmp_path, "bad.json", obj)
    assert main(["build", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_string_tuples_are_not_read_as_pairs(tmp_path, capsys):
    template = write_json(tmp_path, "t.json", {
        "domain": ["a", "b"],
        "relations": [{"name": "E", "arity": 2, "tuples": ["ab", "ba"]}]})
    edge = write_json(tmp_path, "i.json", {
        "domain": ["x", "y"],
        "relations": [{"name": "E", "arity": 2, "tuples": [["x", "y"]]}]})
    assert main(["solve", template, "--input", edge]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("obj", [
    {"vertices": "ab", "edges": [["a", "b"]]},
    {"vertices": ["a", "b"], "edges": [["a", "b", "a"]]},
    {"vertices": ["a", "b"], "edges": ["ab"]},
    {"vertices": ["a", "b", "a"], "edges": []},
    {"vertices": ["a", "b"], "edges": [["a", "z"]]},
    {"vertices": [None, 1.5], "edges": [[None, 1.5]]},
    {"vertices": ["True", "b"], "edges": [[True, "b"]]},
], ids=["string-vertices", "three-vertex-edge", "string-edge",
        "duplicate-vertex", "unknown-vertex", "null-and-float-vertices",
        "boolean-edge-end"])
def test_mistyped_digraph_is_a_usage_error(tmp_path, capsys, obj):
    path = write_json(tmp_path, "bad.json", obj)
    assert main(["backward", "2cycle", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_empty_digraph_file_maps_to_the_gadget(tmp_path, capsys):
    path = write_json(tmp_path, "empty.json", {"vertices": [], "edges": []})
    assert main(["backward", "2cycle", "--input", path]) == 0
    assert capsys.readouterr().out.startswith("YES\n")


@pytest.mark.parametrize("obj", [
    {"hyperedges": [{"entries": "ab"}], "equalities": []},
    {"hyperedges": [{"entries": ["ab", ["c"]]}], "equalities": []},
    {"hyperedges": "xy", "equalities": []},
    {"hyperedges": [[["a"], ["b"]]], "equalities": []},
    {"hyperedges": [{"label": 3, "entries": [["a"], ["b"]]}],
     "equalities": []},
    {"hyperedges": [{"entries": [["a"], ["b"]]}], "equalities": [1]},
], ids=["string-entries", "string-entry", "string-hyperedges",
        "list-hyperedge", "number-label", "number-equality"])
def test_mistyped_stage3a_file_is_a_usage_error(tmp_path, capsys, obj):
    path = write_json(tmp_path, "bad.json", obj)
    assert main(["backward", "--from-stage3a", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def malformed_identities(tmp_path):
    ids = tmp_path / "bad.ids"
    ids.write_text("f(x, y) = f(x)\n")
    return ["poly", "2cycle", "--identities", str(ids)]


def test_symbol_at_two_arities_is_a_usage_error(tmp_path, capsys):
    ids = tmp_path / "mixed.ids"
    ids.write_text("idempotent f\nf(x, y) = f(y, x)\nf(x, x, y) = x\n")
    assert main(["poly", "2cycle", "--identities", str(ids)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def relation_missing_from_the_target(tmp_path):
    path = write_json(tmp_path, "i.json", {
        "domain": ["x"],
        "relations": [{"name": "R", "arity": 1, "tuples": [["x"]]}]})
    return ["solve", "2cycle", "--input", path]


def too_many_indicators(tmp_path):
    names = [str(i) for i in range(8)]
    path = write_json(tmp_path, "k8.json", {
        "domain": names,
        "relations": [{"name": "E", "arity": 2, "tuples": [
            [u, v] for u in names for v in names if u != v]}]})
    return ["poly", path, "--wnu", "6"]


def empty_relation(tmp_path):
    path = write_json(tmp_path, "t.json", {
        "domain": ["a"],
        "relations": [{"name": "E", "arity": 2, "tuples": []}]})
    return ["build", path]


@pytest.mark.parametrize("make_args", [
    malformed_identities, relation_missing_from_the_target,
    too_many_indicators, empty_relation,
], ids=["identity-parse", "solver-usage", "size-guard", "empty-relation"])
def test_value_error_subclasses_are_usage_errors(tmp_path, capsys, make_args):
    assert main(make_args(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_lift_invariant_failure_exits_4(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise LiftInvariantError("broken invariant")

    monkeypatch.setattr(cli, "lift_general", broken)
    assert main(["lift", "2cycle", "--wnu", "3"]) == 4
    assert capsys.readouterr().err == "internal error: broken invariant\n"


def test_running_out_of_memory_exits_3(monkeypatch, capsys):
    """Memory is a resource like the node budget: running out of it is
    exit 3 with one line, never a traceback or a negative answer."""
    def exhausted(*args, **kwargs):
        raise MemoryError("indicator table")

    monkeypatch.setattr(cli, "find_interpretations", exhausted)
    assert main(["poly", "2cycle", "--wnu", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "out of memory: MemoryError('indicator table')\n"


def test_failed_lift_verification_exits_4(monkeypatch, capsys):
    """A lift that fails its own exhaustive verification is a broken
    invariant, not a negative answer."""
    lift_general = cli.lift_general
    x = elem_name("0")

    def one_wrong_tuple(*args, **kwargs):
        w = lift_general(*args, **kwargs)["w"]

        def bad(*c):
            return bad.row(c[:-1])[w.domain.index(c[-1])]

        def row(prefix):
            values = w.row(prefix)
            if prefix != (x, x):
                return values
            i = w.domain.index(x)
            return values[:i] + (elem_name("1"),) + values[i + 1:]

        bad.arity, bad.domain, bad.row = w.arity, w.domain, row
        return {"w": bad}

    monkeypatch.setattr(cli, "lift_general", one_wrong_tuple)
    assert main(["lift", "2cycle", "--wnu", "3", "--verify"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "lifted w (arity 3) to 24 vertices\n"
    assert captured.err == (
        "internal error: verification failed: identity failure: "
        f"('idempotent w', {{'x': '{x}'}})\n")


def test_assertion_in_the_backward_reduction_exits_4(tmp_path, monkeypatch,
                                                     capsys):
    def broken(*args, **kwargs):
        raise AssertionError("interior piece with neither bases nor tops")

    monkeypatch.setattr(reductions, "internal_components", broken)
    path = write_json(tmp_path, "path.json", {
        "vertices": [f"v{i}" for i in range(5)],
        "edges": [[f"v{i}", f"v{i + 1}"] for i in range(4)]})
    assert main(["backward", "2cycle", "--input", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: interior piece with neither "
                            "bases nor tops\n")


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
