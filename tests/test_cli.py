import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from tppverify import cli
from tppverify.cli import main
from tppverify.groups import MatrixGroupOps, TableGroup
from tppverify.instances import (
    canonical_json,
    instance_from_json,
    instance_to_json,
    save_instance,
)
from tppverify.matrices import Mat, mat_exp_trunc
from tppverify.scalars import GaussRational, QQ
from tppverify.series import INF_ORDER, EpsLaurent
from tppverify.tpp import TppInstance


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_repdim_exit_and_csv(capsys):
    code, out = run_cli(["repdim", "--n", "3", "--s", "6", "--format", "csv",
                         "--no-timestamp"], capsys)
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header == ["s", "n", "max_partition", "max_dim", "bound_s_pow",
                      "tighter_bound", "sum_sq", "binom_check"]
    assert len(out.splitlines()) == 8


def test_omega_pass_and_no_bound(capsys):
    code, out = run_cli(["omega", "--size-x", "8", "--size-y", "8", "--size-z", "8",
                         "--dsum", "64", "--dmax", "2", "--no-timestamp"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["details"]["omega_bound"] - 2.0) < 1e-12
    code, out = run_cli(["omega", "--size-x", "2", "--size-y", "2", "--size-z", "2",
                         "--dsum", "4", "--dmax", "2", "--no-timestamp"], capsys)
    assert code == 1
    assert json.loads(out)["verdict"] == "no_bound"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["repdim", "--n", "3"])  # missing --s
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3


def test_tpp_verify_instance_roundtrip(tmp_path, capsys):
    g = TableGroup.cyclic(5)
    inst = TppInstance(g, list(range(5)), [0], [0], "table")
    path = tmp_path / "z5.json"
    save_instance(inst, str(path))
    code, out = run_cli(["tpp-verify", "--instance", str(path), "--no-timestamp"],
                        capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_tpp_verify_broken_instance_exit1(tmp_path, capsys):
    g = TableGroup.cyclic(2)
    inst = TppInstance(g, [0, 1], [0, 1], [0], "table")
    path = tmp_path / "broken.json"
    save_instance(inst, str(path))
    code, out = run_cli(["tpp-verify", "--instance", str(path), "--no-timestamp"],
                        capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] == "fail"
    assert rep["details"]["report"]["witness"]["indices"] == [0, 1, 0, 1, 0, 0]


def test_tpp_verify_family_inconclusive_exit2(tmp_path, capsys):
    # two families agreeing through the window except beyond the checked order
    ops = MatrixGroupOps(2)
    a = Mat.zeros(2, 2)
    a[1, 0] = 1
    x1 = mat_exp_trunc(a, 3)
    x2 = mat_exp_trunc(a, 3)
    x2[0, 1] = x2[0, 1] + EpsLaurent({3: 1}, lo=0, hi=3)
    ident = Mat.identity(2, one=EpsLaurent.const(1), zero=EpsLaurent.zero())
    inst = TppInstance(ops, [x1, x2], [ident], [ident.copy()], "family")
    path = tmp_path / "fam.json"
    save_instance(inst, str(path))
    code, out = run_cli(["tpp-verify", "--instance", str(path), "--order", "2",
                         "--no-timestamp"], capsys)
    assert code == 2
    assert json.loads(out)["verdict"] == "inconclusive"


def test_tpp_verify_unlimited_window_nilpotent_inverse(tmp_path, capsys):
    # [[1, eps], [0, 1]] in the {exponent: coefficient} shorthand has an
    # unlimited window; N = M - I squares to 0, so its inverse is exactly
    # [[1, -eps], [0, 1]] and the instance verifies
    ident = [[{"0": "1"}, {}], [{}, {"0": "1"}]]
    unipotent = [[{"0": "1"}, {"1": "1"}], [{}, {"0": "1"}]]
    obj = _matrix_instance("family", 2, [ident, unipotent], [ident], [ident])
    path = tmp_path / "unipotent.json"
    path.write_text(json.dumps(obj))
    code, out = run_cli(["tpp-verify", "--instance", str(path), "--no-timestamp"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    inv = instance_from_json(obj).inv_element("x", 1)
    assert [s.coeffs for s in inv.data] == [{0: 1}, {1: -1}, {}, {0: 1}]
    assert all(s.hi == INF_ORDER for s in inv.data)


def test_instance_json_roundtrip_exact_mode():
    ops = MatrixGroupOps(2)
    m1 = Mat.identity(2).map(lambda v: GaussRational(v))
    m2 = Mat.from_rows([[GaussRational(1), GaussRational(QQ(1, 2), QQ(3, 4))],
                        [GaussRational(0), GaussRational(1)]])
    inst = TppInstance(ops, [m1, m2], [m1.copy()], [m1.copy()], "exact")
    back = instance_from_json(json.loads(canonical_json(instance_to_json(inst))))
    assert back.mode == "exact"
    assert back.x[1] == m2


def test_sep_verify_cli(tmp_path, capsys):
    from tppverify.sepfun import Product

    ops = MatrixGroupOps(2)
    ident = Mat.identity(2, one=EpsLaurent.const(1), zero=EpsLaurent.zero())
    inst = TppInstance(ops, [ident], [ident.copy()], [ident.copy()], "family")
    inst_path = tmp_path / "inst.json"
    save_instance(inst, str(inst_path))
    sep_path = tmp_path / "sep.json"
    sep_path.write_text(json.dumps({"family": {"0,0": Product([]).to_json()}}))
    code, out = run_cli(["sep-verify", "--instance", str(inst_path),
                         "--sepfile", str(sep_path), "--no-timestamp"], capsys)
    assert code == 0


def test_running_example_cli(capsys):
    code, out = run_cli(["running-example", "--n", "3", "--q", "2",
                         "--y-count", "3", "--no-timestamp"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["tpp"]["verdict"] == "pass"


def test_running_example_border_cli_records_deviation(capsys):
    code, out = run_cli(["running-example", "--n", "3", "--q", "2", "--border",
                         "--set-cap", "20", "--no-timestamp"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert any("sign" in d for d in rep["deviations"])


def test_su_construct_and_verify_cli(capsys):
    code, out = run_cli(["su-construct", "--n", "4", "--no-timestamp"], capsys)
    assert code == 0
    code, out = run_cli(["su-verify", "--n", "4", "--q", "2", "--trials", "50",
                         "--pairs", "20", "--no-timestamp"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["kvn"]["verdict"] == "pass"
    assert rep["details"]["nominal_constant_integral_failures"] > 0
    assert any("2*(n!)^2" in d for d in rep["deviations"])


def test_split_assemble_cli_deterministic(tmp_path, capsys):
    args = ["split-assemble", "--n", "4", "--q", "2", "--sample-budget", "200",
            "--seed", "5", "--y-cap", "16", "--no-timestamp"]
    code1, out1 = run_cli(args, capsys)
    code2, out2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical with the same seed
    rep = json.loads(out1)
    assert rep["verdict"] == "pass"
    assert rep["details"]["tpp"]["seed"] == 5


def test_split_assemble_emit_instance_feeds_tpp_verify(tmp_path, capsys):
    inst_path = tmp_path / "assembled.json"
    code, out = run_cli(["split-assemble", "--n", "4", "--q", "2",
                         "--sample-budget", "150", "--seed", "2", "--y-cap", "8",
                         "--emit-instance", str(inst_path), "--no-timestamp"], capsys)
    assert code == 0
    code, out = run_cli(["tpp-verify", "--instance", str(inst_path), "--order", "3",
                         "--mode", "sampled", "--sample-budget", "150",
                         "--no-timestamp"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "pass"
    assert rep["details"]["sizes"] == [4, 8, 4]


BAD_INSTANCES = {
    "no-group.json": {"schema": 1, "mode": "table", "x": [0], "y": [0], "z": [0]},
    "ragged.json": {"schema": 1, "mode": "exact", "group": {"type": "matrix", "dim": 2},
                    "x": [[["1", "0"], ["0"]]], "y": [], "z": []},
    "no-dim.json": {"schema": 1, "mode": "exact", "group": {"type": "matrix"},
                    "x": [], "y": [], "z": []},
    "no-x.json": {"schema": 1, "mode": "exact", "group": {"type": "matrix", "dim": 2},
                  "y": [], "z": []},
    "dim-two.json": {"schema": 1, "mode": "exact", "group": {"type": "matrix", "dim": "two"},
                     "x": [], "y": [], "z": []},
    "zero-den.json": {"schema": 1, "mode": "exact", "group": {"type": "matrix", "dim": 1},
                      "x": [[["1/0"]]], "y": [], "z": []},
    "group-list.json": {"schema": 1, "mode": "exact", "group": ["matrix", 2],
                        "x": [], "y": [], "z": []},
    "outside-z2.json": {"schema": 1, "mode": "table", "x": [0], "y": [2], "z": [0],
                        "group": {"type": "table", "table": [[0, 1], [1, 0]],
                                  "identity": 0}},
}


def _window(coeffs, hi=3):
    return {"coeffs": coeffs, "lo": min([0, *map(int, coeffs)]), "hi": hi}


def _matrix_instance(mode, dim, x, y, z):
    return {"schema": 1, "mode": mode, "group": {"type": "matrix", "dim": dim},
            "x": x, "y": y, "z": z}


_ONE, _ZERO = _window({"0": "1"}), _window({})
_FAMILY_I = [[_window({"0": "1", "1": "1"}), _ZERO], [_ZERO, _ONE]]
_EXACT_I = [["1", "0"], ["0", "1"]]
# elements that load but have no inverse: a singular constant term, a
# singular exact matrix; and a Y of 3x3 elements in a group of dimension 2
BAD_INSTANCES.update({
    "family-singular.json": _matrix_instance(
        "family", 2, [_FAMILY_I, [[_ONE, _ONE], [_ONE, _window({"0": "1", "1": "1"})]]],
        [_FAMILY_I], [_FAMILY_I]),
    "exact-singular.json": _matrix_instance(
        "exact", 2, [_EXACT_I, [["1", "1"], ["1", "1"]]], [_EXACT_I], [_EXACT_I]),
    "family-mis-sized.json": _matrix_instance(
        "family", 2, [_FAMILY_I], [[[_ONE, _ZERO, _ZERO], [_ZERO, _ONE, _ZERO],
                                    [_ZERO, _ZERO, _ONE]]], [_FAMILY_I]),
})

ENTRY = {"kind": "entry", "i": 0, "j": 0}

# A valid instance, and sep files for it with node kinds, a pk node with k = 2
# and a polynomial form that sep-verify does not accept, or with nothing to
# verify.
SEP_FILES = {
    "z2.json": {"schema": 1, "mode": "table", "x": [0], "y": [0], "z": [0],
                "group": {"type": "table", "table": [[0, 1], [1, 0]], "identity": 0}},
    "const.json": {"family": {"0,0": {"kind": "const", "value": "1"}}},
    "trace.json": {"family": {"0,0": {"kind": "trace"}}},
    "shift.json": {"family": {"0,0": {"kind": "shift_identity", "c": "-1", "child": ENTRY}}},
    "eps-shift.json": {"family": {"0,0": {"kind": "mat_eps_shift", "k": -1, "child": ENTRY}}},
    "coeffs.json": {"family": {"0,0": {"kind": "poly", "child": ENTRY,
                                       "poly": {"form": "coeffs", "coeffs": ["0", "1"]}}}},
    "pk2.json": {"family": {"0,0": {"kind": "pk", "k": 2, "d": {"entries": [["1"]]}}}},
    "empty.json": {"family": {}},
    "no-j.json": {"family": {"0,0": {"kind": "product",
                                     "children": [{"kind": "entry", "i": 0}]}}},
}


def sep_verify(sepfile):
    return ["sep-verify", "--instance", "z2.json", "--sepfile", sepfile]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["split-assemble", "--n", "4", "--q", "0", "--sample-budget", "10"],
                 "--q must be at least 2", id="0"),
    pytest.param(["split-assemble", "--n", "4", "--q", "1", "--sample-budget", "10"],
                 "--q must be at least 2", id="1"),
    pytest.param(["running-example", "--n", "3", "--q", "0"],
                 "--q must be at least 2", id="running-example-q0"),
    pytest.param(["running-example", "--n", "3", "--q", "1"],
                 "--q must be at least 2", id="running-example-q1"),
    pytest.param(["running-example", "--n", "3", "--q", "1", "--border"],
                 "--q must be at least 2", id="running-example-border-q1"),
    pytest.param(["running-example", "--n", "1", "--q", "2"],
                 "--n must be at least 2", id="running-example-n1"),
    pytest.param(["su-verify", "--n", "4", "--q", "0", "--trials", "5", "--pairs", "2"],
                 "--q must be at least 1", id="su-verify-q0"),
    # no pair or no trial checks nothing, and would pass
    pytest.param(["su-verify", "--n", "4", "--q", "2", "--pairs", "0", "--trials", "0"],
                 "--pairs must be at least 1", id="su-verify-pairs0"),
    pytest.param(["su-verify", "--n", "4", "--q", "2", "--pairs", "-3", "--trials", "5"],
                 "--pairs must be at least 1", id="su-verify-pairs-3"),
    pytest.param(["su-verify", "--n", "4", "--q", "2", "--pairs", "2", "--trials", "0"],
                 "--trials must be at least 1", id="su-verify-trials0"),
    pytest.param(["embed-demo", "--trials", "0"],
                 "--trials must be at least 1", id="embed-demo-trials0"),
    # the instance is never read: the budget is rejected before any driver runs
    pytest.param(["tpp-verify", "--instance", "z2.json", "--mode", "sampled",
                  "--sample-budget", "0"],
                 "--sample-budget must be at least 1", id="tpp-verify-budget0"),
    pytest.param(["tpp-verify", "--instance", "z2.json", "--mode", "sampled",
                  "--sample-budget", "-1"],
                 "--sample-budget must be at least 1", id="tpp-verify-budget-1"),
    pytest.param(["split-assemble", "--n", "4", "--q", "2", "--y-cap", "2",
                  "--sample-budget", "0"],
                 "--sample-budget must be at least 1", id="split-assemble-budget0"),
    # instance files that cannot be loaded (written by the test, see BAD_INSTANCES)
    pytest.param(["tpp-verify", "--instance", "no-group.json"],
                 "unknown group descriptor None", id="instance-no-group"),
    pytest.param(["tpp-verify", "--instance", "ragged.json"],
                 "malformed matrix: ragged rows", id="instance-ragged"),
    pytest.param(["tpp-verify", "--instance", "no-dim.json"],
                 "matrix group descriptor is missing 'dim'", id="instance-no-dim"),
    pytest.param(["tpp-verify", "--instance", "no-x.json"],
                 "instance file is missing 'x'", id="instance-no-x"),
    # malformed values, not missing keys: each names the key it was under
    pytest.param(["tpp-verify", "--instance", "dim-two.json"],
                 "malformed 'dim': 'two'", id="instance-dim-not-int"),
    pytest.param(["tpp-verify", "--instance", "zero-den.json"],
                 "malformed value under 'x': ZeroDivisionError", id="instance-zero-den"),
    pytest.param(["tpp-verify", "--instance", "group-list.json"],
                 "'group' must be a JSON object", id="instance-group-not-object"),
    pytest.param(["tpp-verify", "--instance", "outside-z2.json"],
                 "Y holds an element that is not an index below the group order 2",
                 id="instance-element-outside-table"),
    pytest.param(["tpp-verify", "--instance", "family-singular.json"],
                 "x[1] has no inverse: singular matrix", id="instance-family-singular"),
    pytest.param(["tpp-verify", "--instance", "exact-singular.json"],
                 "x[1] has no inverse: singular matrix", id="instance-exact-singular"),
    pytest.param(["tpp-verify", "--instance", "family-mis-sized.json"],
                 "y[0] is 3x3, but the group has dimension 2", id="instance-mis-sized"),
    pytest.param(["running-example", "--n", "3", "--q", "2", "--set-cap", "0"],
                 "--set-cap must be at least 1", id="running-example-set-cap0"),
    pytest.param(["running-example", "--n", "3", "--q", "2", "--y-count", "0"],
                 "--y-count must be at least 1", id="running-example-y-count0"),
    pytest.param(sep_verify("const.json"), "unknown node kind 'const'", id="sep-const"),
    pytest.param(sep_verify("trace.json"), "unknown node kind 'trace'", id="sep-trace"),
    pytest.param(sep_verify("shift.json"), "unknown node kind 'shift_identity'",
                 id="sep-shift-identity"),
    pytest.param(sep_verify("eps-shift.json"), "unknown node kind 'mat_eps_shift'",
                 id="sep-mat-eps-shift"),
    pytest.param(sep_verify("coeffs.json"), "unknown polynomial form 'coeffs'",
                 id="sep-poly-coeffs"),
    pytest.param(sep_verify("pk2.json"), "pk node needs k = 1 (got k = 2)", id="sep-pk-k2"),
    pytest.param(sep_verify("empty.json"), "family is empty", id="sep-empty-family"),
    pytest.param(sep_verify("no-j.json"), "entry node is missing key 'j'", id="sep-no-key"),
])
def test_split_assemble_rejects_small_q(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, obj in {**BAD_INSTANCES, **SEP_FILES}.items():
        (tmp_path / name).write_text(json.dumps(obj))
    code = main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_unexpected_exception_exits_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("planted bug")

    monkeypatch.setitem(cli._DRIVERS, "repdim", broken)
    code = main(["repdim", "--n", "3", "--s", "6", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 4  # never 1, which would claim a failed verification
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "RuntimeError: planted bug" in captured.err
    assert "internal error" in captured.err


def test_report_schema_fields(capsys):
    code, out = run_cli(["su-construct", "--n", "4", "--no-timestamp"], capsys)
    rep = json.loads(out)
    for key in ("schema", "tool", "command", "config", "verdict", "deviations",
                "details"):
        assert key in rep
    assert rep["schema"] == 1
    assert rep["config"]["seed"] == 0
    assert "timestamp" not in rep


def test_timestamp_present_by_default(capsys):
    code, out = run_cli(["su-construct", "--n", "4"], capsys)
    assert "timestamp" in json.loads(out)


def test_output_file_and_text_format(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code, _ = run_cli(["repdim", "--n", "2", "--s", "3", "--output", str(path),
                       "--no-timestamp"], capsys)
    assert code == 0
    assert json.loads(path.read_text())["verdict"] == "pass"
    code, out = run_cli(["repdim", "--n", "2", "--s", "3", "--format", "text",
                         "--no-timestamp"], capsys)
    assert out.startswith("tppverify 0.1.0")


# The full split-assemble report at the su-exhaustive shape (Y capped at 2,
# every TPP and separation tuple), pinned byte for byte.
GOLDEN_SPLIT_ARGV = ["split-assemble", "--n", "4", "--q", "2", "--y-cap", "2",
                     "--sample-budget", "1024", "--seed", "0", "--no-timestamp"]
GOLDEN_SPLIT = {"command": "split-assemble",
 "config": {"emit_instance": None,
            "mode": "auto",
            "n": 4,
            "no_timestamp": True,
            "order": None,
            "q": 2,
            "sample_budget": 1024,
            "seed": 0,
            "subcommand": "split-assemble",
            "t": None,
            "tol": 1e-09,
            "y_cap": 2},
 "details": {"cardinalities": {"X": 4,
                               "X_target": 4,
                               "Y": 2,
                               "Y_sampled": True,
                               "Y_target": 4,
                               "Z": 4,
                               "Z_target": 4,
                               "theta_rank": 8},
             "degrees": {"deg_p0": "172",
                         "deg_r": "4",
                         "deg_r_bound": "4",
                         "deg_total": "176"},
             "deviations": ["trace-deficit integrality: the constant 2*(n!)^2 does not "
                            "clear the denominators of c (counterexample at n=4: c has "
                            "denominator 41472 = 2*(n!/(n/2)!)^4 > 2*(n!)^2 = 1152); the "
                            "verified clearing constant is 2*(n!/(n/2)!)^4",
                            "indicator nodes are the exact achievable trace-deficit "
                            "values, not the full arithmetic grid (grid would have "
                            "2*(n!/(n/2)!)^4 * c_max ~ 10^8 nodes at n=4, q=2); the grid "
                            "bound is reported as degree_bound_grid",
                            "reparametrization skipped (t = 1): every middle family is I "
                            "+ O(eps), so no negative eps powers arise and the exponent "
                            "guard t > deg r is unnecessary; forcing t = deg r + 1 would "
                            "push the invariant deficit to eps^(2t), beyond any window "
                            "of order t + 2"],
             "n": 4,
             "notes": ["middle families are I + O(eps); reparametrization skipped (t = "
                       "1)",
                       "DPP series check: pass (256 tuples)",
                       "p0 invariance audit: 50 random sandwiches exact"],
             "order": 3,
             "p0": {"c_max": "6891313/2592",
                    "deg_r": 43,
                    "deg_tracked": 172,
                    "degree_bound_grid": 110261008,
                    "nodes": 44,
                    "nodes_exhaustive": True},
             "q": 2,
             "separating": {"checked": 1024,
                            "order_used": 3,
                            "sampled": False,
                            "verdict": "pass"},
             "t": 1,
             "tpp": {"order_used": 3,
                     "sampled": False,
                     "tuples_checked": 1024,
                     "verdict": "pass"},
             "verdict": "pass"},
 "deviations": ["trace-deficit integrality: the constant 2*(n!)^2 does not clear the "
                "denominators of c (counterexample at n=4: c has denominator 41472 = "
                "2*(n!/(n/2)!)^4 > 2*(n!)^2 = 1152); the verified clearing constant is "
                "2*(n!/(n/2)!)^4",
                "indicator nodes are the exact achievable trace-deficit values, not the "
                "full arithmetic grid (grid would have 2*(n!/(n/2)!)^4 * c_max ~ 10^8 "
                "nodes at n=4, q=2); the grid bound is reported as degree_bound_grid",
                "reparametrization skipped (t = 1): every middle family is I + O(eps), "
                "so no negative eps powers arise and the exponent guard t > deg r is "
                "unnecessary; forcing t = deg r + 1 would push the invariant deficit to "
                "eps^(2t), beyond any window of order t + 2"],
 "schema": 1,
 "tool": {"name": "tppverify", "version": "0.1.0"},
 "verdict": "pass"}



def test_split_assemble_golden_report(capsys):
    code, out = run_cli(GOLDEN_SPLIT_ARGV, capsys)
    assert code == 0
    assert out == canonical_json(GOLDEN_SPLIT)


# -- exit-code contract over small argument ranges -------------------------------

def _has_witness(obj) -> bool:
    """A report names what failed: a witness, or a non-empty failure list."""
    if isinstance(obj, dict):
        if obj.get("witness") or obj.get("failures"):
            return True
        return any(_has_witness(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_witness(v) for v in obj)
    return False


def _table_instance(k, x, y, z):
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    return {"schema": 1, "mode": "table", "x": x, "y": y, "z": z,
            "group": {"type": "table", "table": table, "identity": 0}}


@st.composite
def matrix_instances(draw):
    """Small exact or family instances: mostly of the group's dimension,
    with singular, mis-sized and negative-power elements among them."""
    mode = draw(st.sampled_from(["exact", "family"]))
    dim = draw(st.integers(1, 2))

    def entry():
        if mode == "exact":
            return draw(st.sampled_from(["0", "1", "-1", "2", "1/2"]))
        hi = draw(st.integers(0, 3))
        terms = draw(st.dictionaries(st.integers(-1, hi).map(str),
                                     st.sampled_from(["1", "-1", "2", "1/2"]), max_size=2))
        return _window(terms, hi)

    def element():
        size = dim if draw(st.integers(0, 5)) else draw(st.integers(1, 3))
        return [[entry() for _ in range(size)] for _ in range(size)]

    sets = [[element() for _ in range(draw(st.integers(1, 2)))] for _ in "xyz"]
    return _matrix_instance(mode, dim, *sets)


small = st.integers(-1, 4)
elements = st.lists(st.integers(0, 5), max_size=3, unique=True)
cli_argv = st.one_of(
    st.builds(lambda n, q, border, y_count, cap, budget, seed:
              ["running-example", "--n", str(n), "--q", str(q), "--y-count", str(y_count),
               "--set-cap", str(cap), "--sample-budget", str(budget), "--seed", str(seed)]
              + (["--border"] if border else []),
              st.integers(0, 4), st.integers(-1, 3), st.booleans(), small,
              st.integers(-1, 8), st.integers(-1, 20), st.integers(0, 3)),
    st.builds(lambda n, q, trials, pairs, seed:
              ["su-verify", "--n", str(n), "--q", str(q), "--trials", str(trials),
               "--pairs", str(pairs), "--seed", str(seed)],
              st.integers(2, 6), st.integers(-1, 3), small, small, st.integers(0, 3)),
    st.builds(lambda k, x, y, z, mode, budget, seed:
              ({"inst.json": _table_instance(k, x, y, z)},
               ["tpp-verify", "--instance", "inst.json", "--mode", mode,
                "--sample-budget", str(budget), "--seed", str(seed)]),
              st.integers(2, 6), elements, elements, elements,
              st.sampled_from(["auto", "exhaustive", "sampled"]), st.integers(-1, 30),
              st.integers(0, 3)),
    st.builds(lambda inst, mode, budget, seed:
              ({"inst.json": inst},
               ["tpp-verify", "--instance", "inst.json", "--mode", mode,
                "--sample-budget", str(budget), "--seed", str(seed)]),
              matrix_instances(), st.sampled_from(["auto", "exhaustive", "sampled"]),
              st.integers(1, 30), st.integers(0, 3)),
)


@settings(max_examples=200, deadline=None)
@given(cli_argv)
def test_cli_exit_codes_keep_their_contract(case):
    # 0 pass, 1 fail with a witness, 2 inconclusive, 3 rejected input: never a
    # crash (4), and never a failure without a witness
    files, argv = case if isinstance(case, tuple) else ({}, case)
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        argv = [os.path.join(tmp, a) if a in files else a for a in argv]
        report_path = os.path.join(tmp, "report.json")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--no-timestamp", "--output", report_path])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        if code == 3:
            assert not os.path.exists(report_path)
            return
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        assert code == {"pass": 0, "fail": 1, "inconclusive": 2}[report["verdict"]]
        if code == 1:
            assert _has_witness(report["details"]), (argv, report)
        if code == 0 and argv[0] == "su-verify":
            # a pass that checked no pair would be vacuous
            assert report["details"]["c_pairs_checked"] >= 1, (argv, report)
