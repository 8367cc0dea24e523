import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lurestab import cli, ffnn, problems, radius, sim
from lurestab.cli import main
from lurestab.problems import fixture_path, load_problem, resolve_problem_path
from lurestab.errors import NonzeroBiasError, ProblemFormatError
from test_golden import CASES, GOLDEN, PROBLEMS, TEXT_CASES, golden_argv, transcript


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


@pytest.fixture
def sector_problem(tmp_path):
    """Small certified sector problem with explicit sweep deltas."""
    doc = {
        "system": {
            "A": [[-3.0, 1.0], [1.0, -3.0]],
            "B": [[1.0], [0.5]],
            "C": [[1.0, 1.0]],
        },
        "perturbation": {"D": [[1.0], [1.0]], "E": [[1.0, 1.0]], "norm": "two"},
        "sector": {"Sigma1": [[-0.2]], "Sigma2": [[0.1]]},
        "simulation": {"dt": 0.01, "horizon": 30.0},
        "sweep": {"deltas": [0.0, 0.1]},
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def zero_transfer_problem(tmp_path):
    """example_b with D = 0, so every transfer E M^-1 D is zero."""
    doc = json.loads(fixture_path("example_b.json").read_text())
    doc["perturbation"]["D"] = [[0.0], [0.0], [0.0]]
    doc["network"] = str(fixture_path("gain_network.json"))
    path = tmp_path / "zero_d.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def biased_network_problem(tmp_path):
    """example_b with a network whose hidden layer has a nonzero bias."""
    net = {
        "activation": {"name": "relu"},
        "layers": [
            {"rows": 1, "cols": 1, "weights": [1.0], "bias": [0.5]},
            {"rows": 1, "cols": 1, "weights": [0.5], "bias": [0.0]},
        ],
    }
    (tmp_path / "biased_net.json").write_text(json.dumps(net))
    doc = json.loads(fixture_path("example_b.json").read_text())
    doc["network"] = "biased_net.json"
    path = tmp_path / "biased.json"
    path.write_text(json.dumps(doc))
    return path


def counting(monkeypatch, module, name, calls=None):
    """Replace ``module.name`` by a wrapper; returns the list its calls append to."""
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def gate_calls(monkeypatch):
    """Count ``as_matrix`` calls made through any lurestab module that holds the name."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("lurestab") and hasattr(module, "as_matrix"):
            counting(monkeypatch, module, "as_matrix", calls)
    return calls


def upper_loop_problem(tmp_path, upper):
    """Metzler lower loop ``A``; the sector's upper edge sets the upper loop."""
    doc = {
        "system": {"A": [[-2.0, 1.0], [1.0, -2.0]], "B": [[1.0], [0.0]], "C": [[1.0, 0.0]]},
        "perturbation": {"D": [[1.0], [1.0]], "E": [[1.0, 1.0]], "norm": "two"},
        "sector": {"Sigma1": [[0.0]], "Sigma2": [[upper]]},
    }
    path = tmp_path / "upper_loop.json"
    path.write_text(json.dumps(doc))
    return path


def non_metzler_upper_loop_problem(tmp_path):
    """A non-Metzler plant whose upper loop [[-0.5, -1], [-1, -4]] is Hurwitz,
    by its eigenvalues, and not Metzler: its lower gate fails."""
    doc = {
        "system": {"A": [[-1.0, -1.0], [-1.0, -4.0]], "B": [[1.0], [0.0]], "C": [[1.0, 0.0]]},
        "perturbation": {"D": [[1.0], [1.0]], "E": [[1.0, 1.0]], "norm": "two"},
        "sector": {"Sigma1": [[0.0]], "Sigma2": [[0.5]]},
    }
    path = tmp_path / "non_metzler.json"
    path.write_text(json.dumps(doc))
    return path


def scaled_example_b(tmp_path):
    """example_b in coordinates x = S z, S = diag(1e-100, 1, 1e100): its upper
    loop's kappa_inf exceeds COND_MAX, and only the equilibrated retry solves it."""
    doc = json.loads(fixture_path("example_b.json").read_text())
    scale, unscale = np.diag([1e-100, 1.0, 1e100]), np.diag([1e100, 1.0, 1e-100])
    a, b, c = (np.array(doc["system"][k], dtype=float) for k in "ABC")
    d, e = (np.array(doc["perturbation"][k], dtype=float) for k in "DE")
    doc["system"] = {"A": (unscale @ a @ scale).tolist(), "B": (unscale @ b).tolist(),
                     "C": (c @ scale).tolist()}
    doc["perturbation"].update(D=(unscale @ d).tolist(), E=(e @ scale).tolist())
    doc["network"] = str(fixture_path(doc["network"]))
    path = tmp_path / "scaled_b.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def no_inverse(monkeypatch):
    """Refuses every explicit inverse: a radius comes from the certificate's solve."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", refuse)


class TestProblemLoading:
    def test_bundled_fixture_resolution(self):
        assert resolve_problem_path("example_a.json") == fixture_path("example_a.json")

    def test_explicit_path_wins(self, sector_problem):
        assert resolve_problem_path(sector_problem) == sector_problem

    def test_missing_file(self):
        with pytest.raises(ProblemFormatError):
            resolve_problem_path("no_such_problem.json")

    def test_ragged_matrix_rejected(self, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text('{"system": {"A": [[1, 2], [3]], "B": [[1]], "C": [[1]]}}')
        with pytest.raises(ProblemFormatError) as exc_info:
            load_problem(path)
        assert "ragged" in str(exc_info.value)

    def test_at_most_one_nonlinearity(self, tmp_path):
        doc = {
            "system": {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]},
            "perturbation": {"D": [[1.0]], "E": [[1.0]]},
            "sector": {"Sigma1": [[0.0]], "Sigma2": [[0.0]]},
            "builtin_nonlinearity": "cubic_sine",
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_unknown_builtin(self, tmp_path):
        doc = {
            "system": {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]},
            "perturbation": {"D": [[1.0]], "E": [[1.0]]},
            "builtin_nonlinearity": "quintic",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_norm_override(self):
        problem = load_problem("example_a.json", norm_override="inf")
        from lurestab.linalg import NormKind

        assert problem.pert.norm is NormKind.INF

    def test_network_dimensions_checked(self, tmp_path):
        net = {
            "activation": {"name": "relu"},
            "layers": [{"rows": 1, "cols": 2, "weights": [1.0, 1.0], "bias": [0.0]}],
        }
        (tmp_path / "net.json").write_text(json.dumps(net))
        doc = {
            "system": {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]},
            "perturbation": {"D": [[1.0]], "E": [[1.0]]},
            "network": "net.json",
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    @pytest.mark.parametrize("value", [None, 5, ["net.json"]], ids=["null", "number", "list"])
    def test_network_field_must_be_a_path(self, capsys, tmp_path, value):
        doc = json.loads(fixture_path("example_b.json").read_text())
        doc["network"] = value
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", "--problem", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: network: expected a file path, got {value!r}\n"

    def test_digest_is_stable(self):
        a = load_problem("example_a.json")
        b = load_problem("example_a.json")
        assert a.digest == b.digest and len(a.digest) == 64

    def test_digest_covers_the_network_file(self, capsys, tmp_path):
        net = json.loads(fixture_path("gain_network.json").read_text())
        (tmp_path / "net.json").write_text(json.dumps(net))
        doc = json.loads(fixture_path("example_b.json").read_text())
        doc["network"] = "net.json"
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        before = run_json(capsys, "check", "--problem", str(path))[1]
        net["layers"][-1]["weights"] = [0.5, 0.5]
        (tmp_path / "net.json").write_text(json.dumps(net))
        after = run_json(capsys, "check", "--problem", str(path))[1]
        assert after["results"]["positive_vector"] != before["results"]["positive_vector"]
        assert after["inputs_digest"] != before["inputs_digest"]

    def test_network_file_is_read_once(self, monkeypatch):
        reads = counting(monkeypatch, problems, "_read_json")
        load_problem("example_b.json")
        assert [Path(args[0]).name for args in reads] == ["example_b.json", "gain_network.json"]

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_file_dt_whose_step_count_overflows_exits_one(self, capsys, tmp_path, command):
        doc = json.loads(fixture_path("example_b.json").read_text())
        doc["simulation"] = {"dt": 1e-320}
        doc["network"] = str(fixture_path("gain_network.json"))
        path = tmp_path / "tiny_dt.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--problem", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: simulation: dt and horizon must satisfy")
        assert "horizon / dt < inf" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("sweep", "deltas", 5),
            ("sweep", "deltas", ["a"]),
            ("simulation", "dt", [1]),
            ("simulation", "dt", "x"),
            ("simulation", "dt", -1),
            ("simulation", "horizon", True),
        ],
        ids=["deltas-number", "deltas-string", "dt-list", "dt-string", "dt-negative", "horizon-bool"],
    )
    def test_malformed_simulation_fields_exit_one(self, capsys, tmp_path, section, field, value):
        doc = json.loads(fixture_path("example_a.json").read_text())
        doc[section][field] = value
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sweep", "--problem", str(path), "--trials", "1")
        assert code == 1
        assert err.startswith(f"error: {path}: {section}: ")
        assert err.count(str(path)) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("fixture", ["example_a.json", "example_b.json"])
    @pytest.mark.parametrize("field", ["A", "B", "C", "D", "E"])
    @pytest.mark.parametrize(
        "value",
        [(float("nan"),), ("-5",), (True,),
         "x", 3, None, [], [[]], [1.0, 2.0], [[1.0], [1.0, 2.0]], [[[1.0]]]],
        ids=["nan", "string-entry", "bool-entry",
             "string", "number", "null", "empty", "empty-row", "flat", "ragged", "3d"],
    )
    def test_malformed_matrix_field_names_its_section_and_field(
        self, capsys, tmp_path, fixture, field, value
    ):
        # a 1-tuple is one entry, set at [0][0]; anything else replaces the field
        doc = json.loads(fixture_path(fixture).read_text())
        section = "system" if field in "ABC" else "perturbation"
        if isinstance(value, tuple):
            doc[section][field][0][0] = value[0]
        else:
            doc[section][field] = value
        if "network" in doc:
            doc["network"] = str(fixture_path(doc["network"]))
        path = tmp_path / "bad_matrix.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", "--problem", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: {section}: {field}: ")
        assert err.count(str(path)) == 1
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("where", ["matrix", "number", "network"])
    def test_integer_past_float_range_exits_one(self, capsys, tmp_path, where):
        # json reads 10**400 as an int, which no float holds
        doc = json.loads(fixture_path("example_b.json").read_text())
        net = json.loads(fixture_path("gain_network.json").read_text())
        if where == "matrix":
            doc["system"]["A"][0][0] = 10**400
        elif where == "number":
            doc["simulation"]["dt"] = 10**400
        else:
            net["layers"][0]["weights"][0] = 10**400
        (tmp_path / "net.json").write_text(json.dumps(net))
        doc["network"] = "net.json"
        path = tmp_path / "big_int.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", "--problem", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("norm", [[], ["--norm", "two"]], ids=["file-norm", "norm-two"])
    def test_null_scale_pattern_exits_one(self, capsys, tmp_path, norm):
        # a null S is a malformed matrix, not an absent one
        doc = json.loads((PROBLEMS / "schur.json").read_text())
        doc["perturbation"]["S"] = None
        path = tmp_path / "null_s.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "radius", "--problem", str(path), *norm)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: perturbation") and err.count("\n") == 1
        assert "S: expected a 2-D matrix" in err

    @pytest.mark.parametrize(
        "problem, fields",
        [
            ("example_a.json", ["A", "B", "C", "D", "E", "Sigma1", "Sigma2"]),
            ("example_b.json", ["A", "B", "C", "D", "E", "layer weight", "layer weight"]),
            (str(PROBLEMS / "schur.json"), ["A", "B", "C", "D", "E", "S"]),
        ],
        ids=["example_a", "example_b", "schur"],
    )
    def test_each_matrix_field_passes_the_gate_once(self, monkeypatch, problem, fields):
        # example_a's builtin sector is built at load time; example_b's two
        # network layers are its last two matrices
        calls = gate_calls(monkeypatch)
        load_problem(problem)
        assert sorted(args[1] for args in calls) == sorted(fields)

    def test_check_gates_each_matrix_once(self, capsys, monkeypatch):
        # the 7 input matrices, the network sector's 2, and each closed loop
        # where it is computed
        calls = gate_calls(monkeypatch)
        code, out, err = run_cli(capsys, "check", "--problem", "example_b.json")
        assert code == 0
        loops = ["the closed loop A + B K C"] * 2
        fields = ["A", "B", "C", "D", "E", "layer weight", "layer weight", "Sigma1", "Sigma2"]
        assert sorted(args[1] for args in calls) == sorted(fields + loops)

    LURE = ["Sigma1", "Sigma2", *["the closed loop A + B K C"] * 2,
            "the transfer E (A + B S2 C)^-1 D"]

    # Beyond one gate per matrix field, computed loop and transfer, three re-gates
    # stay as input checks at a public entry point: "matrix" is the transfer again
    # in operator_norm / spectral_radius, the second "A" is the plant again in
    # stability_radius_linear / _schur, and "gain" is the sector's upper edge again
    # in the loader's Nonlinearity.gain.
    @pytest.mark.parametrize("argv, names", [
        (["example_a.json", "--override-gates"], [*LURE, "matrix"]),
        (["example_b.json"], ["layer weight", "layer weight", *LURE, "matrix"]),
        ([str(PROBLEMS / "linear.json")], ["A", "the transfer E A^-1 D", "matrix"]),
        ([str(PROBLEMS / "schur.json")], ["S", "A", "the scaled transfer E A^-1 D S", "matrix"]),
        ([str(PROBLEMS / "sector.json")], ["gain", *LURE, "matrix"]),
    ], ids=["example_a", "example_b", "linear", "schur", "sector"])
    def test_radius_gate_calls(self, capsys, monkeypatch, argv, names):
        calls = gate_calls(monkeypatch)
        code, out, err = run_cli(capsys, "radius", "--problem", *argv)
        assert code == 0
        gated = [args[1] if len(args) > 1 else "matrix" for args in calls]
        assert sorted(gated) == sorted(["A", "B", "C", "D", "E", *names])

    @pytest.mark.parametrize("value", [5, [[1.0]], "x"], ids=["number", "list", "string"])
    def test_non_object_sector_exits_one(self, capsys, tmp_path, sector_problem, value):
        doc = json.loads(sector_problem.read_text())
        doc["sector"] = value
        path = tmp_path / "bad_sector.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", "--problem", str(path))
        assert code == 1
        assert err == f"error: {path}: sector: must be an object\n"

    def test_unordered_sector_exits_one(self, capsys, tmp_path, sector_problem):
        doc = json.loads(sector_problem.read_text())
        doc["sector"] = {"Sigma1": [[1.0]], "Sigma2": [[0.5]]}
        path = tmp_path / "unordered.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", "--problem", str(path))
        assert code == 1
        assert err == (
            f"error: {path}: sector: sector lower bound must be <= upper bound elementwise\n"
        )

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_builtin_on_a_non_square_plant_exits_one(self, capsys, tmp_path, command):
        doc = {
            "system": {"A": [[-2.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
                       "C": [[1.0, 1.0]]},
            "perturbation": {"D": [[1.0], [1.0]], "E": [[1.0, 1.0]]},
            "builtin_nonlinearity": "cubic_sine",
            "sweep": {"deltas": [0.1]},
        }
        path = tmp_path / "two_in_one_out.json"
        path.write_text(json.dumps(doc))
        extra = ["--out", str(tmp_path / "s.csv"), "--trials", "1"] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, "--problem", str(path), *extra)
        assert code == 1
        assert err.startswith(f"error: {path}: builtin_nonlinearity: 'cubic_sine' acts elementwise")
        assert "2 inputs and 1 outputs" in err

    @pytest.mark.parametrize("kind", ["sector", "network", "builtin"])
    def test_feedback_is_resolved_once_at_load(self, tmp_path, sector_problem, kind):
        builtin = tmp_path / "builtin.json"
        builtin.write_text(json.dumps({
            "system": {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]},
            "perturbation": {"D": [[1.0]], "E": [[1.0]]},
            "builtin_nonlinearity": "cubic_sine",
        }))
        path = {"sector": sector_problem, "network": "example_b.json", "builtin": builtin}[kind]
        problem = load_problem(path)
        assert problem.loop_nonlinearity() is not None
        assert problem.loop_nonlinearity() is problem.loop_nonlinearity()
        if kind == "builtin":
            assert problem.analysis_sector is problem.sector
            assert problem.sector.lower.tolist() == [[-2.0]]
            assert problem.sector.upper.tolist() == [[-0.48]]

    def test_simulation_x0_is_not_a_problem_field(self, capsys, tmp_path):
        # sweeps and searches draw their own initial states, so a file x0
        # would be silently ignored
        doc = json.loads(fixture_path("example_a.json").read_text())
        doc["simulation"]["x0"] = [1.0, 1.0]
        path = tmp_path / "x0.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "radius", "--problem", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert "unknown field(s) ['x0']" in err

    @pytest.mark.parametrize(
        "where, value, fault",
        [
            (("layers", 0, "bias"), ["BIG", 0.0], "layer 1: layer bias: contains NaN or infinite"),
            (("layers", 0, "bias"), [[1, 2], [3]], "layer 1: layer bias: not a numeric vector"),
            (("layers", 0, "weights"), ["BIG", 0.7], "layer 1: layer weight: contains NaN or inf"),
            (("layers", 0, "bias"), None, "layer 1: bias: expected numbers, got null"),
            (("layers", 0, "weights"), ["0.7", 0.7], "layer 1: weights: expected numbers, got '0.7'"),
            (("layers", 0, "weights"), [True, 0.7], "layer 1: weights: expected numbers, got True"),
            (("activation",), "relu", "activation: must be an object"),
            (("layers",), [], "network: layers: expected a nonempty list"),
            ((), [], "top level must be a JSON object"),
            (("activation",), {"name": "swish"}, "activation: activation 'swish': not built in"),
            (("activation",), {"name": "relu", "a1": 1.0, "a2": 0.5},
             "activation: activation sector needs a1 < a2"),
            (("layers", 0, "rows"), -1, "layer 1: rows, cols: expected positive integers"),
            (("activation",), {"name": "relu", "a1": 0.0},
             "activation: activation 'relu': only one of a1/a2 given"),
            (("activation",), {"name": 3, "a1": 0.0, "a2": 1.0},
             "activation: name: expected a string, got 3"),
            (("activation",), {"name": 1e308, "a1": 0.0, "a2": 1.0},
             "activation: name: expected a string, got 1e+308"),
        ],
        ids=["bias-inf", "bias-ragged", "weight-inf", "bias-null", "weight-string", "weight-bool",
             "activation-string", "no-layers", "top-list",
             "unknown-activation", "unordered-slopes", "negative-rows", "one-slope",
             "integer-name", "float-name"],
    )
    @pytest.mark.parametrize("route", ["nn-bound", "problem"])
    def test_malformed_network_file_names_its_path_and_section(
        self, capsys, tmp_path, route, where, value, fault
    ):
        # set the field at ``where`` (the whole file if empty); "BIG" stands
        # for the literal 1e999, which json reads as inf but cannot write
        net = json.loads(fixture_path("gain_network.json").read_text())
        if where:
            parent = net
            for key in where[:-1]:
                parent = parent[key]
            parent[where[-1]] = value
        else:
            net = value
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net).replace('"BIG"', "1e999"))
        if route == "nn-bound":
            argv = ["nn-bound", "--network", str(net_path)]
        else:
            doc = json.loads(fixture_path("example_b.json").read_text())
            doc["network"] = "net.json"
            (tmp_path / "p.json").write_text(json.dumps(doc))
            argv = ["check", "--problem", str(tmp_path / "p.json")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {net_path}: {fault}")
        assert err.count(str(net_path)) == 1
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "argv, problem, fault",
        [
            (["check"], PROBLEMS / "linear.json",
             "check needs a sector, network, or builtin nonlinearity"),
            (["sweep", "--trials", "1"], PROBLEMS / "linear.json",
             "sweep needs a sector, network, or builtin nonlinearity"),
            (["refine"], PROBLEMS / "sector.json", "refine needs a problem with a network"),
            (["nn-bound"], fixture_path("example_a.json"), "nn-bound needs a problem with a network"),
        ],
        ids=["check-linear", "sweep-linear", "refine-sector", "nn-bound-builtin"],
    )
    def test_kind_mismatch_names_the_problem_file(self, capsys, tmp_path, argv, problem, fault):
        extra = ["--out", str(tmp_path / "s.csv")] if argv[0] == "sweep" else []
        code, out, err = run_cli(capsys, argv[0], "--problem", str(problem), *argv[1:], *extra)
        assert (code, out, err) == (1, "", f"error: {problem}: {fault}\n")

    def test_refine_on_a_structured_perturbation_names_the_problem_file(self, capsys, tmp_path):
        doc = json.loads(fixture_path("example_b.json").read_text())
        doc["perturbation"].update(D=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                                   E=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        doc["network"] = str(fixture_path(doc["network"]))
        path = tmp_path / "structured.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "refine", "--problem", str(path), "--delta-crit", "1")
        assert (code, out) == (1, "")
        assert err == f"error: {path}: refine needs a scalar perturbation structure\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--trials", "1", "--horizon", "1", "--dt", "0.1"],
        ["refine", "--delta-crit", "3.15"],
        ["refine", "--trials", "1", "--horizon", "1", "--dt", "0.1"],
    ], ids=["sweep", "refine-given", "refine-search"])
    def test_custom_activation_is_refused_where_the_network_is_evaluated(
        self, capsys, tmp_path, argv
    ):
        # its slopes suffice to certify the loop, but no command can evaluate it
        net = json.loads(fixture_path("gain_network.json").read_text())
        net["activation"] = {"name": "swish", "a1": 0.0, "a2": 1.0}
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))
        doc = json.loads(fixture_path("example_b.json").read_text())
        doc["network"] = "net.json"
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        for command in ("check", "radius", "nn-bound"):
            assert run_cli(capsys, command, "--problem", str(path))[0] == 0
        extra = ["--out", str(tmp_path / "s.csv")] if argv[0] == "sweep" else []
        code, out, err = run_cli(capsys, argv[0], "--problem", str(path), *argv[1:], *extra)
        assert (code, out) == (1, "")
        assert err == (f"error: {net_path}: activation: 'swish' is not built in, "
                       "so the network cannot be evaluated\n")

    @pytest.mark.parametrize(
        "text, fault",
        [
            ("[" * 200_000 + "]" * 200_000, "nested too deeply"),
            ('{"A": ' + "1" * 5000 + "}", "an integer over 4300 digits"),
        ],
        ids=["deep", "long-int"],
    )
    @pytest.mark.parametrize("kind", ["problem", "network"])
    def test_json_past_the_decoder_limits_exits_one(self, capsys, tmp_path, kind, text, fault):
        path = tmp_path / "limit.json"
        path.write_text(text)
        argv = ["check", "--problem"] if kind == "problem" else ["nn-bound", "--network"]
        code, out, err = run_cli(capsys, *argv, str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: invalid JSON: {fault}\n"


class TestOverflowingInputs:
    """One finite 1e308 entry makes a computed matrix overflow.  The check that
    follows each overflow decides the outcome; numpy does not warn."""

    @pytest.mark.parametrize(
        "fixture, section, field, argv, code, err",
        [
            ("example_a.json", "system", "B", ["check"], 2,
             "error: the closed loop A + B K C: contains NaN or infinite entries\n"),
            ("example_a.json", "perturbation", "E", ["radius", "--override-gates"], 2,
             "error: the transfer E (A + B S2 C)^-1 D: contains NaN or infinite entries\n"),
            # the kappa bound of the upper loop's solve fails, so its gate does
            ("example_b.json", "system", "B", ["check"], 2, ""),
            # the RK4 steps overflow; the blow-up rule halts the column
            ("example_b.json", "system", "B",
             ["sweep", "--trials", "1", "--horizon", "1", "--dt", "0.05"], 0, ""),
        ],
        ids=["loop", "transfer", "kappa", "rk4"],
    )
    def test_overflow_is_named_not_warned(
        self, capsys, tmp_path, fixture, section, field, argv, code, err
    ):
        doc = json.loads(fixture_path(fixture).read_text())
        doc[section][field][0][0] = 1e308
        if "network" in doc:
            doc["network"] = str(fixture_path(doc["network"]))
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        extra = ["--out", str(tmp_path / "sweep.csv")] if argv[0] == "sweep" else []
        result = run_cli(capsys, *argv, "--problem", str(path), *extra)
        assert (result[0], result[2]) == (code, err)

    def test_network_weight_product_overflow_is_named(self, capsys, tmp_path):
        net = json.loads(fixture_path("gain_network.json").read_text())
        for layer in net["layers"]:
            layer["weights"] = [1e308] * len(layer["weights"])
        path = tmp_path / "big_net.json"
        path.write_text(json.dumps(net))
        code, out, err = run_cli(capsys, "nn-bound", "--network", str(path))
        assert (code, out) == (2, "")
        assert err == "error: the network's weight product overflows\n"


class TestCheckCommand:
    def test_certified_problem_exits_zero(self, capsys):
        code, data = run_json(capsys, "check", "--problem", "example_b.json")
        assert code == 0
        assert data["results"]["verdict"] is True
        assert data["results"]["positive_vector"] is not None

    def test_gate_failure_exits_two_with_explanation(self, capsys):
        code, data = run_json(capsys, "check", "--problem", "example_a.json")
        assert code == 2
        assert data["results"]["verdict"] is False
        assert data["results"]["gate_metzler_at_lower"] is False
        assert data["results"]["gate_hurwitz_at_upper"] is True
        assert data["results"]["metzler_at_upper"] is True
        assert any("metzler_at_lower" in w for w in data["warnings"])

    def test_malformed_problem_exits_one(self, capsys, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text('{"system": {"A": [[1, 2], [3]], "B": [[1]], "C": [[1]]}}')
        code, out, err = run_cli(capsys, "check", "--problem", str(path))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("which", ["problem", "network"])
    def test_non_utf8_file_exits_one(self, capsys, tmp_path, which):
        bad = tmp_path / f"{which}.json"
        bad.write_bytes(b'{"name": "\xff"}')
        if which == "problem":
            path = bad
        else:
            doc = json.loads(fixture_path("example_b.json").read_text())
            doc["network"] = str(bad)
            path = tmp_path / "uses_bad_network.json"
            path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", "--problem", str(path))
        assert code == 1
        assert err.startswith(f"error: {bad}: ")

    def test_unreadable_problem_exits_one(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "check", "--problem", str(tmp_path))
        assert code == 1
        assert err.startswith(f"error: {tmp_path}: cannot read problem file (")
        assert err.count("\n") == 1
        assert out == ""

    def test_takes_no_norm(self, capsys):
        # the gates read D and E, never the norm, so check has no --norm to take
        with pytest.raises(SystemExit) as exc:
            main(["check", "--problem", "example_b.json", "--norm", "two"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --norm two" in err


class TestRadiusCommand:
    def test_example_a_needs_override(self, capsys):
        code, data = run_json(capsys, "radius", "--problem", "example_a.json", "--norm", "two")
        assert code == 2
        assert "radius" not in data["results"]

    def test_example_a_with_override(self, capsys):
        code, data = run_json(
            capsys, "radius", "--problem", "example_a.json", "--override-gates", "--norm", "two"
        )
        assert code == 0
        assert abs(data["results"]["radius"] - 0.26) <= 0.01
        assert data["results"]["formula"] == "lure_upper_sector"
        assert any("GATES FAILED" in w for w in data["warnings"])

    def test_example_b(self, capsys):
        code, data = run_json(capsys, "radius", "--problem", "example_b.json")
        assert code == 0
        assert abs(data["results"]["radius"] - 2.04) <= 0.02
        assert data["results"]["formula"] == "nn_upper_sector"

    def test_linear_only_identity(self, capsys, tmp_path):
        doc = {
            "system": {"A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[0.0], [0.0]], "C": [[1.0, 0.0]]},
            "perturbation": {
                "D": [[1.0, 0.0], [0.0, 1.0]],
                "E": [[1.0, 0.0], [0.0, 1.0]],
                "norm": "two",
            },
        }
        path = tmp_path / "linear.json"
        path.write_text(json.dumps(doc))
        code, data = run_json(capsys, "radius", "--problem", str(path))
        assert code == 0
        assert data["results"]["radius"] == pytest.approx(1.0)
        assert data["results"]["formula"] == "linear_norm"

    def test_schur_problem(self, capsys, tmp_path):
        doc = {
            "system": {"A": [[-2.0]], "B": [[0.0]], "C": [[1.0]]},
            "perturbation": {"D": [[1.0]], "E": [[1.0]], "S": [[1.0]]},
        }
        path = tmp_path / "schur.json"
        path.write_text(json.dumps(doc))
        code, data = run_json(capsys, "radius", "--problem", str(path))
        assert code == 0
        assert data["results"]["radius"] == pytest.approx(2.0)
        assert data["results"]["formula"] == "schur_spectral"

    def test_maxabs_norm_without_scale_is_input_error(self, capsys, tmp_path):
        doc = {
            "system": {"A": [[-1.0]], "B": [[0.0]], "C": [[1.0]]},
            "perturbation": {"D": [[1.0]], "E": [[1.0]], "norm": "maxabs"},
        }
        path = tmp_path / "maxabs.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "radius", "--problem", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert "maxabs" in err

    def test_override_gates_certifies_once(self, capsys, monkeypatch):
        # the Lur'e formula certifies through certify_positive_lure, by its module name
        calls = counting(monkeypatch, radius, "certify_positive_lure")
        code, data = run_json(
            capsys, "radius", "--problem", "example_a.json", "--override-gates"
        )
        assert code == 0
        assert len(calls) == 1
        assert data["warnings"] == [
            "GATES FAILED (closed loop failed gate(s): metzler_at_lower); the radius below "
            "is a formula evaluation outside the certified regime"
        ]

    def test_network_sector_computed_once(self, capsys, monkeypatch):
        # cli calls it through the ffnn module, problems through its own name
        calls = counting(monkeypatch, ffnn, "sector_bound_ffnn")
        counting(monkeypatch, problems, "sector_bound_ffnn", calls)
        for argv, key in [
            (("radius",), "sector_upper"),
            (("refine", "--delta-crit", "3.15"), "gamma2"),
            (("refine", "--trials", "1", "--horizon", "10", "--dt", "0.02"), "gamma2"),
        ]:
            calls.clear()
            code, data = run_json(capsys, argv[0], "--problem", "example_b.json", *argv[1:])
            assert code == 0
            assert len(calls) == 1, argv
            assert data["results"][key][0][0] == pytest.approx(0.91)

    def test_network_sector_failure_computed_once(self, capsys, monkeypatch, tmp_path,
                                                  biased_network_problem):
        # Problem.radius and Problem.step_bound each read the sector; the
        # failure is cached as a sector is, and both reads raise the same error
        calls = counting(monkeypatch, problems, "sector_bound_ffnn")
        out = tmp_path / "sweep.csv"
        code, data = run_json(capsys, "sweep", "--problem", str(biased_network_problem),
                              "--trials", "1", "--horizon", "1", "--dt", "0.1", "--out", str(out))
        assert code == 0
        assert len(calls) == 1
        assert data["warnings"][0] == (
            "no analytic radius available (sector bound requires zero biases; "
            "nonzero bias in layer(s) 1)"
        )
        problem = load_problem(biased_network_problem)
        errors = []
        for _ in range(2):
            with pytest.raises(NonzeroBiasError) as info:
                problem.analysis_sector
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "--problem", "example_a.json"),
            ("check", "--problem", "example_b.json"),
            ("radius", "--problem", "example_a.json", "--override-gates"),
            ("radius", "--problem", "example_b.json"),
        ],
        ids=["check-a", "check-b", "radius-a-override", "radius-b"],
    )
    def test_one_factorization_per_closed_loop(self, capsys, monkeypatch, argv):
        calls = counting(monkeypatch, np.linalg, "solve")
        run_cli(capsys, *argv)
        assert len(calls) == 1

    @staticmethod
    def refused_by_the_override(capsys, path, gates):
        """``radius --override-gates`` on a loop without a Metzler solve: exit 2 with
        the gate report and the refusal, as without the override, and no hint."""
        code, out, err = run_cli(capsys, "radius", "--problem", str(path), "--override-gates",
                                 "--format", "json")
        data = json.loads(out)
        assert (code, err) == (2, "")
        assert "radius" not in data["results"]
        failed = [g for g, ok in data["results"].items() if g.startswith("gate_") and not ok]
        assert sorted(failed) == sorted(f"gate_{g}" for g in gates)
        assert data["warnings"] == [
            f"closed loop failed gate(s): {', '.join(gates)}; the upper loop has no Metzler solve"
        ]
        return data

    def test_override_gates_on_singular_metzler_upper_loop_exits_two(self, capsys, tmp_path,
                                                                      no_inverse):
        # upper loop [[-0.5, 1], [1, -2]] is Metzler with determinant 0
        path = upper_loop_problem(tmp_path, 1.5)
        code, data = run_json(capsys, "radius", "--problem", str(path))
        assert code == 2
        assert data["results"]["gate_hurwitz_at_upper"] is False
        assert data["warnings"][0].endswith("; the upper loop has no Metzler solve")
        assert "pass --override-gates" not in " ".join(data["warnings"])
        data = self.refused_by_the_override(capsys, path, ["hurwitz_at_upper"])
        assert data["results"]["metzler_at_upper"] is True

    def test_override_gates_on_singular_non_metzler_upper_loop_exits_two(self, capsys, tmp_path,
                                                                          no_inverse):
        # upper loop [[-0.5, -1], [-2, -4]] is not Metzler and has determinant 0
        doc = {
            "system": {"A": [[-1.0, -1.0], [-2.0, -4.0]], "B": [[1.0], [0.0]], "C": [[1.0, 0.0]]},
            "perturbation": {"D": [[1.0], [1.0]], "E": [[1.0, 1.0]], "norm": "two"},
            "sector": {"Sigma1": [[0.0]], "Sigma2": [[0.5]]},
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(doc))
        self.refused_by_the_override(capsys, path, ["metzler_at_lower", "hurwitz_at_upper"])

    def test_override_gates_on_a_hurwitz_non_metzler_upper_loop_exits_two(self, capsys, tmp_path,
                                                                          no_inverse):
        # the upper loop is Hurwitz, but the formula is the radius of a Metzler loop only
        path = non_metzler_upper_loop_problem(tmp_path)
        data = self.refused_by_the_override(capsys, path, ["metzler_at_lower"])
        assert data["results"]["metzler_at_upper"] is False

    def test_override_gates_on_overflowing_condition_number_exits_two(self, capsys, tmp_path,
                                                                      no_inverse):
        # upper loop [[-0.5 - 1e-13, 1], [1, -2]]: kappa_inf near 1e13 exceeds COND_MAX,
        # in any row and column scales, so the equilibrated retry is refused too
        path = upper_loop_problem(tmp_path, 1.5 - 1e-13)
        self.refused_by_the_override(capsys, path, ["hurwitz_at_upper"])
        # the scaled copy's kappa_inf exceeds COND_MAX only in its own scale
        code, data = run_json(capsys, "radius", "--problem", str(scaled_example_b(tmp_path)))
        _, want = run_json(capsys, "radius", "--problem", "example_b.json")
        assert code == 0 and data["results"]["verdict"] is True
        assert data["results"]["radius"] == pytest.approx(want["results"]["radius"], rel=1e-12)

    def test_override_gates_on_unstable_metzler_upper_loop_evaluates_formula(
        self, capsys, tmp_path
    ):
        # upper loop [[0, 1], [1, -2]] is Metzler, nonsingular, with an eigenvalue > 0
        path = upper_loop_problem(tmp_path, 2.0)
        code, data = run_json(capsys, "radius", "--problem", str(path), "--override-gates")
        assert code == 0
        assert data["results"]["gate_hurwitz_at_upper"] is False
        assert data["results"]["positive_vector"] is None
        # E (-M)^{-1} D = [1 1] [[-2, -1], [-1, 0]] [1 1]^T = -4, of norm 4
        assert data["results"]["radius"] == pytest.approx(0.25, rel=1e-12)
        assert any("GATES FAILED" in w for w in data["warnings"])

    def test_no_command_inverts_a_matrix(self, capsys, tmp_path, no_inverse):
        # every radius comes from the certificate's one solve: the golden commands
        # keep their bytes, a loop without a Metzler solve is refused, and a loop
        # refused only for its scale is solved on its equilibrated copy
        for case in [*CASES, *TEXT_CASES]:
            argv, fmt = golden_argv(case)
            (tmp_path / case).mkdir()
            expected = (GOLDEN / f"{case}.txt").read_bytes().decode()
            assert transcript(argv, tmp_path / case, fmt) == expected, case
        for path in (non_metzler_upper_loop_problem(tmp_path), upper_loop_problem(tmp_path, 1.5)):
            assert run_cli(capsys, "radius", "--problem", str(path), "--override-gates")[0] == 2
        path = scaled_example_b(tmp_path)
        assert run_cli(capsys, "radius", "--problem", str(path), "--override-gates")[0] == 0

    def test_zero_transfer_exits_two_without_traceback(self, capsys, zero_transfer_problem):
        code, out, err = run_cli(capsys, "radius", "--problem", str(zero_transfer_problem))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "is zero" in err
        assert "Traceback" not in err

    def test_deterministic_output(self, capsys):
        args = ("radius", "--problem", "example_b.json", "--format", "json")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b


class TestNnBoundCommand:
    def test_reference_network(self, capsys):
        code, data = run_json(
            capsys, "nn-bound", "--network", str(fixture_path("gain_network.json"))
        )
        assert code == 0
        assert abs(data["results"]["gamma2"][0][0] - 0.91) <= 1e-12
        assert data["results"]["gamma1"][0][0] == -data["results"]["gamma2"][0][0]
        assert data["results"]["activation_gain_c"] == 1.0
        assert len(data["results"]["product_trace"]) == 2

    def test_problem_network(self, capsys):
        code, data = run_json(capsys, "nn-bound", "--problem", "example_b.json")
        assert code == 0
        assert abs(data["results"]["gamma2"][0][0] - 0.91) <= 1e-12

    def test_zero_network(self, capsys, tmp_path):
        net = {
            "activation": {"name": "relu"},
            "layers": [
                {"rows": 1, "cols": 1, "weights": [0.0], "bias": [0.0]},
                {"rows": 1, "cols": 1, "weights": [0.0], "bias": [0.0]},
            ],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(net))
        code, data = run_json(capsys, "nn-bound", "--network", str(path))
        assert code == 0
        assert data["results"]["gamma2"] == [[0.0]]

    def test_bias_rejected_with_layer_index(self, capsys, tmp_path):
        net = {
            "activation": {"name": "relu"},
            "layers": [
                {"rows": 1, "cols": 1, "weights": [1.0], "bias": [0.5]},
                {"rows": 1, "cols": 1, "weights": [1.0], "bias": [0.0]},
            ],
        }
        path = tmp_path / "biased.json"
        path.write_text(json.dumps(net))
        code, data = run_json(capsys, "nn-bound", "--network", str(path))
        assert code == 2
        assert any("layer(s) 1" in w for w in data["warnings"])

    def test_biased_problem_network_reports_at_command_time(self, capsys, biased_network_problem):
        code, data = run_json(capsys, "nn-bound", "--problem", str(biased_network_problem))
        assert code == 2
        assert data["warnings"] == [
            "sector bound requires zero biases; nonzero bias in layer(s) 1"
        ]

    def test_needs_some_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nn-bound"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "one of the arguments --network --problem is required" in err

    def test_takes_one_source_only(self, capsys, tmp_path):
        net = {
            "activation": {"name": "relu"},
            "layers": [
                {"rows": 1, "cols": 1, "weights": [0.5]},
                {"rows": 1, "cols": 1, "weights": [0.5]},
            ],
        }
        path = tmp_path / "quarter.json"
        path.write_text(json.dumps(net))
        with pytest.raises(SystemExit) as exc:
            main(["nn-bound", "--network", str(path), "--problem", "example_b.json"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --problem: not allowed with argument --network" in err
        code, data = run_json(capsys, "nn-bound", "--network", str(path))
        assert code == 0
        assert data["problem"] == str(path)
        assert data["inputs_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert data["results"]["gamma2"] == [[0.25]]  # example_b's own network gives 0.91


def step_warning(dt: str, bound: str, edges: str = "both sector edges") -> str:
    """The warning that ``dt`` exceeds RK4's positivity bound on the simulated loops."""
    return (
        f"dt={dt} exceeds {bound}, the largest step at which RK4 keeps the loops positive "
        f"(1 / max_i(-M_ii) over {edges} and the simulated deltas); a verdict may then read "
        "the step, not the loop"
    )


class TestSweepCommand:
    def test_repeated_deltas_are_counted_once_each(self, capsys, tmp_path):
        doc = json.loads((PROBLEMS / "sector.json").read_text())
        doc["sweep"] = {"deltas": [0.1, 0.1]}
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        code, data = run_json(
            capsys, "sweep", "--problem", str(path), "--out", str(tmp_path / "rows.csv"),
            "--trials", "2", "--horizon", "2",
        )
        assert code == 0
        summary = data["results"]["per_delta"]
        assert [s["delta"] for s in summary] == [0.1, 0.1]
        for s in summary:
            assert s["stable"] + s["unstable"] + s["inconclusive"] == 2

    def test_writes_csv_and_summary(self, capsys, sector_problem, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, data = run_json(
            capsys, "sweep", "--problem", str(sector_problem),
            "--out", str(out_csv), "--trials", "3",
        )
        assert code == 0
        assert out_csv.exists()
        assert data["results"]["deltas"] == [0.0, 0.1]
        zero_row = data["results"]["per_delta"][0]
        assert zero_row["stable"] == 3
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3

    def test_conservatism_flag_when_nothing_destabilizes_beyond_radius(
        self, capsys, tmp_path
    ):
        # example_b's loop closed by a mixed-sign network: its gain on the
        # nonnegative orthant, 0.6 - 0.3 = 0.3, lies below its weight product
        # 0.9, so its radius is conservative and delta 2.24 stays stable
        net = {
            "activation": {"name": "relu"},
            "layers": [
                {"rows": 2, "cols": 1, "weights": [1.0, 1.0], "bias": [0.0, 0.0]},
                {"rows": 1, "cols": 2, "weights": [0.6, -0.3], "bias": [0.0]},
            ],
        }
        (tmp_path / "mixed_net.json").write_text(json.dumps(net))
        doc = json.loads(fixture_path("example_b.json").read_text())
        doc["network"] = "mixed_net.json"
        (tmp_path / "mixed.json").write_text(json.dumps(doc))
        code, data = run_json(
            capsys, "sweep", "--problem", str(tmp_path / "mixed.json"),
            "--out", str(tmp_path / "b.csv"), "--trials", "2",
            "--dt", "0.01", "--horizon", "10",
        )
        assert code == 0
        assert data["results"]["formula_radius"] < 2.24
        assert any("conservative" in w for w in data["warnings"])

    def test_no_conservatism_flag_without_trials(self, capsys, tmp_path):
        code, data = run_json(
            capsys, "sweep", "--problem", "example_b.json",
            "--out", str(tmp_path / "b.csv"), "--trials", "0",
        )
        assert code == 0
        assert all(s["unstable"] == 0 for s in data["results"]["per_delta"])
        assert data["warnings"] == []

    def test_biased_network_sweeps_without_a_radius(self, capsys, biased_network_problem, tmp_path):
        code, data = run_json(
            capsys, "sweep", "--problem", str(biased_network_problem),
            "--out", str(tmp_path / "n.csv"), "--trials", "1", "--dt", "0.05", "--horizon", "2",
        )
        assert code == 0
        assert data["warnings"] == [
            "no analytic radius available (sector bound requires zero biases; "
            "nonzero bias in layer(s) 1)"
        ]
        assert "formula_radius" not in data["results"]

    def test_derives_deltas_from_radius(self, capsys, tmp_path):
        doc = {
            "system": {"A": [[-3.0, 1.0], [1.0, -3.0]], "B": [[1.0], [0.5]], "C": [[1.0, 1.0]]},
            "perturbation": {"D": [[1.0], [1.0]], "E": [[1.0, 1.0]], "norm": "two"},
            "sector": {"Sigma1": [[-0.2]], "Sigma2": [[0.1]]},
            "simulation": {"dt": 0.02, "horizon": 10.0},
        }
        path = tmp_path / "nosweep.json"
        path.write_text(json.dumps(doc))
        code, data = run_json(
            capsys, "sweep", "--problem", str(path), "--out", str(tmp_path / "s.csv"),
            "--trials", "2",
        )
        assert code == 0
        assert len(data["results"]["deltas"]) == 5
        assert any("derived" in w for w in data["warnings"])

    @pytest.mark.parametrize("listed", [True, False], ids=["file-deltas", "derived-deltas"])
    def test_failed_gates_warning_names_no_grid(self, capsys, tmp_path, listed):
        # example_a's radius fails metzler_at_lower; only where the file lists
        # no deltas does that radius make the grid, and a second warning says so
        doc = json.loads(fixture_path("example_a.json").read_text())
        if not listed:
            del doc["sweep"]
        path = tmp_path / "a.json"
        path.write_text(json.dumps(doc))
        code, data = run_json(
            capsys, "sweep", "--problem", str(path), "--out", str(tmp_path / "a.csv"),
            "--trials", "1", "--horizon", "1",
        )
        assert code == 0
        gates = "the formula radius was computed with failed gates: metzler_at_lower"
        derived = "sweep deltas derived from the analytic radius"
        expected = [gates] if listed else [gates, derived]
        assert data["warnings"][:len(expected)] == expected
        assert not any("grid" in w for w in data["warnings"])
        assert (derived in data["warnings"]) is not listed

    def test_maxabs_norm_without_scale_is_input_error(self, capsys, sector_problem, tmp_path):
        # a loop formula cannot use the maxabs norm; the sweep must stop
        # instead of going on without a radius
        doc = json.loads(sector_problem.read_text())
        doc["perturbation"]["norm"] = "maxabs"
        path = tmp_path / "maxabs.json"
        path.write_text(json.dumps(doc))
        out_csv = tmp_path / "rows.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--problem", str(path), "--out", str(out_csv), "--trials", "1"
        )
        assert code == 1
        assert err.startswith(f"error: {path}: ")
        assert "maxabs" in err
        assert not out_csv.exists()

    def test_schur_scale_on_sector_problem_is_input_error(self, capsys, sector_problem, tmp_path):
        # "S" forces the maxabs norm, which the loop formula rejects; the
        # sweep must stop as it does for any input error
        doc = json.loads(sector_problem.read_text())
        doc["perturbation"]["S"] = [[1.0]]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        out_csv = tmp_path / "rows.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--problem", str(path), "--out", str(out_csv), "--trials", "1"
        )
        assert code == 1
        assert err.startswith("error: the maxabs norm is reserved")
        assert not out_csv.exists()

    def test_zero_transfer_warns_and_still_sweeps(self, capsys, zero_transfer_problem, tmp_path):
        code, data = run_json(
            capsys, "sweep", "--problem", str(zero_transfer_problem),
            "--out", str(tmp_path / "z.csv"), "--trials", "1", "--dt", "0.05", "--horizon", "2",
        )
        assert code == 0
        assert any(w.startswith("no analytic radius available (") for w in data["warnings"])
        assert "formula_radius" not in data["results"]
        assert (tmp_path / "z.csv").exists()

    def test_overflowed_nonlinearity_input_is_a_blow_up(self, capsys, tmp_path):
        # at delta = 1e40 cubic_sine's y**3 overflows to inf in one RK4 stage,
        # where sin is undefined: phi is NaN there, and the column blows up
        doc = json.loads(fixture_path("example_a.json").read_text())
        doc["sweep"]["deltas"] = [0.2, 1e40]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out_csv = tmp_path / "h.csv"
        code, data = run_json(
            capsys, "sweep", "--problem", str(path), "--out", str(out_csv),
            "--trials", "2", "--dt", "0.1", "--horizon", "1",
        )
        assert code == 0
        assert data["results"]["per_delta"][1] == {
            "delta": 1e40, "stable": 0, "unstable": 2, "inconclusive": 0,
        }
        rows = out_csv.read_text().splitlines()
        assert rows[-2:] == ["1e+40,0,42,Unstable,inf,0.1", "1e+40,1,42,Unstable,inf,0.1"]

    def test_overflowing_drift_blows_up(self, capsys, tmp_path):
        # at delta = 1e308 the drift A + D delta E itself overflows, so the
        # state's first step is not finite: a blow-up at t = dt, as at 1e300
        doc = json.loads(fixture_path("example_a.json").read_text())
        doc["sweep"]["deltas"] = [0.2, 1e300, 1e308]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out_csv = tmp_path / "h.csv"
        code, data = run_json(
            capsys, "sweep", "--problem", str(path), "--out", str(out_csv),
            "--trials", "1", "--dt", "0.1", "--horizon", "1",
        )
        assert code == 0
        assert [s["unstable"] for s in data["results"]["per_delta"]] == [0, 1, 1]
        rows = out_csv.read_text().splitlines()
        assert rows[-2:] == ["1e+300,0,42,Unstable,inf,0.1", "1e+308,0,42,Unstable,inf,0.1"]

    @pytest.mark.parametrize("flag", ["--horizon", "--dt"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_step_or_horizon_exits_one(self, capsys, tmp_path, flag, value):
        code, out, err = run_cli(
            capsys, "sweep", "--problem", "example_a.json", "--out", str(tmp_path / "a.csv"),
            "--trials", "1", flag, value,
        )
        assert code == 1
        assert err.startswith("error: dt and horizon must satisfy 0 < dt <= horizon < inf")
        assert out == ""

    def test_dt_whose_step_count_overflows_exits_one(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "sweep", "--problem", "example_b.json", "--out", str(tmp_path / "b.csv"),
            "--trials", "1", "--dt", "1e-320",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: dt and horizon must satisfy 0 < dt <= horizon < inf and horizon / dt < inf; "
            "got dt=1e-320, horizon=20.0\n"
        )
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("dt", ["1e-7", "1e-9", "1e-12"])
    def test_tiny_dt_sweep_builds_no_step_grid(self, capsys, tmp_path, dt):
        # 2e8 to 2e13 steps: example_b's block jumps in a few products per
        # column, and a grid of every step's time would not fit in memory
        code, out, err = run_cli(
            capsys, "sweep", "--problem", "example_b.json", "--out", str(tmp_path / "b.csv"),
            "--trials", "1", "--dt", dt,
        )
        assert (code, err) == (0, "")
        assert len((tmp_path / "b.csv").read_text().splitlines()) == 5

    @pytest.mark.parametrize("problem", ["example_a.json", "example_b.json"])
    @pytest.mark.parametrize("dt", ["1e-20", "1e-300", "1e-14", "1e-15", "1e-16"])
    def test_dt_that_rounds_the_diagonal_away_exits_one(self, capsys, tmp_path, problem, dt):
        # rounding 1 + dt * M_ii moves a rate by up to 2**-53 / dt, past RES
        # below dt = 3.7e-14; at 1e-20 and 1e-300 the step matrix loses the
        # loop's diagonal outright.  Where they ran, example_b read delta
        # 2.04 Unstable at 1e-14 and 1e-15, lost delta in I + h at 1e-16, and
        # jumped without end at 1e-20; example_a stepped without end
        code, out, err = run_cli(
            capsys, "sweep", "--problem", problem, "--out", str(tmp_path / "x.csv"),
            "--trials", "1", "--dt", dt,
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: dt={float(dt)!r} is too small for this loop") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_dt_just_above_the_rate_resolution_runs(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "sweep", "--problem", "example_b.json", "--out", str(tmp_path / "b.csv"),
            "--trials", "1", "--dt", "1e-13",
        )
        assert (code, err) == (0, "")
        rows = (tmp_path / "b.csv").read_text().splitlines()
        assert rows[3].startswith("2.04,0,42,Inconclusive,")

    @pytest.mark.parametrize(
        ("dt", "below", "warnings"),
        [
            ("0.5", [1, 1], [
                step_warning("0.5", "0.1103"),
                "2 trial(s) Unstable at deltas below the certified radius: dt=0.5 exceeds "
                "0.1103, the largest step at which RK4 keeps the loops positive",
            ]),
            ("0.3", [0, 0], [step_warning("0.3", "0.1103")]),
        ],
    )
    def test_unstable_trials_below_a_certified_radius_warn_with_dt(
        self, capsys, tmp_path, dt, below, warnings
    ):
        # A's eigenvalue -9.04 puts dt * lambda = -4.5 outside RK4's real
        # stability interval (-2.785, 0) at dt 0.5, so deltas 1.0 and 2.0,
        # below the radius 2.0398, read Unstable; at dt 0.3 neither does,
        # but both steps exceed the positivity bound of example_b's loops
        code, data = run_json(
            capsys, "sweep", "--problem", "example_b.json", "--out", str(tmp_path / "b.csv"),
            "--trials", "1", "--dt", dt,
        )
        assert code == 0
        assert [s["unstable"] for s in data["results"]["per_delta"]
                if s["delta"] < data["results"]["formula_radius"]] == below
        assert data["warnings"] == warnings

    def test_unstable_trials_below_a_certified_radius_name_the_sector(self, capsys, tmp_path):
        # x' = -x + cubic_sine(20 x) is certified in the sector [-2, -0.48],
        # whose loops bound dt by 1 / 41; from x0 near 1 the cubic term takes
        # the feedback out of the sector, so at dt 0.01 those trials read
        # Unstable at delta 0.5, below the radius 10.6, and the step is not
        # the cause
        doc = {
            "system": {"A": [[-1.0]], "B": [[1.0]], "C": [[20.0]]},
            "perturbation": {"D": [[1.0]], "E": [[1.0]], "norm": "two"},
            "builtin_nonlinearity": "cubic_sine",
            "simulation": {"dt": 0.01, "horizon": 10.0},
            "sweep": {"deltas": [0.5]},
        }
        path = tmp_path / "leaves.json"
        path.write_text(json.dumps(doc))
        code, data = run_json(
            capsys, "sweep", "--problem", str(path), "--out", str(tmp_path / "s.csv"),
            "--trials", "4",
        )
        assert code == 0
        assert data["results"]["formula_radius"] == pytest.approx(10.6, rel=1e-12)
        assert data["results"]["per_delta"][0]["unstable"] == 3
        assert data["warnings"] == [
            "3 trial(s) Unstable at deltas below the certified radius: "
            "the simulated feedback leaves its sector"
        ]

    def test_unstable_trials_below_an_uncertified_radius_do_not_warn(self, capsys, tmp_path):
        # example_a fails its gates, so its radius certifies nothing
        code, data = run_json(
            capsys, "sweep", "--problem", "example_a.json", "--out", str(tmp_path / "a.csv"),
            "--trials", "1", "--dt", "0.5", "--horizon", "10",
        )
        assert code == 0
        assert any(s["unstable"] for s in data["results"]["per_delta"]
                   if s["delta"] < data["results"]["formula_radius"])
        assert not any("below the certified radius" in w for w in data["warnings"])

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--problem", "example_a.json", "--seed", "-1"),
            ("sweep", "--problem", "example_a.json", "--trials", "-1"),
            ("refine", "--problem", "example_b.json", "--delta-crit", "3.15", "--seed", "-1"),
        ],
        ids=["sweep-seed", "sweep-trials", "refine-seed"],
    )
    def test_negative_seed_or_trials_exits_one(self, capsys, tmp_path, argv):
        out_flag = ("--out", str(tmp_path / "x.csv")) if argv[0] == "sweep" else ()
        code, out, err = run_cli(capsys, *argv, *out_flag)
        assert code == 1
        assert err.startswith("error: seed") and "must be nonnegative" in err
        assert out == ""


class TestRefineCommand:
    def test_given_critical_delta(self, capsys):
        code, data = run_json(
            capsys, "refine", "--problem", "example_b.json", "--delta-crit", "3.15"
        )
        assert code == 0
        assert abs(data["results"]["magnitude"] - 0.25) <= 0.01
        assert data["results"]["refined_upper"][0][0] == pytest.approx(
            data["results"]["magnitude"]
        )
        assert data["results"]["empirical_violations"] > 0
        assert any("too tight" in w for w in data["warnings"])

    def test_round_trip_at_formula_radius(self, capsys):
        code, data = run_json(capsys, "radius", "--problem", "example_b.json")
        radius = data["results"]["radius"]
        code, data = run_json(
            capsys, "refine", "--problem", "example_b.json", "--delta-crit", str(radius)
        )
        assert code == 0
        assert data["results"]["magnitude"] == pytest.approx(0.91, abs=1e-6)

    def test_samples_the_network_once_per_candidate(self, capsys, monkeypatch):
        calls = []
        check = ffnn.empirical_sector_check

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(ffnn, "empirical_sector_check", counted)
        code, data = run_json(
            capsys, "refine", "--problem", "example_b.json", "--delta-crit", "3.15"
        )
        assert code == 0
        assert len(calls) == 2
        assert data["results"]["empirical_violations"] > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_critical_delta_exits_one(self, capsys, value):
        code, out, err = run_cli(
            capsys, "refine", "--problem", "example_b.json", "--delta-crit", value
        )
        assert code == 1
        assert err == f"error: delta_crit must be nonnegative and finite; got {value}\n"
        assert out == ""

    def test_critical_delta_beyond_the_plant_radius_exits_two(self, capsys):
        # A + 10 D E is unstable by itself (the plant's radius is 3.46), so
        # no nonnegative sector is consistent with it
        code, out, err = run_cli(
            capsys, "refine", "--problem", "example_b.json", "--delta-crit", "10"
        )
        assert (code, out) == (2, "")
        assert err == "error: refine requires a Hurwitz A + delta_crit D E\n"

    def test_unstable_at_zero_on_a_certified_loop_names_dt(self, capsys):
        # at dt 0.5, past the positivity bound 0.1103 of example_b's loops,
        # RK4 is unstable on its certified loop at delta 0
        code, out, err = run_cli(
            capsys, "refine", "--problem", "example_b.json", "--trials", "1", "--dt", "0.5"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: a trial trajectory is unstable at delta = 0, although the loop is "
            "certified: dt=0.5 exceeds 0.1103, the largest step at which RK4 keeps the loops "
            "positive\n"
        )

    def test_search_without_trials_exits_one(self, capsys):
        # no trial can go unstable, so a search of none has no verdict to report
        code, out, err = run_cli(capsys, "refine", "--problem", "example_b.json", "--trials", "0")
        assert (code, out) == (1, "")
        assert err == "error: a threshold search needs at least one trial; got trials=0\n"

    def test_without_network_is_usage_error(self, capsys, sector_problem):
        code, out, err = run_cli(capsys, "refine", "--problem", str(sector_problem))
        assert code == 1
        assert "network" in err


class TestStepBound:
    """sweep and a searching refine warn before they simulate where dt exceeds
    RK4's positivity bound on the loops they simulate (sim.rk4_positive_dt)."""

    @pytest.mark.parametrize(("argv", "bound", "edges"), [
        (["sweep", "--problem", "example_a.json", "--dt", "0.3"], "0.1143", "both sector edges"),
        (["sweep", "--problem", "example_b.json", "--dt", "0.5"], "0.1103", "both sector edges"),
        (["refine", "--problem", "example_b.json", "--dt", "0.2"], "0.1103", "both sector edges"),
        # a sector problem simulates its upper gain alone, whose loops bound
        # dt by 0.1802; its lower edge's loops would give 0.1667
        (["sweep", "--problem", str(PROBLEMS / "sector.json"), "--dt", "0.19"], "0.1802",
         "the gain"),
    ], ids=["sweep_a", "sweep_b", "refine_b", "sweep_gain"])
    def test_dt_past_the_bound_warns_before_simulating(
        self, capsys, tmp_path, monkeypatch, argv, bound, edges
    ):
        events = []
        warn, simulate = cli.Report.warn, sim.simulate_lure
        monkeypatch.setattr(
            cli.Report, "warn", lambda report, text: events.append(text) or warn(report, text)
        )
        monkeypatch.setattr(
            sim, "simulate_lure", lambda *args: events.append("simulate") or simulate(*args)
        )
        extra = ["--out", str(tmp_path / "s.csv")] if argv[0] == "sweep" else []
        code, data = run_json(capsys, *argv, "--trials", "2", *extra)
        warning = step_warning(argv[-1], bound, edges)
        assert code == 0
        assert warning in data["warnings"]
        assert events.index(warning) < events.index("simulate")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--problem", "example_a.json", "--dt", "0.11"],
        ["sweep", "--problem", "example_b.json", "--dt", "0.11"],
        ["refine", "--problem", "example_b.json", "--dt", "0.11"],
        ["sweep", "--problem", str(PROBLEMS / "sector.json"), "--dt", "0.17"],
    ], ids=["sweep_a", "sweep_b", "refine_b", "sweep_gain"])
    def test_admissible_dt_does_not_warn(self, capsys, tmp_path, argv):
        extra = ["--out", str(tmp_path / "s.csv")] if argv[0] == "sweep" else []
        code, data = run_json(capsys, *argv, "--trials", "2", *extra)
        assert code == 0
        assert not any("RK4" in warning for warning in data["warnings"])

    @pytest.mark.parametrize("dt", ["0.5", "0.1"])
    def test_loop_without_a_sector_is_bounded_by_its_plant(
        self, capsys, tmp_path, biased_network_problem, dt
    ):
        # a biased network has no analytic sector: A[2][2] = -8.7 alone bounds dt by 1/8.7
        code, data = run_json(
            capsys, "sweep", "--problem", str(biased_network_problem), "--dt", dt,
            "--trials", "1", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert data["warnings"][0].startswith("no analytic radius available")
        warning = step_warning(dt, "0.1149", "the plant alone at zero gain")
        assert data["warnings"][1:] == ([warning] if dt == "0.5" else [])


    def test_loop_without_a_radius_is_bounded_by_its_sector(self, capsys, tmp_path):
        # D = 0 leaves example_a no radius, but its builtin's sector is known
        doc = json.loads(fixture_path("example_a.json").read_text())
        doc["perturbation"]["D"] = [[0.0], [0.0], [0.0]]
        path = tmp_path / "zero_d_a.json"
        path.write_text(json.dumps(doc))
        code, data = run_json(
            capsys, "sweep", "--problem", str(path), "--dt", "0.12",
            "--trials", "1", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 0
        assert data["warnings"][0].startswith("no analytic radius available")
        assert data["warnings"][1:] == [step_warning("0.12", "0.1111")]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lurestab", "check", "--problem", "example_b.json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "verdict: pass" in proc.stdout

    def test_every_public_name_resolves(self):
        # guards the re-exports, e.g. load_ffnn, which lives in problems
        import lurestab

        assert [name for name in lurestab.__all__ if not hasattr(lurestab, name)] == []
        assert lurestab.load_ffnn is problems.load_ffnn

    def test_no_command_imports_scipy(self, tmp_path):
        # scipy's import alone costs more than a whole command: every
        # subcommand must run on numpy, in a fresh interpreter
        script = f"""
import contextlib, io, sys
from lurestab.cli import main
runs = [
    (2, ["check", "--problem", "example_a.json"]),
    (0, ["check", "--problem", "example_b.json"]),
    (0, ["radius", "--problem", "example_a.json", "--override-gates"]),
    (0, ["radius", "--problem", "example_b.json"]),
    (0, ["nn-bound", "--problem", "example_b.json"]),
    (0, ["refine", "--problem", "example_b.json", "--delta-crit", "3.15"]),
    (0, ["sweep", "--problem", "example_b.json", "--trials", "1", "--horizon", "5",
         "--out", {str(tmp_path / "sweep.csv")!r}]),
]
for code, argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == code, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestSharedParser:
    def test_parser_is_built_on_the_first_call_only(self, tmp_path):
        script = f"""
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
from lurestab.cli import main
runs = [
    ["check", "--problem", "example_b.json"],
    ["radius", "--problem", "example_a.json", "--override-gates"],
    ["nn-bound", "--problem", "example_b.json"],
    ["refine", "--problem", "example_b.json", "--delta-crit", "3.15"],
    ["check", "--problem", "example_a.json"],
]
counts = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    counts.append(len(built))
print(counts)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)
        assert counts[0] > 0
        assert counts == [counts[0]] * len(counts)

    def test_override_gates_does_not_carry_over(self, capsys):
        code, _, _ = run_cli(capsys, "radius", "--problem", "example_a.json", "--override-gates")
        assert code == 0
        code, out, _ = run_cli(capsys, "radius", "--problem", "example_a.json")
        assert code == 2
        assert "pass --override-gates" in out

    def test_norm_does_not_carry_over(self, capsys):
        code, data = run_json(capsys, "radius", "--problem", "example_b.json", "--norm", "one")
        assert code == 0
        assert data["results"]["norm"] == "one"
        code, data = run_json(capsys, "radius", "--problem", "example_b.json")
        assert code == 0
        assert data["results"]["norm"] == "two"

    def test_usage_error_leaves_no_state(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["radius", "--problem", "example_a.json", "--override-gates", "--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
        expected = (GOLDEN / "radius_a.txt").read_bytes().decode()
        assert transcript(CASES["radius_a"], tmp_path) == expected
