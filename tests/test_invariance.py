"""Coordinate changes that leave a problem's answers unchanged, run through ``cli.main``.

A state permutation P maps (A, B, C, D, E) to (P A P^T, P B, C P^T, P D,
E P^T): the exit codes, gates, verdicts and warnings stay the same, the
radius and refine's magnitude too, and the witness ``positive_vector`` is
permuted.  Scaling D by c scales every radius by 1/c and leaves the rest
unchanged; refine at ``delta_crit / c`` perturbs the same plant.  A diagonal
S maps (A, B, C, D, E) to (S A S^-1, S B, C S^-1, S D, E S^-1) and changes
no answer either; its witness is S (-M)^-1 S^-1 1, not S v, so it is not
compared.  Floats agree within ``RTOL`` relative, and in every copy
``check`` and ``radius`` print the same witness, bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json

import numpy as np
import pytest

from lurestab.cli import main
from lurestab.problems import fixture_path

from test_golden import PROBLEMS

RTOL = 1e-12
SOURCES = {
    "example_b": fixture_path("example_b.json"),
    "example_a": fixture_path("example_a.json"),
    "sector": PROBLEMS / "sector.json",
    "linear": PROBLEMS / "linear.json",
    "schur": PROBLEMS / "schur.json",
}
# every source runs check and radius; refine's delta_crit is divided by the copy's c
EXTRA = {
    "example_a": [("radius", "--override-gates")],
    "example_b": [("refine", "--delta-crit", 3.15)],
}
# the sources whose sector gives check a witness to print
WITNESSES = {"example_a", "example_b", "sector"}
PERMUTATIONS = list(itertools.permutations(range(3)))
SCALES = [1e-100, 1e-3, 1e3, 1e100]
COPIES = [(perm, 1.0) for perm in PERMUTATIONS] + [(PERMUTATIONS[0], c) for c in SCALES]
# diagonal copies: log10 of S's entries uniform in [-k/2, k/2] at the spread 10^k
SPREADS = [10, 20, 50, 100]
DIAGONAL_COPIES = 10


def copy_of(name: str, perm, c: float, s=np.ones(3)) -> dict:
    """The source problem in the states ordered by ``perm``, then scaled as x -> S x
    by ``S = diag(s)``, with D scaled by ``c``."""
    path = SOURCES[name]
    doc = json.loads(path.read_text())
    if "network" in doc:  # the copy is written elsewhere, so name the network by its path
        doc["network"] = str(path.parent / doc["network"])
    p, rows = list(perm), s[:, None]
    system, pert = doc["system"], doc["perturbation"]
    system["A"] = (rows * np.array(system["A"], float)[np.ix_(p, p)] / s).tolist()
    system["B"] = (rows * np.array(system["B"], float)[p]).tolist()
    system["C"] = (np.array(system["C"], float)[:, p] / s).tolist()
    pert["D"] = (c * rows * np.array(pert["D"], float)[p]).tolist()
    pert["E"] = (np.array(pert["E"], float)[:, p] / s).tolist()
    return doc


def run(path, command: tuple, c: float) -> tuple[int, dict]:
    """Exit code and JSON results of one command; a refused command prints no report."""
    argv = [command[0], "--problem", str(path)]
    for arg in command[1:]:
        argv.append(repr(arg / c) if isinstance(arg, float) else arg)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--format", "json"])
    out = stdout.getvalue()
    return code, json.loads(out) if out else {}


def commands(name: str) -> list[tuple]:
    return [("check",), ("radius",), *EXTRA.get(name, [])]


def outputs(path, name: str, c: float) -> dict:
    return {command: run(path, command, c) for command in commands(name)}


@functools.lru_cache(maxsize=None)
def source_outputs(name: str) -> dict:
    return outputs(SOURCES[name], name, 1.0)


def exact_part(data: dict) -> dict:
    """What no copy may change by a bit: the gates, the verdicts and the warnings."""
    results = data.get("results", {})
    gates = {k: v for k, v in results.items() if k.startswith("gate_")}
    for key in ("metzler_at_upper", "verdict"):
        if key in results:
            gates[key] = results[key]
    return {"gates": gates, "warnings": data.get("warnings")}


def assert_same_answers(copied: dict, name: str, perm, c: float, witness: bool) -> None:
    """The copy's outputs against the source's; ``witness`` compares the permuted witness.
    In the copy itself, ``check`` and ``radius`` print the same witness."""
    source = source_outputs(name)
    for command in commands(name):
        (code, data), (want_code, want) = copied[command], source[command]
        assert code == want_code, command
        assert exact_part(data) == exact_part(want), command
        results, expected = data.get("results", {}), want.get("results", {})
        for key in ("radius", "magnitude", "positive_vector"):
            assert (key in results) == (key in expected), (command, key)
        for key, scale in (("radius", c), ("magnitude", 1.0)):
            if key in expected:
                assert results[key] * scale == pytest.approx(expected[key], rel=RTOL, abs=0.0)
        if witness and "positive_vector" in expected:
            np.testing.assert_allclose(
                results["positive_vector"], np.array(expected["positive_vector"])[list(perm)],
                rtol=RTOL, atol=0.0,
            )
    if name in WITNESSES:
        witnesses = [data["results"]["positive_vector"]
                     for command, (_, data) in copied.items() if command[0] in ("check", "radius")]
        assert all(w == witnesses[0] for w in witnesses)


@pytest.mark.parametrize("perm, c", COPIES,
                         ids=[f"perm{''.join(map(str, p))}-c{c:g}" for p, c in COPIES])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_coordinate_change(name, perm, c, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(copy_of(name, perm, c)))
    assert_same_answers(outputs(path, name, c), name, perm, c, witness=True)


@pytest.mark.parametrize("k", SPREADS, ids=[f"spread1e{k}" for k in SPREADS])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_diagonal_coordinates(name, k, tmp_path):
    # a loop refused only for its scale is solved on its equilibrated copy
    rng = np.random.default_rng(k)
    identity = PERMUTATIONS[0]
    for i in range(DIAGONAL_COPIES):
        path = tmp_path / f"{name}_{i}.json"
        s = 10.0 ** rng.uniform(-k / 2, k / 2, 3)
        path.write_text(json.dumps(copy_of(name, identity, 1.0, s)))
        assert_same_answers(outputs(path, name, 1.0), name, identity, 1.0, witness=False)


def test_a_huge_diagonal_entry_is_certified(tmp_path):
    # example_b with A[0][0] = -1e154: kappa_inf near 1e154 in its own scale; the upper
    # loop's first row is dominated by its diagonal, so 1 / ||E M^-1 D|| reads 1e154
    doc = copy_of("example_b", PERMUTATIONS[0], 1.0)
    doc["system"]["A"][0][0] = -1e154
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for command in ("check", "radius"):
        code, data = run(path, (command,), 1.0)
        assert code == 0 and data["results"]["verdict"] is True, command
        assert data["warnings"] == []
    assert data["results"]["radius"] == pytest.approx(1e154, rel=1e-12, abs=0.0)
