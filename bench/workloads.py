"""The four benchmark workloads: seeded inputs, operations and their checks.

A workload is built in two steps.  The constructor generates the inputs
(and writes problem files); it is part of the timed set-up.  ``operations``
then computes the reference values with ``checks`` and returns the list of
operations that make up one round; it is not part of any timing.

Every operation calls lurestab through a module attribute (``cli.main``,
``radius.certify_positive_lure``, ``sim.sweep``, ...), so the traced mode can
wrap those attributes.  An operation's check returns the names of the
checks that failed; ``THRESHOLD_FAULT`` names the known fault of the
simulated threshold search.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lurestab import cli, problems, radius, sim
from lurestab.linalg import NormKind

import checks

THRESHOLD_FAULT = "threshold_accuracy"
# Sampling size of the CLI's empirical sector check (the refine command).
EMPIRICAL_SAMPLES = 1000
# The paper's value chain on the two bundled fixtures: (value, tolerance).
CHAIN = {
    "example_a_radius": (0.26, 0.01),
    "example_b_gamma2": (0.91, 1e-12),
    "example_b_radius": (2.04, 0.02),
    "example_b_refined": (0.25, 0.01),
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Spec:
    """A problem as the benchmark knows it: raw matrices, apart from the program."""

    name: str
    kind: str  # sector | network | builtin | linear | schur
    certified: bool
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    norm: str = "two"
    s1: np.ndarray | None = None
    s2: np.ndarray | None = None
    s: np.ndarray | None = None
    layers: list | None = None
    path: str = ""

    @property
    def upper(self) -> np.ndarray:
        return self.a + self.b @ self.s2 @ self.c

    @property
    def scalar_pert(self) -> bool:
        return self.d.shape[1] == 1 and self.e.shape[0] == 1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _metzler(rng, n: int, lo: float, hi: float, row_sums) -> np.ndarray:
    """Metzler matrix with off-diagonal entries in [lo, hi) and ``A @ 1 = row_sums``."""
    a = rng.uniform(lo, hi, (n, n))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, row_sums - a.sum(axis=1))
    return a


def _cli(argv: list) -> Callable[[], tuple]:
    argv = list(argv) + ["--format", "json"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _parse(result, code: int, fails: list):
    got, out, _ = result
    if got != code:
        fails.append(f"exit_code:{got}!={code}")
    try:
        return json.loads(out)["results"]
    except (ValueError, KeyError):
        fails.append("json_report")
        return None


# --------------------------------------------------------------------------
# analytic


def _read_fixture(name: str, root: Path) -> Spec:
    fixtures = root / "src" / "lurestab" / "fixtures"
    doc = json.loads((fixtures / name).read_text())
    mats = {k: np.array(v, dtype=float) for k, v in doc["system"].items()}
    pert = doc["perturbation"]
    spec = Spec(
        name=name.removesuffix(".json"), kind="", certified=False,
        a=mats["A"], b=mats["B"], c=mats["C"],
        d=np.array(pert["D"], dtype=float), e=np.array(pert["E"], dtype=float),
        norm=pert.get("norm", "two"), path=name,
    )
    if "network" in doc:
        net = json.loads((fixtures / doc["network"]).read_text())
        spec.kind = "network"
        spec.layers = [
            (np.array(l["weights"], dtype=float).reshape(l["rows"], l["cols"]),
             np.array(l["bias"], dtype=float))
            for l in net["layers"]
        ]
        act = net["activation"]
        g2 = checks.gamma2(spec.layers, max(abs(act["a1"]), abs(act["a2"])))
        spec.s1, spec.s2 = -g2, g2
    else:
        spec.kind = "builtin"
        lo, hi = checks.CUBIC_SINE_SECTOR
        spec.s1, spec.s2 = np.array([[lo]]), np.array([[hi]])
    spec.certified = checks.verdict(checks.gates(spec.a, spec.b, spec.c, spec.s1, spec.s2))
    return spec


def _write_problem(spec: Spec, workdir: Path) -> None:
    pert = {"D": spec.d.tolist(), "E": spec.e.tolist()}
    if spec.s is not None:
        pert["S"] = spec.s.tolist()
    else:
        pert["norm"] = spec.norm
    doc = {"system": {"A": spec.a.tolist(), "B": spec.b.tolist(), "C": spec.c.tolist()},
           "perturbation": pert}
    if spec.kind == "sector":
        doc["sector"] = {"Sigma1": spec.s1.tolist(), "Sigma2": spec.s2.tolist()}
    elif spec.kind == "builtin":
        doc["builtin_nonlinearity"] = "cubic_sine"
    elif spec.kind == "network":
        net = {"activation": {"name": "relu", "a1": 0.0, "a2": 1.0}, "layers": [
            {"rows": w.shape[0], "cols": w.shape[1], "weights": w.ravel().tolist(),
             "bias": b.tolist()} for w, b in spec.layers]}
        net_name = spec.name + "_net.json"
        (workdir / net_name).write_text(json.dumps(net))
        doc["network"] = net_name
    path = workdir / (spec.name + ".json")
    path.write_text(json.dumps(doc))
    spec.path = str(path)


def _zero_bias_net(rng, widths, nonneg: bool, gamma=None) -> list:
    dims = [1] + list(widths) + [1]
    layers = []
    for i in range(len(dims) - 1):
        w = rng.uniform(0.1, 1.0, (dims[i + 1], dims[i])) if nonneg else \
            rng.normal(0.0, 1.0, (dims[i + 1], dims[i]))
        layers.append((w, np.zeros(dims[i + 1])))
    if gamma is not None:
        w, b = layers[-1]
        layers[-1] = (w * gamma / float(checks.gamma2(layers, 1.0)[0, 0]), b)
    return layers


def _analytic_specs(seed: int) -> list:
    """Seeded problems of every kind; each is certified or gate-failing by construction."""
    specs = []
    rng = _rng(seed, 1)
    # sector loop, MIMO, certified: |B S1 C| < 0.4 <= off-diagonal of A,
    # and the upper loop has row sums -a, so it is Metzler and Hurwitz.
    n = 5
    b, c = rng.uniform(0.2, 1.0, (n, 2)), rng.uniform(0.2, 1.0, (2, n))
    s1, s2 = -rng.uniform(0.0, 0.1, (2, 2)), rng.uniform(0.1, 0.5, (2, 2))
    a = _metzler(rng, n, 0.5, 1.5, -(b @ s2 @ c).sum(axis=1) - rng.uniform(0.5, 2.0))
    specs.append(Spec("sector_ok", "sector", True, a, b, c,
                      rng.uniform(0.1, 1.0, (n, 1)), rng.uniform(0.1, 1.0, (1, n)),
                      "two", s1=s1, s2=s2))
    # sector loop failing the lower Metzler gate: 50 b_i c_j >= 2 > every A_ij.
    n = 12
    b, c = rng.uniform(0.2, 1.0, (n, 1)), rng.uniform(0.2, 1.0, (1, n))
    s1, s2 = np.array([[-50.0]]), np.array([[0.3]])
    a = _metzler(rng, n, 0.1, 1.0, -(b @ s2 @ c).sum(axis=1) - rng.uniform(0.5, 2.0))
    specs.append(Spec("sector_fail", "sector", False, a, b, c,
                      rng.uniform(0.1, 1.0, (n, 1)), rng.uniform(0.1, 1.0, (1, n)),
                      "inf", s1=s1, s2=s2))
    # network loop, nonnegative weights (gain <= 1), certified.
    n = 8
    layers = _zero_bias_net(rng, [4], nonneg=True)
    layers[-1] = (layers[-1][0] / 4.0, layers[-1][1])
    g2 = checks.gamma2(layers, 1.0)
    b, c = rng.uniform(0.1, 0.5, (n, 1)), rng.uniform(0.1, 0.5, (1, n))
    a = _metzler(rng, n, 0.5, 1.5, -(b @ g2 @ c).sum(axis=1) - rng.uniform(0.5, 2.0))
    specs.append(Spec("network_ok", "network", True, a, b, c,
                      rng.uniform(0.1, 1.0, (n, 1)), rng.uniform(0.1, 1.0, (1, n)),
                      "one", s1=-g2, s2=g2, layers=layers))
    # network loop, mixed-sign weights scaled to gamma2 = 3; (B C) @ 1 >= 0.8,
    # so the upper loop's row sums exceed A's -0.2 and it is not Hurwitz.
    n = 20
    while True:
        layers = _zero_bias_net(rng, [6, 3], nonneg=False, gamma=3.0)
        gain = checks.relu_forward(layers, np.ones(1))[0]
        if abs(gain) >= 0.3:
            break
    # a positive orthant gain g, so that refine's outcome is the same for every seed
    layers[-1] = (np.sign(gain) * layers[-1][0], layers[-1][1])
    g2 = checks.gamma2(layers, 1.0)
    b, c = rng.uniform(0.2, 1.0, (n, 1)), rng.uniform(0.2, 1.0, (1, n))
    a = _metzler(rng, n, 0.1, 1.0, -0.2)
    specs.append(Spec("network_fail", "network", False, a, b, c,
                      rng.uniform(0.1, 1.0, (n, 1)), rng.uniform(0.1, 1.0, (1, n)),
                      "two", s1=-g2, s2=g2, layers=layers))
    # cubic_sine loop, certified: 2 b_i c_j <= 0.5 < off-diagonal of A.
    n = 24
    b, c = rng.uniform(0.1, 0.5, (n, 1)), rng.uniform(0.1, 0.5, (1, n))
    lo, hi = checks.CUBIC_SINE_SECTOR
    a = _metzler(rng, n, 1.0, 2.0, -rng.uniform(0.5, 2.0))
    specs.append(Spec("cubic_ok", "builtin", True, a, b, c,
                      rng.uniform(0.1, 1.0, (n, 1)), rng.uniform(0.1, 1.0, (1, n)),
                      "two", s1=np.array([[lo]]), s2=np.array([[hi]])))
    # purely linear, Hurwitz, two-column perturbation.
    n = 32
    a = _metzler(rng, n, 0.0, 1.0, -rng.uniform(0.5, 2.0))
    specs.append(Spec("linear_ok", "linear", True, a, np.zeros((n, 1)), np.zeros((1, n)),
                      rng.uniform(0.0, 1.0, (n, 2)), rng.uniform(0.0, 1.0, (2, n)), "inf"))
    # purely linear with A @ 1 = a 1, a > 0: the Perron root is positive.
    n = 10
    a = _metzler(rng, n, 0.0, 1.0, rng.uniform(0.1, 0.5))
    specs.append(Spec("linear_fail", "linear", False, a, np.zeros((n, 1)), np.zeros((1, n)),
                      rng.uniform(0.1, 1.0, (n, 1)), rng.uniform(0.1, 1.0, (1, n)), "two"))
    # entrywise-scaled (Schur) radius with a 2x2 scale pattern.
    n = 16
    a = _metzler(rng, n, 0.0, 1.0, -rng.uniform(0.5, 2.0))
    specs.append(Spec("schur", "schur", True, a, np.zeros((n, 1)), np.zeros((1, n)),
                      rng.uniform(0.0, 1.0, (n, 2)), rng.uniform(0.0, 1.0, (2, n)),
                      "maxabs", s=rng.uniform(0.1, 1.0, (2, 2))))
    return specs


class Analytic:
    """Every CLI command that applies, on seeded problem files and the two fixtures."""

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.specs = _analytic_specs(seed)
        for spec in self.specs:
            _write_problem(spec, workdir)
        self.specs += [_read_fixture("example_a.json", root), _read_fixture("example_b.json", root)]
        self.delta_crit = {}
        self.plan = []
        for spec in self.specs:
            override = [] if spec.certified else ["--override-gates"]
            if spec.kind in ("sector", "network", "builtin"):
                self.plan.append((spec, "check", ["check", "--problem", spec.path]))
            self.plan.append((spec, "radius", ["radius", "--problem", spec.path] + override))
            if spec.kind == "network":
                self.plan.append((spec, "nn-bound", ["nn-bound", "--problem", spec.path]))
                delta = 3.15 if spec.name == "example_b" else _refine_delta(spec)
                self.delta_crit[spec.name] = delta
                self.plan.append((spec, "refine", ["refine", "--problem", spec.path,
                                                   "--delta-crit", repr(delta)]))
        self.runs = [_cli(argv) for _, _, argv in self.plan]

    def warmup(self) -> None:
        self.runs[0]()

    def operations(self) -> list:
        ops = []
        for (spec, cmd, _), run in zip(self.plan, self.runs):
            check = getattr(self, "_check_" + cmd.replace("-", "_"))
            ops.append(Op(f"{cmd} {spec.name}", run, _bind(check, spec)))
        return ops

    def _gate_fails(self, spec: Spec, res: dict, fails: list) -> None:
        g = checks.gates(spec.a, spec.b, spec.c, spec.s1, spec.s2)
        for key, want in g.items():
            if res.get(key) != want:
                fails.append("gate:" + key)
        if res.get("verdict") is not None and res["verdict"] != checks.verdict(g):
            fails.append("verdict")
        v = res.get("positive_vector")
        if v is not None:
            if not checks.certificate_ok(spec.upper, v):
                fails.append("positive_vector")
        elif g["metzler_at_upper"] and g["gate_hurwitz_at_upper"]:
            fails.append("positive_vector_missing")

    def _check_check(self, spec: Spec, result) -> list:
        fails = []
        verdict = checks.verdict(checks.gates(spec.a, spec.b, spec.c, spec.s1, spec.s2))
        res = _parse(result, 0 if verdict else 2, fails)
        if res is not None:
            self._gate_fails(spec, res, fails)
        return fails

    def _check_radius(self, spec: Spec, result) -> list:
        fails = []
        if spec.kind == "linear" and not spec.certified:
            code, _, err = result
            if code != 2 or "Hurwitz" not in err or checks.abscissa(spec.a) < 0:
                fails.append("not_hurwitz_exit")
            return fails
        res = _parse(result, 0, fails)
        if res is None:
            return fails
        r = float(res["radius"])
        if spec.kind == "schur":
            m = spec.a
            ok = checks.close(r * checks.schur_rho(spec.a, spec.d, spec.e, spec.s), 1.0)
            formula = "schur_spectral"
        else:
            m = spec.a if spec.kind == "linear" else spec.upper
            ok = checks.close(r * checks.transfer_norm(spec.e, m, spec.d, spec.norm), 1.0)
            formula = {"linear": "linear_norm", "network": "nn_upper_sector"}.get(
                spec.kind, "lure_upper_sector")
        if not ok:
            fails.append("radius_formula")
        if res.get("formula") != formula:
            fails.append("formula_name")
        if not np.allclose(np.array(res["closed_loop"]), m, rtol=1e-12, atol=0.0):
            fails.append("closed_loop")
        if spec.kind in ("sector", "network", "builtin"):
            self._gate_fails(spec, res, fails)
            if spec.certified and spec.scalar_pert and not checks.radius_sign_ok(m, spec.d, spec.e, r):
                fails.append("radius_sign")
        elif spec.scalar_pert and not checks.radius_sign_ok(m, spec.d, spec.e, r):
            fails.append("radius_sign")
        if spec.name == "example_a":
            fails += _chain("example_a_radius", r)
        if spec.name == "example_b":
            fails += _chain("example_b_radius", r)
        return fails

    def _check_nn_bound(self, spec: Spec, result) -> list:
        fails = []
        res = _parse(result, 0, fails)
        if res is None:
            return fails
        g2 = np.array(res["gamma2"])
        if not np.allclose(g2, spec.s2, rtol=1e-12, atol=0.0):
            fails.append("gamma2")
        if not np.array_equal(np.array(res["gamma1"]), -g2):
            fails.append("gamma1")
        if res.get("hidden_layers") != len(spec.layers) - 1:
            fails.append("hidden_layers")
        if spec.name == "example_b":
            fails += _chain("example_b_gamma2", float(g2[0, 0]))
        return fails

    def _check_refine(self, spec: Spec, result) -> list:
        fails = []
        res = _parse(result, 0, fails)
        if res is None:
            return fails
        delta = self.delta_crit[spec.name]
        if res.get("delta_crit") != delta:
            fails.append("delta_crit")
        fails += _refine_fails(spec, res, delta)
        if spec.name == "example_b":
            fails += _chain("example_b_refined", float(res["magnitude"]))
        return fails


def _magnitude(spec: Spec, delta: float) -> float:
    """Refined sector magnitude ``1/|C (A + delta D E)^-1 B|`` of a scalar loop."""
    perturbed = spec.a + delta * (spec.d @ spec.e)
    return 1.0 / abs((spec.c @ np.linalg.solve(perturbed, spec.b)).item())


def _refine_delta(spec: Spec) -> float:
    """delta_crit at which the refined magnitude m sits at a fixed place
    relative to the network's orthant gain g, so that the refine command
    takes the same path for every seed: m = (g + m(0)) / 2 > g (no sampled
    violation) on a certified loop, m = g / 2 (every sample violates)
    otherwise.  m decreases from m(0) to 0 as delta approaches the radius of
    the Metzler Hurwitz plant, so bisection finds it."""
    g, m0 = _orthant_gain(spec), _magnitude(spec, 0.0)
    target = 0.5 * (g + m0) if spec.certified else 0.5 * g
    if m0 <= target:
        return 0.0
    lo, hi = 0.0, 1.0 / (spec.e @ np.linalg.solve(-spec.a, spec.d)).item()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _magnitude(spec, mid) > target else (lo, mid)
    return lo


def _bind(check, spec):
    return lambda result: check(spec, result)


def _chain(key: str, value: float) -> list:
    want, tol = CHAIN[key]
    return [] if abs(value - want) <= tol else ["chain:" + key]


def _orthant_gain(spec: Spec) -> float:
    """Gain of a zero-bias ReLU network on nonnegative scalar inputs (it is
    positively homogeneous there)."""
    return float(checks.relu_forward(spec.layers, np.ones(1))[0])


def _refine_fails(spec: Spec, res: dict, delta: float) -> list:
    """Checks shared by ``refine`` with and without ``--delta-crit``, at the
    delta_crit that the command used."""
    fails = []
    if not np.allclose(np.array(res["gamma2"]), spec.s2, rtol=1e-12, atol=0.0):
        fails.append("gamma2")
    m = float(res["magnitude"])
    if not checks.close(m, _magnitude(spec, delta)):
        fails.append("magnitude")
    if res.get("candidates") != [m, -m]:
        fails.append("candidates")
    g = _orthant_gain(spec)
    sign = -1.0 if g <= -m else 1.0
    if res.get("refined_upper") != [[sign * m]]:
        fails.append("refined_sign")
    violations = EMPIRICAL_SAMPLES if g > m else 0
    if res.get("empirical_samples") != EMPIRICAL_SAMPLES or res.get("empirical_violations") != violations:
        fails.append("empirical_violations")
    return fails


# --------------------------------------------------------------------------
# dense-scale


@dataclass
class DenseCase:
    n: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    s1: float
    s2: float
    s: float
    p: np.ndarray  # positive eigenvector shared by every loop built from a
    sys: object = None
    sector: object = None
    pert: object = None
    pert_schur: object = None


def _perron_case(rng, n: int) -> DenseCase:
    """Dense Metzler system whose loops all have the eigenvector p > 0.

    ``A0 = R - diag(R 1) - a I`` has ``A0 1 = -a 1``; with ``P = diag(p)``,
    ``A = P A0 P^-1``, ``B, D`` proportional to ``p`` and ``C, E`` to
    ``1^T P^-1``, every ``A + t B C + u D E`` maps p to a multiple of p.  For an
    irreducible Metzler matrix that multiple is the spectral abscissa, so
    every gate and radius is known in closed form.
    """
    r = rng.uniform(0.5, 1.5, (n, n)) / n
    np.fill_diagonal(r, 0.0)
    p = rng.uniform(0.5, 2.0, n)
    a0 = r - np.diag(r.sum(axis=1) + rng.uniform(1.5, 2.5))
    a = p[:, None] * a0 / p[None, :]
    b = (rng.uniform(0.5, 1.0) * p)[:, None]
    c = (rng.uniform(0.5, 1.0) / (n * p))[None, :]
    d = (rng.uniform(0.5, 1.0) * p)[:, None]
    e = (rng.uniform(0.5, 1.0) / (n * p))[None, :]
    return DenseCase(n, a, b, c, d, e, s1=-0.3, s2=0.5, s=rng.uniform(0.5, 1.5), p=p)


def _perron_rate(m: np.ndarray, p: np.ndarray) -> float:
    """Eigenvalue of m at p, after checking that p is an eigenvector."""
    lam = (m @ p) / p
    if lam.max() - lam.min() > 1e-9 * max(1.0, np.abs(lam).max()):
        raise RuntimeError("generated matrix lost its positive eigenvector")
    return float(lam.mean())


class DenseScale:
    """Gates and the three radius formulas on dense Metzler systems."""

    SIZES = (300, 500, 800)

    def __init__(self, seed: int, workdir: Path, root: Path):
        rng = _rng(seed, 2)
        self.cases = [_perron_case(rng, n) for n in self.SIZES]
        for case in self.cases:
            case.sys = radius.LtiSystem(case.a, case.b, case.c)
            case.sector = radius.SectorBound.scalar(case.s1, case.s2)
            case.pert = radius.PerturbationStructure(case.d, case.e, NormKind.TWO)
            case.pert_schur = radius.PerturbationStructure(
                case.d, case.e, NormKind.MAX_ABS, schur_scale=[[case.s]])

    def warmup(self) -> None:
        case = self.cases[0]
        radius.certify_positive_lure(case.sys, case.sector)

    def operations(self) -> list:
        ops = []
        for case in self.cases:
            upper = case.a + case.s2 * (case.b @ case.c)
            lower = case.a + case.s1 * (case.b @ case.c)
            if not (checks.metzler(lower) and _perron_rate(upper, case.p) < 0
                    and _perron_rate(case.a, case.p) < 0):
                raise RuntimeError("generated dense system is not certified")
            r_lure = 1.0 / checks.transfer_norm(case.e, upper, case.d, "two")
            r_lin = 1.0 / checks.transfer_norm(case.e, case.a, case.d, "two")
            r_schur = 1.0 / (case.s * (case.e @ np.linalg.solve(-case.a, case.d)).item())
            ops += [
                Op(f"certify n={case.n}",
                   lambda c=case: radius.certify_positive_lure(c.sys, c.sector),
                   _bind_case(_check_certify, case, upper)),
                Op(f"radius_lure n={case.n}",
                   lambda c=case: radius.stability_radius_lure(c.sys, c.sector, c.pert),
                   _bind_radius(case, upper, r_lure, "lure_upper_sector")),
                Op(f"radius_linear n={case.n}",
                   lambda c=case: radius.stability_radius_linear(c.a, c.pert),
                   _bind_radius(case, case.a, r_lin, "linear_norm")),
                Op(f"radius_schur n={case.n}",
                   lambda c=case: radius.stability_radius_schur(c.a, c.pert_schur),
                   _bind_radius(case, case.a, r_schur, "schur_spectral", sign=False)),
            ]
        return ops


def _bind_case(check, case, upper):
    return lambda result: check(case, upper, result)


def _check_certify(case: DenseCase, upper: np.ndarray, cert) -> list:
    fails = []
    want = {"b_nonneg": True, "c_nonneg": True, "sector_ordered": True,
            "metzler_at_lower": True, "hurwitz_at_upper": True, "metzler_at_upper": True}
    for key, value in want.items():
        if getattr(cert, key) is not value:
            fails.append("gate:" + key)
    if cert.verdict is not True:
        fails.append("verdict")
    if cert.positive_vector is None or not checks.certificate_ok(upper, cert.positive_vector):
        fails.append("positive_vector")
    return fails


def _bind_radius(case: DenseCase, m: np.ndarray, want: float, formula: str, sign: bool = True):
    def check(report) -> list:
        fails = []
        r = float(report.radius)
        if not checks.close(r, want):
            fails.append("radius_formula")
        if report.formula != formula:
            fails.append("formula_name")
        if sign:
            # the abscissa of m + t D E is its eigenvalue at p (Perron-Frobenius)
            de_p = case.d[:, 0] * (case.e @ case.p).item()
            below = (m @ case.p + (1 - checks.EPS) * r * de_p) / case.p
            above = (m @ case.p + (1 + checks.EPS) * r * de_p) / case.p
            if not (below.max() < 0 < above.min()):
                fails.append("radius_sign")
        return fails

    return check


# --------------------------------------------------------------------------
# simulation


@dataclass
class Loop:
    """A simulated loop and what the benchmark knows about it apart from the program."""

    name: str
    sys: object
    phi: object
    pert: object
    gain: np.ndarray | None  # K when the loop is exactly x' = (A + B K C + delta D E) x
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray

    def matrix(self, delta: float) -> np.ndarray:
        return self.a + self.b @ self.gain @ self.c + delta * (self.d @ self.e)

    @property
    def formula_radius(self) -> float | None:
        """Exact radius when the unperturbed loop is Metzler and Hurwitz."""
        if self.gain is None:
            return None
        m = self.matrix(0.0)
        if not checks.metzler(m) or checks.abscissa(m) >= 0:
            return None
        return 1.0 / checks.transfer_norm(self.e, m, self.d, "two")


def _fixture_loop(name: str, root: Path, phi_kind: str) -> Loop:
    spec = _read_fixture(name + ".json", root)
    problem = problems.load_problem(name + ".json")
    if phi_kind == "network":
        phi, gain = problem.loop_nonlinearity(), np.array([[_orthant_gain(spec)]])
    elif phi_kind == "gain":
        phi, gain = sim.Nonlinearity.gain(spec.s2), spec.s2
    else:
        phi, gain = problem.loop_nonlinearity(), None
    return Loop(f"{name} {phi_kind}", problem.system, phi, problem.pert, gain,
                spec.a, spec.b, spec.c, spec.d, spec.e)


def _seeded_gain_loop(rng, n: int) -> Loop:
    """Gain loop of n states whose abscissa is ``delta - 1`` for every seed.

    Built like the dense systems: with ``(1/p)^T`` and ``p`` directions, the
    abscissa of ``A + k B C + delta D E`` is ``-a + k b c + delta d e``; the
    benchmark sets ``a = 1 + k b c`` and ``e = 1 / d``.
    """
    base = _perron_case(rng, n)
    k = rng.uniform(0.2, 1.0)
    bc = (base.c @ base.b).item()
    de = (base.e @ base.d).item()
    shift = -_perron_rate(base.a, base.p) - (1.0 + k * bc)
    a = base.a + shift * np.eye(n)
    e = base.e / de
    gain = np.array([[k]])
    return Loop("seeded gain", radius.LtiSystem(a, base.b, base.c), sim.Nonlinearity.gain(gain),
                radius.PerturbationStructure(base.d, e, NormKind.TWO), gain,
                a, base.b, base.c, base.d, e)


@dataclass
class SweepPlan:
    loop: Loop
    deltas: list
    cfg: object
    trials: int
    seed: int
    csv_path: str

    def run(self):
        rows = sim.sweep(self.loop.sys, self.loop.phi, self.loop.pert, self.deltas,
                         cfg=self.cfg, trials=self.trials, seed=self.seed)
        sim.write_sweep_csv(rows, self.csv_path)
        return rows


@dataclass
class SearchPlan:
    loop: Loop
    delta_max: float
    tol: float
    cfg: object
    trials: int
    seed: int = sim.DEFAULT_SEED

    def run(self):
        return sim.find_critical_delta(self.loop.sys, self.loop.phi, self.loop.pert,
                                       delta_max=self.delta_max, tol=self.tol, cfg=self.cfg,
                                       trials=self.trials, seed=self.seed)


def _verdict_fails(loop: Loop, deltas, horizon: float, verdicts) -> list:
    """``verdicts`` holds (delta, verdict) pairs of one sweep."""
    r = loop.formula_radius
    rates = {d: checks.abscissa(loop.matrix(d)) for d in deltas} if loop.gain is not None else {}
    fails = set()
    for delta, verdict in verdicts:
        if r is not None and delta < r and verdict == "Unstable":
            fails.add("unstable_below_radius")
        if delta in rates and checks.must_be_unstable(rates[delta], horizon) \
                and verdict != "Unstable":
            fails.add("missed_instability")
    return sorted(fails)


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return [(float(w[0]), int(w[1]), w[3], float(w[4])) for w in list(csv.reader(fh))[1:]]


def _sweep_op(plan: SweepPlan) -> Op:
    def check(rows) -> list:
        fails = []
        if len(rows) != len(plan.deltas) * plan.trials:
            fails.append("row_count")
        if not all(math.isfinite(row.decay_ratio) for row in rows):
            fails.append("finite")
        fails += _verdict_fails(plan.loop, plan.deltas, plan.cfg.horizon,
                                [(row.delta, row.verdict) for row in rows])
        if _read_csv(plan.csv_path) != [(row.delta, row.trial, row.verdict, row.decay_ratio)
                                        for row in rows]:
            fails.append("csv")
        return fails

    return Op(f"sweep {plan.loop.name}", plan.run, check)


def _cli_sweep_op(loop: Loop, path: str, deltas: list, trials: int, horizon: float,
                  argv: list, csv_path: str) -> Op:
    r = loop.formula_radius

    def check(result) -> list:
        fails = []
        res = _parse(result, 0, fails)
        if res is None:
            return fails
        if not checks.close(float(res["formula_radius"]), r):
            fails.append("formula_radius")
        if res["deltas"] != deltas or res["trials"] != trials:
            fails.append("grid")
        rows = _read_csv(csv_path)
        if len(rows) != len(deltas) * trials or not all(math.isfinite(w[3]) for w in rows):
            fails.append("csv")
        fails += _verdict_fails(loop, deltas, horizon, [(w[0], w[2]) for w in rows])
        for entry in res["per_delta"]:
            counts = [sum(w[2] == v for w in rows if w[0] == entry["delta"])
                      for v in ("Stable", "Unstable", "Inconclusive")]
            if counts != [entry["stable"], entry["unstable"], entry["inconclusive"]]:
                fails.append("per_delta")
        return fails

    return Op(f"cli-sweep {loop.name}", _cli(argv), check)


def _thresholds(loop: Loop, hi: float, horizon: float):
    """(exact, faulty) thresholds of a gain-equivalent loop, else None: the
    eigenvalue crossing, and where the abscissa reaches the growth level of
    the horizon, which is where the known fault lands a search."""
    if loop.gain is None:
        return None
    m0, dm = loop.matrix(0.0), loop.d @ loop.e
    return (checks.crossing(m0, dm, hi),
            checks.crossing(m0, dm, hi, level=checks.growth_level(horizon)))


def _bracket_fails(lo: float, hi: float, star: float, tol: float, r, thresholds) -> list:
    """Bracket width and content; no instability below the formula radius r;
    the threshold within THRESHOLD_RTOL of the exact crossing, where known.
    A miss counts as the known fault only when it lands within FAULT_RTOL of
    the faulty threshold; any other miss is a plain failure."""
    fails = []
    if not (hi - lo <= tol and lo <= star <= hi):
        fails.append("bracket")
    if r is not None and hi < r:
        fails.append("unstable_below_radius")
    if thresholds is not None:
        exact, faulty = thresholds
        if abs(star - exact) > checks.THRESHOLD_RTOL * exact:
            known = abs(star - faulty) <= checks.FAULT_RTOL * faulty
            fails.append(THRESHOLD_FAULT if known else "threshold")
    return fails


def _search_op(plan: SearchPlan) -> Op:
    loop = plan.loop
    r = loop.formula_radius
    thresholds = _thresholds(loop, plan.delta_max, plan.cfg.horizon)

    def check(found) -> list:
        lo, hi = found.bracket
        return _bracket_fails(lo, hi, found.delta_star, plan.tol, r, thresholds)

    return Op(f"search {loop.name}", plan.run, check)


def _refine_search_op(loop: Loop, spec: Spec, argv: list, horizon: float) -> Op:
    run = _cli(argv)
    tol = 0.01  # the refine command's search tolerance
    r = loop.formula_radius
    thresholds = _thresholds(loop, 10.0 * r, horizon)

    def check(result) -> list:
        fails = []
        res = _parse(result, 0, fails)
        if res is None:
            return fails
        if not checks.close(float(res["formula_radius"]), r):
            fails.append("formula_radius")
        lo, hi = res["delta_crit_bracket"]
        star = res["delta_crit"]
        fails += _bracket_fails(lo, hi, star, tol, r, thresholds)
        fails += _refine_fails(spec, res, star)
        return fails

    return Op("refine-search " + loop.name, run, check)


class Simulate:
    """Nonlinear loops: sweeps, threshold searches and the searching refine command."""

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.root = root
        rng = _rng(seed, 3)
        net = _fixture_loop("example_b", root, "network")
        cubic = _fixture_loop("example_a", root, "cubic_sine")
        cfg = sim.SimConfig(dt=0.02, horizon=20.0)
        draws = [int(x) for x in rng.integers(0, 2**31, 2)]
        self.sweeps = [
            SweepPlan(net, [1.0, 2.0, 2.04, 2.24], cfg, 2, draws[0], str(workdir / "sweep_b.csv")),
            SweepPlan(cubic, [0.2, 0.26, 0.4], cfg, 2, draws[1], str(workdir / "sweep_a.csv")),
        ]
        self.searches = [SearchPlan(net, 4.0, 0.01, cfg, 1), SearchPlan(cubic, 2.0, 0.01, cfg, 1)]
        self.refine_horizon = 10.0
        self.refine_argv = ["refine", "--problem", "example_b.json", "--trials", "1",
                            "--horizon", repr(self.refine_horizon), "--dt", "0.02"]
        self.net = net

    def warmup(self) -> None:
        _cli(["refine", "--problem", "example_b.json", "--delta-crit", "3.15"])()

    def operations(self) -> list:
        spec = _read_fixture("example_b.json", self.root)
        return ([_sweep_op(p) for p in self.sweeps] + [_search_op(p) for p in self.searches]
                + [_refine_search_op(self.net, spec, self.refine_argv, self.refine_horizon)])


class SimulateLinear:
    """Gain loops through the simulator's one-matrix path."""

    def __init__(self, seed: int, workdir: Path, root: Path):
        rng = _rng(seed, 4)
        gain_a = _fixture_loop("example_a", root, "gain")
        seeded = _seeded_gain_loop(rng, 30)
        cfg_a = sim.SimConfig(dt=0.005, horizon=20.0)
        cfg_s = sim.SimConfig(dt=0.01, horizon=20.0)
        draws = [int(x) for x in rng.integers(0, 2**31, 3)]
        deltas = [0.5, 0.9, 1.6, 2.2]
        self.sweeps = [
            SweepPlan(gain_a, [0.13, 0.2, 0.26, 0.4, 0.52], cfg_a, 2, draws[0],
                      str(workdir / "sweep_a_gain.csv")),
            SweepPlan(seeded, deltas, cfg_s, 2, draws[1], str(workdir / "sweep_seeded.csv")),
        ]
        self.searches = [SearchPlan(gain_a, 1.0, 0.01, cfg_a, 2),
                         SearchPlan(seeded, 4.0, 0.01, cfg_s, 2)]
        # The seeded loop as a sector problem [0, k]: the CLI simulates its upper gain.
        path = workdir / "seeded_sector.json"
        path.write_text(json.dumps({
            "system": {"A": seeded.a.tolist(), "B": seeded.b.tolist(), "C": seeded.c.tolist()},
            "perturbation": {"D": seeded.d.tolist(), "E": seeded.e.tolist(), "norm": "two"},
            "sector": {"Sigma1": [[0.0]], "Sigma2": seeded.gain.tolist()},
            "sweep": {"deltas": deltas},
        }))
        self.cli_sweep = (seeded, str(path), deltas, 2, cfg_s.horizon)
        self.cli_csv = str(workdir / "cli_sweep_seeded.csv")
        self.cli_argv = ["sweep", "--problem", str(path), "--out", self.cli_csv, "--trials", "2",
                         "--dt", repr(cfg_s.dt), "--horizon", repr(cfg_s.horizon),
                         "--seed", str(draws[2])]

    def warmup(self) -> None:
        _cli(self.cli_argv)()

    def operations(self) -> list:
        return ([_sweep_op(p) for p in self.sweeps] + [_search_op(p) for p in self.searches]
                + [_cli_sweep_op(*self.cli_sweep, self.cli_argv, self.cli_csv)])


WORKLOADS = {
    "analytic": Analytic,
    "dense-scale": DenseScale,
    "simulate": Simulate,
    "simulate-linear": SimulateLinear,
}
