"""Command-line front end.

Subcommands: ``check`` (positivity/stability gates), ``radius`` (stability
radius formulas), ``nn-bound`` (network sector bound), ``sweep``
(simulation batches to CSV), ``refine`` (data-driven sector refinement).

Exit codes: 0 success / verdict true, 2 analysis negative, 1 input
error; an error exits with the ``exit_code`` of its class.  All numbers
in a report come from library operations; the CLI only formats them.
``main`` loads the input and emits the report; a handler
``cmd_x(args, problem, report)`` computes, renders and returns the exit code.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import ffnn, radius as rad, sim
from .errors import (
    CertificationError,
    InputError,
    LureStabError,
    NoInstabilityError,
    NonzeroBiasError,
    ProblemFormatError,
    UnstableAtZeroError,
)
from .problems import Problem, _read_ffnn, load_problem

EXIT_OK = 0
EXIT_NEGATIVE = 2


def _mat(m: np.ndarray) -> list:
    return np.atleast_2d(np.asarray(m, dtype=float)).tolist()


def _vec(v) -> list | None:
    return None if v is None else np.asarray(v, dtype=float).ravel().tolist()


class Report:
    """Accumulates one command's results and renders them deterministically."""

    def __init__(self, command: str, path, digest: str | None = None):
        """``digest`` is the sha256 of the input's bytes: a problem's, with its
        network file's, or a network file's read alone."""
        self.data = {"command": command, "problem": str(path), "results": {}, "warnings": []}
        if digest is not None:
            self.data["inputs_digest"] = digest

    def set(self, key: str, value) -> None:
        self.data["results"][key] = value

    def warn(self, message: str) -> None:
        self.data["warnings"].append(message)

    def emit(self, fmt: str) -> None:
        if fmt == "json":
            print(json.dumps(self.data, sort_keys=True, indent=2))
            return
        print(f"command: {self.data['command']}")
        print(f"problem: {self.data['problem']}")
        if "inputs_digest" in self.data:
            print(f"sha256: {self.data['inputs_digest']}")
        for key, value in self.data["results"].items():
            print(f"{key}: {_human(value)}")
        for warning in self.data["warnings"]:
            print(f"warning: {warning}")


def _human(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}={_human(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return json.dumps(value)
    return str(value)


def _check_step(report: Report, problem: Problem, deltas, dt: float) -> str:
    """Warn, before simulating, where ``dt`` exceeds RK4's positivity bound on
    the loops simulated at ``deltas`` (``Problem.step_bound``); returns why a
    certified loop can read Unstable below its radius."""
    bound, edges = problem.step_bound(deltas)
    if dt <= bound:
        return "the simulated feedback leaves its sector"
    cause = f"dt={dt!r} exceeds {bound:.4g}, the largest step at which RK4 keeps the loops positive"
    report.warn(f"{cause} (1 / max_i(-M_ii) over {edges} and the simulated deltas); "
                "a verdict may then read the step, not the loop")
    return cause


def _certificate_results(report: Report, cert: rad.AizermanCertificate) -> None:
    for name, ok in cert.gates().items():
        report.set(f"gate_{name}", ok)
    report.set("metzler_at_upper", cert.metzler_at_upper)
    report.set("verdict", bool(cert.verdict))
    report.set("positive_vector", _vec(cert.positive_vector))


def cmd_check(args, problem: Problem, report: Report) -> int:
    sector = problem.analysis_sector
    if sector is None:
        raise ProblemFormatError("check needs a sector, network, or builtin nonlinearity",
                                 path=problem.path)
    cert = rad.certify_positive_lure(problem.system, sector, problem.pert)
    _certificate_results(report, cert)
    if not cert.verdict:
        report.warn(
            "closed loop failed gate(s): " + ", ".join(cert.failed_gates())
            + "; sector-wide exponential stability is NOT certified"
        )
    return EXIT_OK if cert.verdict else EXIT_NEGATIVE


def cmd_radius(args, problem: Problem, report: Report) -> int:
    try:
        result = problem.radius(override_gates=args.override_gates)
    except CertificationError as exc:
        _certificate_results(report, exc.certificate)
        report.warn(str(exc))
        if not args.override_gates and exc.certificate.transfer is not None:
            report.warn("pass --override-gates to compute the formula anyway")
        return EXIT_NEGATIVE
    if result.certificate is not None and not result.certificate.verdict:
        report.warn(
            "GATES FAILED (closed loop failed gate(s): "
            + ", ".join(result.certificate.failed_gates())
            + "); the radius below is a formula evaluation outside the certified regime"
        )

    report.set("radius", float(result.radius))
    report.set("formula", result.formula)
    report.set("norm", result.norm.value)
    report.set("closed_loop", _mat(result.closed_loop))
    if result.certificate is not None:
        _certificate_results(report, result.certificate)
    else:  # the linear formulas raise unless A is Metzler and Hurwitz
        report.set("gate_metzler", True)
        report.set("gate_hurwitz", True)
    if result.sector is not None:
        report.set("sector_upper", _mat(result.sector.upper))
    return EXIT_OK


def cmd_nn_bound(args, source: ffnn.Ffnn | Problem, report: Report) -> int:
    net = source.network if isinstance(source, Problem) else source
    if net is None:
        raise ProblemFormatError("nn-bound needs a problem with a network", path=source.path)
    try:
        bound = ffnn.sector_bound_ffnn(net)
    except NonzeroBiasError as exc:
        report.warn(str(exc))
        return EXIT_NEGATIVE

    report.set("hidden_layers", net.q)
    report.set("activation", net.activation.name)
    report.set("activation_sector", [net.activation.a1, net.activation.a2])
    report.set("activation_gain_c", float(net.activation.slope_gain))
    layers = ["output"] + [f"hidden_{i}" for i in range(net.q, 0, -1)]
    report.set("product_trace", [
        {"layer": layer, "abs_weight_product": _mat(product)}
        for layer, product in zip(layers, ffnn.weight_products(net))
    ])
    report.set("gamma1", _mat(bound.lower))
    report.set("gamma2", _mat(bound.upper))
    return EXIT_OK


def cmd_sweep(args, problem: Problem, report: Report) -> int:
    phi = problem.loop_nonlinearity()
    if phi is None:
        raise ProblemFormatError("sweep needs a sector, network, or builtin nonlinearity",
                                 path=problem.path)
    cfg = problem.sim_config(dt=args.dt, horizon=args.horizon)
    formula_radius, certified = None, False
    try:
        result = problem.radius(override_gates=True)
    except InputError:
        raise
    except LureStabError as exc:
        report.warn(f"no analytic radius available ({exc})")
    else:
        formula_radius, certified = result.radius, result.certificate.verdict
        if not certified:
            report.warn(
                "the formula radius was computed with failed gates: "
                + ", ".join(result.certificate.failed_gates())
            )
    deltas = problem.sweep_deltas
    if deltas is None:
        if formula_radius is None:
            raise ProblemFormatError("the problem lists no sweep deltas and no radius is computable",
                                     path=problem.path)
        deltas = [round(f * formula_radius, 12) for f in (0.5, 0.8, 1.0, 1.2, 1.5)]
        report.warn("sweep deltas derived from the analytic radius")
    cause = _check_step(report, problem, deltas, cfg.dt)

    rows = sim.sweep(
        problem.system, phi, problem.pert, deltas,
        cfg=cfg, trials=args.trials, seed=args.seed,
    )
    out_path = args.out or (problem.path.stem + "_sweep.csv")
    try:
        sim.write_sweep_csv(rows, out_path)
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc}") from None

    summary = []
    for i, delta in enumerate(deltas):  # rows come in delta order, `trials` per delta
        verdicts = [r.verdict for r in rows[i * args.trials:(i + 1) * args.trials]]
        summary.append(
            {
                "delta": float(delta),
                "stable": verdicts.count("Stable"),
                "unstable": verdicts.count("Unstable"),
                "inconclusive": verdicts.count("Inconclusive"),
            }
        )
    report.set("deltas", [float(d) for d in deltas])
    report.set("trials", args.trials)
    report.set("seed", args.seed)
    report.set("per_delta", summary)
    report.set("csv", str(out_path))
    if formula_radius is not None:
        report.set("formula_radius", float(formula_radius))
        beyond = [s for s in summary if s["delta"] > formula_radius]
        if args.trials > 0 and beyond and all(s["unstable"] == 0 for s in beyond):
            report.warn(
                "analytic radius conservative: no instability observed at any "
                "tested delta beyond the formula radius"
            )
        below = sum(s["unstable"] for s in summary if s["delta"] < formula_radius)
        if certified and below:
            report.warn(f"{below} trial(s) Unstable at deltas below the certified radius: {cause}")
    return EXIT_OK


def cmd_refine(args, problem: Problem, report: Report) -> int:
    if problem.network is None:
        raise ProblemFormatError("refine needs a problem with a network", path=problem.path)
    if problem.pert.k1 != 1 or problem.pert.k2 != 1:
        raise ProblemFormatError("refine needs a scalar perturbation structure", path=problem.path)
    phi = problem.loop_nonlinearity()
    bound = problem.analysis_sector
    report.set("gamma2", _mat(bound.upper))

    delta_crit = args.delta_crit
    if delta_crit is None:
        base = problem.radius()
        report.set("formula_radius", float(base.radius))
        cfg = problem.sim_config(dt=args.dt, horizon=args.horizon)
        delta_max = max(10.0 * base.radius, 1.0)
        cause = _check_step(report, problem, [0.0, delta_max], cfg.dt)
        try:
            found = sim.find_critical_delta(
                problem.system, phi, problem.pert,
                delta_max=delta_max, tol=0.01, cfg=cfg, trials=args.trials, seed=args.seed,
            )
        except NoInstabilityError as exc:
            report.warn(str(exc))
            return EXIT_NEGATIVE
        except UnstableAtZeroError as exc:
            # the radius above certified the loop, so delta 0 lies below it
            raise UnstableAtZeroError(f"{exc}, although the loop is certified: {cause}") from None
        delta_crit = found.bracket[0]  # no trial was unstable here
        report.set("delta_crit_bracket", [found.bracket[0], found.bracket[1]])
    report.set("delta_crit", float(delta_crit))

    magnitude = rad.refine_upper_sector(problem.system, problem.pert, float(delta_crit))
    report.set("magnitude", magnitude)
    report.set("candidates", [magnitude, -magnitude])
    net = problem.network
    chosen, check = ffnn.select_refined_sign(net, magnitude, bound.lower, seed=args.seed)
    report.set("refined_upper", _mat(chosen.upper))
    report.set("refined_lower", _mat(chosen.lower))
    report.set("empirical_samples", check.samples)
    report.set("empirical_violations", check.count)
    report.set("empirical_max_ratio", float(check.max_ratio))
    if check.count > 0:
        report.warn(
            f"network output leaves the refined sector on {check.count} of "
            f"{check.samples} sampled inputs; the refined bound is empirically too tight"
        )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, on the first call.

    Every ``main`` call shares it, so it must not be mutated; each
    ``parse_args`` fills a fresh namespace, so no flag carries over."""
    parser = argparse.ArgumentParser(
        prog="lurestab",
        description="Stability radii and sector certification for positive feedback loops",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, problem_required=True):
        p.add_argument("--problem", required=problem_required, help="problem JSON file")
        p.add_argument("--norm", choices=["one", "two", "inf"], default=None,
                       help="override the perturbation norm")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p_check = sub.add_parser("check", help="evaluate positivity/stability gates")
    common(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_radius = sub.add_parser("radius", help="compute the stability radius")
    common(p_radius)
    p_radius.add_argument("--override-gates", action="store_true",
                          help="evaluate the formula past failed gates, where the upper "
                               "loop has a Metzler solve")
    p_radius.set_defaults(handler=cmd_radius)

    p_nn = sub.add_parser("nn-bound", help="sector bound of a network")
    p_nn.add_argument("--network", help="network JSON file")
    p_nn.add_argument("--problem", help="problem file whose network to use")
    p_nn.add_argument("--format", choices=["text", "json"], default="text")
    p_nn.set_defaults(handler=cmd_nn_bound)

    p_sweep = sub.add_parser("sweep", help="simulate trajectory batches over deltas")
    common(p_sweep)
    p_sweep.add_argument("--out", help="sweep CSV path")
    p_sweep.add_argument("--seed", type=int, default=sim.DEFAULT_SEED)
    p_sweep.add_argument("--trials", type=int, default=sim.DEFAULT_TRIALS)
    p_sweep.add_argument("--dt", type=float, default=None)
    p_sweep.add_argument("--horizon", type=float, default=None)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_refine = sub.add_parser("refine", help="refine the upper sector bound")
    common(p_refine)
    p_refine.add_argument("--delta-crit", type=float, default=None,
                          help="observed critical perturbation (searched if omitted)")
    p_refine.add_argument("--seed", type=int, default=sim.DEFAULT_SEED)
    p_refine.add_argument("--trials", type=int, default=sim.DEFAULT_TRIALS)
    p_refine.add_argument("--dt", type=float, default=None)
    p_refine.add_argument("--horizon", type=float, default=None)
    p_refine.set_defaults(handler=cmd_refine)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "network", None):  # nn-bound reads a network file before a problem
            source, raw = _read_ffnn(args.network)
            report = Report(args.subcommand, args.network, hashlib.sha256(raw).hexdigest())
        elif args.problem is not None:
            source = load_problem(args.problem, norm_override=getattr(args, "norm", None))
            report = Report(args.subcommand, source.path, source.digest)
        else:
            raise InputError("nn-bound needs --network or --problem")
        code = args.handler(args, source, report)
    except LureStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    report.emit(args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
