"""Pinned CLI output of the fixture commands.

Each case runs one command in-process with ``--format json`` and compares
its exit code, stdout, stderr and written sweep CSV, byte for byte, with
``tests/golden/<case>.txt``.  Paths are normalised: the bundled fixture
directory reads ``<fixtures>`` and the CSV directory ``<out>``.  After an
intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from lurestab.cli import main
from lurestab.problems import fixture_path

GOLDEN = Path(__file__).parent / "golden"
SWEEP = ("--trials", "2", "--dt", "0.02", "--out", "{out}/sweep.csv")

CASES = {
    "check_a": ("check", "--problem", "example_a.json"),
    "check_b": ("check", "--problem", "example_b.json"),
    "radius_a": ("radius", "--problem", "example_a.json"),
    "radius_a_override": ("radius", "--problem", "example_a.json", "--override-gates"),
    "radius_b": ("radius", "--problem", "example_b.json"),
    "nn_bound_b": ("nn-bound", "--problem", "example_b.json"),
    "nn_bound_gain_network": ("nn-bound", "--network", "{fixtures}/gain_network.json"),
    "refine_b_delta_crit": ("refine", "--problem", "example_b.json", "--delta-crit", "3.15"),
    "sweep_a": ("sweep", "--problem", "example_a.json", *SWEEP),
    "sweep_b": ("sweep", "--problem", "example_b.json", *SWEEP),
    "refine_b_search": (
        "refine", "--problem", "example_b.json", "--trials", "1", "--horizon", "10", "--dt", "0.02",
    ),
}


def transcript(argv, out_dir: Path) -> str:
    """Exit code, stdout, stderr and the sweep CSV of one command, paths normalised."""
    fixtures = str(fixture_path("example_a.json").parent)
    argv = [arg.format(fixtures=fixtures, out=out_dir) for arg in argv] + ["--format", "json"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    parts = [f"exit: {code}", "--- stdout", stdout.getvalue(), "--- stderr", stderr.getvalue()]
    csv = out_dir / "sweep.csv"
    if csv.exists():
        parts += ["--- csv", csv.read_bytes().decode()]
    return "\n".join(parts).replace(fixtures, "<fixtures>").replace(str(out_dir), "<out>")


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    expected = (GOLDEN / f"{case}.txt").read_bytes().decode()
    assert transcript(CASES[case], tmp_path) == expected


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as out:
            text = transcript(argv, Path(out))
        (GOLDEN / f"{case}.txt").write_bytes(text.encode())
        print(f"wrote {GOLDEN / case}.txt", file=sys.stderr)


if __name__ == "__main__":
    record()
