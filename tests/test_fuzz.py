"""A seeded fuzz of malformed problem and network files through ``cli.main``.

Each case copies one input: example_a, example_b, example_b's network file
or ``tests/problems/sector.json``.  It changes one value anywhere in that
file: it deletes the value's key, or puts one of ``VALUES`` in its place.
Then it runs one of ``COMMANDS`` on the problem, with warnings as errors.
Malformed input must exit 1 with a message that names its file, and never
with a traceback; any input may also exit 0 or 2.  Run a seed by hand with

    PYTHONPATH=src python tests/test_fuzz.py <seed> [<cases>]
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

from lurestab.cli import main
from lurestab.problems import fixture_path

SEED = 21
CASES = 3000
PROBLEMS = Path(__file__).parent / "problems"

# what a mutation puts in place of a value: null, strings, booleans, numbers
# at and past float's range, subnormals, and empty, ragged or wrongly sized matrices
VALUES = [
    None, "", "x", "-5", "relu", True, False, 0, -1, 1.5, 1e308, -1e308, 10**400, 5e-324,
    [], [[]], [1.0], [[1.0]], [[1.0, 2.0]], [[1.0, 2.0], [3.0]], [[1e308, 1e308]], {},
]
COMMANDS = [
    ["check"],
    ["radius"],
    ["radius", "--override-gates"],
    ["nn-bound"],
    ["refine", "--delta-crit", "3.15"],
    ["sweep", "--trials", "1", "--horizon", "1", "--dt", "0.1"],
    ["refine", "--trials", "1", "--horizon", "1", "--dt", "0.1"],
]
# (problem, network file or None, which of the two a case mutates)
TARGETS = [
    ("example_a.json", None, "problem"),
    ("example_b.json", "gain_network.json", "problem"),
    ("example_b.json", "gain_network.json", "network"),
    ("sector.json", None, "problem"),
]


def _places(doc, at=()):
    """Every place in ``doc`` that holds a value, as its path of keys and indices."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else []
    for key, value in items:
        yield (*at, key)
        yield from _places(value, (*at, key))


def _mutate(doc, rng):
    """``doc`` with one value deleted (where a key holds it) or replaced."""
    places = list(_places(doc))
    *parents, key = places[rng.integers(len(places))]
    holder = doc
    for step in parents:
        holder = holder[step]
    choice = rng.integers(len(VALUES) + 1)
    if choice == len(VALUES) and isinstance(holder, dict):
        del holder[key]
    else:
        holder[key] = VALUES[choice % len(VALUES)]
    return doc


def _source(name: str) -> Path:
    return PROBLEMS / name if name == "sector.json" else fixture_path(name)


def run_case(rng, work: Path) -> tuple[list[str], int, str, list[str]]:
    """One mutated input and one command; returns the command, its exit code,
    its standard error and the paths an exit-1 message may name."""
    problem_name, network_name, mutated = TARGETS[rng.integers(len(TARGETS))]
    problem, docs = work / problem_name, {}
    docs[problem] = json.loads(_source(problem_name).read_text())
    if network_name is not None:
        docs[work / network_name] = json.loads(_source(network_name).read_text())
    target = problem if mutated == "problem" else work / network_name
    _mutate(docs[target], rng)
    for path, doc in docs.items():
        path.write_text(json.dumps(doc))
    argv = COMMANDS[rng.integers(len(COMMANDS))]
    argv = [argv[0], "--problem", str(problem), *argv[1:]]
    if argv[0] == "sweep":
        argv += ["--out", str(work / "sweep.csv")]
    # the files a message may name: the problem, and the network file it names
    named = [str(problem)]
    if isinstance(docs[problem].get("network"), str):
        named.append(str(work / docs[problem]["network"]))
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    return argv, code, stderr.getvalue(), named


def fuzz(seed: int, cases: int, work: Path) -> list[str]:
    """The faults of ``cases`` seeded cases, one line each."""
    rng = np.random.default_rng(seed)
    faults = []
    for i in range(cases):
        case = work / str(i)
        case.mkdir()
        try:
            argv, code, err, named = run_case(rng, case)
        except Exception:  # an escape is the fault looked for
            faults.append(f"case {i}: escaped: {traceback.format_exc()}")
            continue
        finally:
            shutil.rmtree(case)
        if code not in (0, 1, 2):
            faults.append(f"case {i}: {argv} exited {code}")
        elif code == 1 and not any(err.startswith(f"error: {path}:") for path in named):
            faults.append(f"case {i}: {argv} names no file: {err!r}")
    return faults


def test_malformed_inputs_exit_cleanly_and_name_their_file(tmp_path):
    assert fuzz(SEED, CASES, tmp_path) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as out:
        found = fuzz(int(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else CASES, Path(out))
    print("\n".join(found) or "no faults")
    sys.exit(1 if found else 0)
