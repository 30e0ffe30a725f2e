"""Mutation check: apply each listed mutant to an exported copy of the
sources and run the tests that should catch it.

    python tools/mutants.py [--only NAME ...]

The committed tree (HEAD) is exported with `git archive` into a
temporary directory.  Each mutant is one text substitution in one file,
which must match exactly once; it is applied, the mutant's test files run
under `pytest -x`, and the file is restored.  One line per mutant says
whether it was caught, with the first failing test, or survived.  Mutants
known to be equivalent (no input tells them apart from the real code) are
not run unless named with --only; their reason is printed instead.  The exit status is 1 if any other mutant
survives, and 2 if a substitution no longer matches the sources.

Each rule that a change adds or relies on gets its mutant here.  Running
every mutant takes some minutes on one core.  `tests/test_mutants.py` checks
that every substitution still matches the working tree exactly once.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
ENGINE = "src/vodsim/engine.py"
STRATEGY = "src/vodsim/strategy.py"
BEHAVIOR = "src/vodsim/behavior.py"
CLI = "src/vodsim/cli.py"
ANALYSIS = "src/vodsim/analysis.py"
ENGINE_TESTS = ("tests/test_engine.py", "tests/test_golden.py")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""  # why no input can tell it apart, if it is equivalent


MUTANTS = [
    # Unlimited capacity: target draws, run counts and the departure order.
    Mutant("bucket step counts u < cdf only", BEHAVIOR,
           "t += self.cdf[t] <= u", "t += self.cdf[t] < u",
           ("tests/test_behavior.py",)),
    Mutant("wide buckets not searched", BEHAVIOR,
           "        if wide.size:\n", "        if False:\n",
           ("tests/test_behavior.py",)),
    Mutant("class block mask takes one class more", ENGINE,
           "mine = (cls >= lo) & (cls < lo + B)", "mine = (cls >= lo) & (cls <= lo + B)",
           ENGINE_TESTS),
    Mutant("a session leaves its class's run one offset early", ENGINE,
           "np.minimum(offset + 1, one.slot)[k]", "np.minimum(offset, one.slot)[k]",
           ENGINE_TESTS),
    Mutant("16-bit departure keys at every slot count", ENGINE,
           "departure.astype(np.min_scalar_type(T))", "departure.astype(np.uint16)",
           ENGINE_TESTS),
    Mutant("unstable departure sort", ENGINE,
           'np.argsort(departure.astype(np.min_scalar_type(T)), kind="stable")',
           "np.argsort(departure.astype(np.min_scalar_type(T)))",
           ENGINE_TESTS),
    Mutant("read-off ignores the trajectory's own departure", ENGINE,
           "path.shape[1] - self._held)", "path.shape[1])",
           ENGINE_TESTS),
    # Batched settlement and skipped slot transitions.
    Mutant("startup transition skipped with one session in startup", ENGINE,
           "            if n_startup:\n", "            if n_startup > 1:\n",
           ENGINE_TESTS),
    Mutant("consume mask skipped with one session not playing", ENGINE,
           "                if n_playing < n:\n", "                if n_playing < n - 1:\n",
           ENGINE_TESTS),
    Mutant("settled marker one slot early", ENGINE,
           "self._settled = self.slot\n", "self._settled = self.slot - 1\n",
           ENGINE_TESTS),
    Mutant("waste sorted before the per-slot sums", ENGINE,
           'rows["bw_wasted"] = _group_sums(block[-1],',
           'rows["bw_wasted"] = _group_sums(np.sort(block[-1]),',
           ENGINE_TESTS),
    # The departed block, which is also the session log.
    Mutant("departed block grows to twice its size however many leave", ENGINE,
           "max(m, 2 * self._departed.shape[1])", "2 * self._departed.shape[1]",
           ENGINE_TESTS),
    Mutant("priced marker reset to the block's start", ENGINE,
           "self._priced = self._held\n", "self._priced = 0\n",
           ENGINE_TESTS),
    Mutant("repeated config key accepted", CLI,
           "            if key in out:\n", "            if False:\n",
           ("tests/test_cli.py",)),
    Mutant("config key a flag overrides still reported", CLI,
           "            entries.pop(key, None)\n", "            pass\n",
           ("tests/test_cli.py",)),
    # Cross-field config errors.
    Mutant("cross-field error blames the earlier line", CLI,
           "line = max(entries[key][1] for key in named)",
           "line = min(entries[key][1] for key in named)",
           ("tests/test_cli.py",)),
    Mutant("config error blames only the first field named", CLI,
           'str(exc).split(", got", 1)[0].split() if',
           'str(exc).split(", got", 1)[0].split()[:1] if',
           ("tests/test_cli.py",)),
    Mutant("config error reads field names in the rejected value", CLI,
           'str(exc).split(", got", 1)[0].split() if', "str(exc).split() if",
           ("tests/test_cli.py",),
           equivalent="a value that reaches validation is a number or, for "
                      "playback_model, is not echoed, so no field name follows ', got'"),
    Mutant("capacity conflict checks only the config file", CLI,
           'capacity = values.get("server_capacity", math.inf)',
           'capacity = entries.get("server_capacity", (math.inf,))[0]',
           ("tests/test_cli.py",)),
    # Path flags, and a histogram file's rows.
    Mutant("empty path flag taken as given", CLI,
           '    if text == "":\n', "    if False:\n",
           ("tests/test_cli.py",)),
    Mutant("histogram rows not range-checked", BEHAVIOR,
           "            if not -_EPS <= prob <= 1.0 + _EPS:", "            if False:",
           ("tests/test_behavior.py",)),
    # The claim drivers' failure tests, shared by `vodsim verify` and the gate.
    Mutant("equal-buffer spread taken the wrong way round", ANALYSIS,
           "buffers.max() - buffers.min() > GRID + 1e-9",
           "buffers.min() - buffers.max() > GRID + 1e-9",
           ("tests/test_analysis.py",)),
    Mutant("misshapen skip function not counted", ANALYSIS,
           "if not g.check_shape(_SHAPE_GRID) or ", "if ",
           ("tests/test_analysis.py",)),
    Mutant("waste-rate spread taken the wrong way round", ANALYSIS,
           "rates.max() - rates.min() > GRID", "rates.min() - rates.max() > GRID",
           ("tests/test_analysis.py",)),
    Mutant("indeterminate Lagrange verdict counted in place of a false one", ANALYSIS,
           "        if verdict is False:\n", "        if verdict is None:\n",
           ("tests/test_analysis.py",)),
    # Input ranges written so that NaN fails them.
    Mutant("NaN passes the unit range check", BEHAVIOR,
           "if not np.all((x >= -_EPS) & (x <= 1.0 + _EPS)):",
           "if np.any((x < -_EPS) | (x > 1.0 + _EPS)):",
           ("tests/test_behavior.py",)),
    # The fair fill's sweep up to the first copy of the largest cap.
    Mutant("sweep stops at the last copy of the largest cap", STRATEGY,
           'm = int(pts.searchsorted(pts[-1], "left")) + 1',
           'm = int(pts.searchsorted(pts[-1], "right")) + 1',
           ("tests/test_strategy.py",)),
    Mutant("sweep stops before the first copy of the largest cap", STRATEGY,
           'm = int(pts.searchsorted(pts[-1], "left")) + 1',
           'm = int(pts.searchsorted(pts[-1], "left"))',
           ("tests/test_strategy.py",)),
    Mutant("sweep before the first copy of the largest cap, never empty", STRATEGY,
           'm = int(pts.searchsorted(pts[-1], "left")) + 1',
           'm = max(int(pts.searchsorted(pts[-1], "left")), 1)',
           ("tests/test_strategy.py",)),
    Mutant("fit test past the sweep at k > m", STRATEGY,
           "    if k >= m:\n", "    if k > m:\n",
           ("tests/test_strategy.py",)),
    Mutant("bb serves one other session as if none", STRATEGY,
           "if d_browse.size == rates.size:", "if d_browse.size >= rates.size - 1:",
           ("tests/test_strategy.py",)),
]


def _export(rev: str, into: Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def _run(tree: Path, mutant: Mutant) -> tuple[bool, str]:
    """Run the mutant's tests in `tree`; returns (caught, first failure)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         *mutant.tests],
        cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    return proc.returncode != 0, _first_failure(proc.stdout + proc.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run the mutants with these names")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    if args.only and len(mutants) != len(set(args.only)):
        parser.error(f"unknown mutant among {args.only}")
    with tempfile.TemporaryDirectory(prefix="vodsim-mutants-") as tmp:
        tree = Path(tmp)
        _export("HEAD", tree)
        stale = [m.name for m in mutants if (tree / m.path).read_text().count(m.old) != 1]
        if stale:
            for name in stale:
                print(f"error: mutant {name!r} does not match its file exactly once",
                      file=sys.stderr)
            return 2
        survivors = 0
        for m in mutants:
            if m.equivalent and not args.only:
                print(f"equivalent          {m.name}: {m.equivalent}", flush=True)
                continue
            path = tree / m.path
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                caught, first = _run(tree, m)
            finally:
                path.write_text(original)
            took = f"{time.perf_counter() - start:5.1f}s"
            if caught:
                print(f"caught     {took}  {m.name}: {first}", flush=True)
            elif m.equivalent:
                print(f"equivalent {took}  {m.name}: {m.equivalent}", flush=True)
            else:
                survivors += 1
                print(f"SURVIVED   {took}  {m.name}", flush=True)
    print(f"{len(mutants)} mutants, {survivors} unexpected survivors")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
