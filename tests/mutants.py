"""Mutation check of the oracles: each mutant must make its tests fail.

Run from the root of a checkout:

    python tests/mutants.py

Each mutant is one text replacement in a module of ``src/lensfib``.  The
runner first runs every named test file on a temporary copy of ``src/`` as
it is, then, for each mutant, applies the replacement to a fresh copy and
runs ``pytest -x -q`` on the mutant's test files against it.  A mutant whose
tests pass survives.  The runner exits 1 if the unmutated copy fails, if a
mutant's old text does not occur exactly once, or if any mutant survives.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module under src/lensfib, old text, new text, test files that must fail)
MUTANTS = [
    # Smith form's rerun modulo the determinant keeps gcd(v, d) of each entry.
    ("exact_arith.py", "gcd(v, d) for v in", "v % d or d for v in", ["tests/test_pi1.py"]),
    # The sweep drops every class with a large first multiplicity.
    ("classify.py", "            alpha1, sa10 = alpha * a10, s * a10\n",
     "            alpha1, sa10 = alpha * a10, s * a10\n"
     "            if alpha1 >= 997:\n                continue\n",
     ["tests/test_classify.py"]),
    # No exchange pruning when q*q = 1 (mod p): those classes come twice.
    ("classify.py", "top = a10 if exchange else bound", "top = bound",
     ["tests/test_classify.py"]),
    # a20 steps through every integer instead of its residue class modulo u.
    ("classify.py", "top + 1, u):", "top + 1):", ["tests/test_classify.py"]),
    # Only max_mult is checked up front, so a sweep past the guard runs on.
    ("classify.py", "check_magnitude(max_mult, p // 2 + max_mult)",
     "check_magnitude(max_mult)", ["tests/test_classify.py", "tests/test_cli.py"]),
    # On L(0,1), beta runs up to alpha - 1: each class comes twice, once unsorted.
    ("classify.py", "range(1, alpha // 2 + 1)", "range(1, alpha)", ["tests/test_classify.py"]),
    # The second pair of a two-pair class is built from the first pair's key entries.
    ("classify.py", "_new(SeifertPair, key[3:])", "_new(SeifertPair, key[1:3])",
     ["tests/test_enumerate_corpus.py"]),
    # Smith form returns its finished chain unchecked.
    ("exact_arith.py", "    check_magnitude(*diag)\n", "", ["tests/test_exact_arith.py"]),
    # The one coprimality check lets a common factor of 2 through.
    ("exact_arith.py", "if gcd(a, b) != 1:", "if gcd(a, b) > 2:", ["tests/test_exact_arith.py"]),
    # Smith form's closed-form 2x2 block takes |ad + bc| for its determinant.
    ("exact_arith.py", "abs(a * d - b * c)", "abs(a * d + b * c)",
     ["tests/test_exact_arith.py", "tests/test_pi1.py"]),
    # The unit pivot taken by hand clears column a_1 with q_1 once, not twice.
    ("pi1.py", "[-2 * a1]", "[-a1]", ["tests/test_pi1.py"]),
    # ... or adds column q_1 to the other q columns instead of taking it.
    ("pi1.py", "[-a1] * (n - 1)", "[a1] * (n - 1)", ["tests/test_pi1.py"]),
    # The parse regex lets a comma between pairs be left out.
    ("seifert.py", r"(?:,\s*", r"(?:,?\s*", ["tests/test_parse_golden.py"]),
    # recognize keeps q mod p, not the smaller of q and its inverse.
    ("recognize.py", "min(q % p, pow(q, -1, p))", "q % p", ["tests/test_recognize.py"]),
    # ... or compares its inverse with q unreduced, which may be negative or past p.
    ("recognize.py", "min(q % p,", "min(q,", ["tests/test_recognize.py"]),
    # SeifertFibration's __new__ builds the tuple but never validates it.
    ("seifert.py", "        validate(self)\n", "", ["tests/test_value_types.py"]),
    # normalize returns a b summed beyond the guard.
    ("seifert.py", "    check_magnitude(b)\n    return _new(CanonicalForm",
     "    return _new(CanonicalForm", ["tests/test_cli.py"]),
    # ... and reverse_canonical its b less the pair count, unchecked.
    ("seifert.py", "    check_magnitude(b)\n    return CanonicalForm(",
     "    return CanonicalForm(", ["tests/test_seifert.py"]),
    # LensSpace's __new__ takes any q coprime to p, not only 0 <= q < p.
    ("recognize.py", "        elif not 0 <= q < p:\n"
     "            raise InvalidRangeError(f\"q = {q} not normalized for p = {p}\")\n", "",
     ["tests/test_value_types.py"]),
]


def passes(src: Path, tests: list[str]) -> bool:
    """Whether ``pytest -x -q`` passes on ``tests`` with lensfib from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src)
        every_test = sorted({test for *_, tests in MUTANTS for test in tests})
        if not passes(src, every_test):
            print("the unmutated sources fail:", *every_test)
            return 1
        failed = 0
        for module, old, new, tests in MUTANTS:
            shutil.rmtree(src)
            shutil.copytree(ROOT / "src", src)
            path = src / "lensfib" / module
            text = path.read_text()
            if text.count(old) != 1:
                print(f"not found exactly once in {module}: {old!r}")
                failed += 1
                continue
            path.write_text(text.replace(old, new))
            survived = passes(src, tests)
            failed += survived
            print("survived" if survived else "killed  ", f"{module}: {old!r} -> {new!r}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
