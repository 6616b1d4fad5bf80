"""The four benchmark workloads: seeded inputs, the op, and its oracle.

Each workload is a closed loop with one client: an op starts only after the
previous one returned.  A workload turns a seeded ``random.Random`` into an
endless stream of cases.  A case carries the op's arguments and the values
the oracle expects, all worked out here without calling the library, so
that the library sees nothing but the generated arguments.

The op calls the library through module attributes (``lensfib.parse``,
``cli.run``), never through names bound at import time, so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

import lensfib
from lensfib import cli


# --- independent arithmetic used by the generators and oracles --------------


def lens_equal_oriented(p1: int, q1: int, p2: int, q2: int) -> bool:
    """L(p1,q1) and L(p2,q2) are oriented-diffeomorphic: same p and
    q1 = q2 or q1*q2 = 1 (mod p)."""
    if p1 != p2:
        return False
    if p1 == 0:
        return True
    return (q1 - q2) % p1 == 0 or (q1 * q2 - 1) % p1 == 0


def expected_census(p: int, q: int, m1: int, m2: int) -> tuple[int, int]:
    """(class count, reversing-pair count) from the residue of q*q mod p."""
    plus = (q * q - 1) % p == 0
    minus = (q * q + 1) % p == 0
    if m1 == m2:
        return 2, int(minus)
    if plus and minus:
        return 2, 1
    if plus:
        return 2, 0
    if minus:
        return 4, 2
    return 4, 0


def _coprime_residue(rng: random.Random, p: int) -> int:
    if p == 1:
        return 0
    while True:
        q = rng.randrange(1, p)
        if math.gcd(p, q) == 1:
            return q


def _coprime_pair(rng: random.Random, lo: int, hi: int, signed: bool) -> tuple[int, int]:
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        if math.gcd(a, b) == 1:
            break
    if signed:
        a *= rng.choice((1, -1))
        b *= rng.choice((1, -1))
    return a, b


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _form_text(cf) -> str:
    pairs = ",".join(f"({a},{b})" for a, b in cf.pairs)
    return f"{cf.genus};{cf.b};{pairs}"


def _fib_text(f) -> str:
    pairs = ",".join(f"({a},{b})" for a, b in f.pairs)
    return f"M({f.genus};{pairs})"


# --- the workload record ---------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    # What a fresh interpreter imports before its first op.
    setup_module: str
    cases: Callable[[random.Random], Iterator[Any]]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    # Text fed to the result digest; built from public fields only.
    digest_text: Callable[[Any], str]
    # The equivalent ``lensfib --json`` argv, for cold CLI calls.
    cli_argv: Callable[[Any], list[str]]
    # Every run makes at least ``min_ops`` ops, and peak memory is read
    # after the first ``min_ops``.  The run is cut into windows of
    # ``window`` consecutive ops; each end-to-end figure is the median over
    # windows.  The tail is the latency with ten samples beyond it in a
    # window, so its percentile is fixed per workload and comparable
    # between commits: p90 for windows of 100 ops, p79.2 for 48.
    min_ops: int
    window: int
    # The first ``corpus`` cases are digested, and are the traced corpus.
    corpus: int
    warmup: int


# --- roundtrip -------------------------------------------------------------


class RoundTripCase(NamedTuple):
    p: int
    q: int
    a10: int
    a20: int


def roundtrip_cases(rng: random.Random) -> Iterator[RoundTripCase]:
    top = math.log(1e5 + 1)
    while True:
        p = int(math.exp(rng.uniform(0.0, top)))
        q = _coprime_residue(rng, p)
        a10, a20 = _coprime_pair(rng, 1, 50, signed=True)
        yield RoundTripCase(p, q, a10, a20)


def roundtrip_op(c: RoundTripCase):
    fib = lensfib.construct_fibration(lensfib.LensSpace(c.p, c.q), c.a10, c.a20).fibration
    text = lensfib.unparse(fib)
    back = lensfib.parse(text)
    cf = lensfib.normalize(back)
    lens = lensfib.recognize(back)
    h1 = lensfib.first_homology(back)
    return fib, text, back, cf, lens, h1


def roundtrip_check(c: RoundTripCase, out) -> bool:
    fib, text, back, _, lens, h1 = out
    return (
        back == fib
        and text == _fib_text(fib)
        and lens_equal_oriented(lens.p, lens.q, c.p, c.q)
        and h1 == (() if c.p == 1 else (c.p,))
    )


def roundtrip_digest(out) -> str:
    _, text, _, cf, lens, h1 = out
    return f"{text}|{_form_text(cf)}|{lens.p},{lens.q}|{h1}"


ROUNDTRIP = Workload(
    name="roundtrip",
    setup_module="lensfib",
    cases=roundtrip_cases,
    op=roundtrip_op,
    check=roundtrip_check,
    digest_text=roundtrip_digest,
    cli_argv=lambda c: ["--json", "construct", f"--lens={c.p},{c.q}",
                        f"--weights={c.a10},{c.a20}"],
    min_ops=20_000,
    window=100,
    corpus=500,
    warmup=300,
)


# --- classify_census -------------------------------------------------------


class CensusCase(NamedTuple):
    p: int
    q: int
    m1: int
    m2: int
    classes: int
    reversing: int


def census_cases(rng: random.Random) -> Iterator[CensusCase]:
    while True:
        p = rng.randint(1, 60)
        q = _coprime_residue(rng, p)
        m1, m2 = _coprime_pair(rng, 1, 20, signed=False)
        yield CensusCase(p, q, m1, m2, *expected_census(p, q, m1, m2))


def census_op(c: CensusCase):
    return lensfib.classify_pair(lensfib.LensSpace(c.p, c.q), c.m1, c.m2)


def census_check(c: CensusCase, report) -> bool:
    forms = [e.canonical for e in report.classes]
    return (
        len(forms) == c.classes
        and len(set(forms)) == c.classes
        and len(report.reversing_pairs) == c.reversing
        and report.prediction.class_count == c.classes
        and report.prediction.reversing_pair_count == c.reversing
    )


def census_digest(report) -> str:
    classes = ";".join(
        f"{_form_text(e.canonical)}/{e.weights}/{_fib_text(e.representative)}"
        f"/{e.orbifold.genus}:{e.orbifold.cone_orders}"
        for e in report.classes
    )
    return f"{report.prediction.tag.value}|{classes}|{report.reversing_pairs}"


CLASSIFY_CENSUS = Workload(
    name="classify_census",
    setup_module="lensfib",
    cases=census_cases,
    op=census_op,
    check=census_check,
    digest_text=census_digest,
    cli_argv=lambda c: ["--json", "classify", f"--lens={c.p},{c.q}",
                        f"--pair={c.m1},{c.m2}"],
    min_ops=20_000,
    window=100,
    corpus=500,
    warmup=300,
)


# --- enumerate -------------------------------------------------------------


class EnumerateCase(NamedTuple):
    p: int
    q: int
    max_mult: int


# Lenses whose enumeration returns thousands of classes: the 3-sphere, the
# p = 0 branch, and the two lenses with a projective-plane fibration.
HEAVY_LENSES = ((1, 0), (0, 1), (4, 1), (4, 3))
# N comes from eight strata of 40..120, taken in neighbouring pairs.  In
# each block of eight ops every heavy lens and one large-prime lens share a
# pair, so every block has the same mix of sizes on both kinds of lens; the
# heavy lenses rotate over the pairs from block to block.
STRATUM_PAIRS = ((40, 50), (60, 70), (80, 90), (100, 110))


def enumerate_cases(rng: random.Random) -> Iterator[EnumerateCase]:
    rotation = rng.randrange(len(HEAVY_LENSES))
    while True:
        rotation = (rotation + 1) % len(HEAVY_LENSES)
        heavy = HEAVY_LENSES[rotation:] + HEAVY_LENSES[:rotation]
        block = []
        for (lo, hi), lens in zip(STRATUM_PAIRS, heavy):
            while not _is_prime(p := rng.randint(50, 2000)):
                pass
            if rng.random() < 0.5:
                lo, hi = hi, lo
            block.append(EnumerateCase(*lens, rng.randint(lo, lo + 9)))
            block.append(EnumerateCase(p, rng.randrange(1, p), rng.randint(hi, hi + 9)))
        rng.shuffle(block)
        yield from block


def enumerate_op(c: EnumerateCase):
    return lensfib.enumerate_fibrations(lensfib.LensSpace(c.p, c.q), c.max_mult)


def enumerate_check(c: EnumerateCase, forms) -> bool:
    if any(a >= b for a, b in zip(forms, forms[1:])):
        return False
    for cf in forms:
        if any(alpha > c.max_mult for alpha, _ in cf.pairs):
            return False
        lens = lensfib.recognize(cf.expand())
        if not lens_equal_oriented(lens.p, lens.q, c.p, c.q):
            return False
    return True


def enumerate_digest(forms) -> str:
    return "|".join(_form_text(cf) for cf in forms)


ENUMERATE = Workload(
    name="enumerate",
    setup_module="lensfib",
    cases=enumerate_cases,
    op=enumerate_op,
    check=enumerate_check,
    digest_text=enumerate_digest,
    cli_argv=lambda c: ["--json", "enumerate", f"--lens={c.p},{c.q}",
                        f"--max-mult={c.max_mult}"],
    min_ops=200,
    window=48,
    corpus=4,
    warmup=1,
)


# --- cli -------------------------------------------------------------------


class CliCase(NamedTuple):
    argv: tuple[str, ...]
    exit_code: int
    # For a good ``recognize``: the |p| the oracle expects back; else None.
    recognized_p: int | None


def _random_pair(rng: random.Random) -> tuple[int, int]:
    alpha = rng.randint(1, 30) * rng.choice((1, -1))
    while True:
        beta = rng.randint(-60, 60)
        if math.gcd(alpha, beta) == 1:
            return alpha, beta


def _list_text(genus: int, pairs, spaced: bool = False) -> str:
    body = ",".join(f"({a},{b})" for a, b in pairs)
    text = f"M({genus};{body})"
    if spaced:
        text = text.replace(";", " ; ").replace(",(", ", (")
    return text


def _random_list(rng: random.Random) -> str:
    genus = rng.randint(-2, 2)
    pairs = [_random_pair(rng) for _ in range(rng.randint(0, 3))]
    return _list_text(genus, pairs, spaced=rng.random() < 0.2)


def _lens_arg(rng: random.Random, top: int) -> str:
    p = rng.randint(1, top)
    return f"{p},{_coprime_residue(rng, p)}"


def _weights_arg(rng: random.Random) -> str:
    a, b = _coprime_pair(rng, 1, 20, signed=True)
    return f"{a},{b}"


def _non_coprime_arg(rng: random.Random) -> str:
    k = rng.randint(2, 5)
    return f"{k * rng.randint(1, 6)},{k * rng.randint(1, 6)}"


def _unparsable(rng: random.Random) -> str:
    text = _list_text(0, [_random_pair(rng) for _ in range(2)])
    return rng.choice((text[:-1], text.replace(";", ":"), "M(x;(3,1))", text + ")"))


def _good_cli(rng: random.Random, command: str) -> tuple[list[str], int | None]:
    if command == "recognize":
        if rng.random() < 0.1:
            return [command, rng.choice(("M(-1;(1,1))", "M(-1;(1,-1))"))], 4
        (a1, b1), (a2, b2) = _random_pair(rng), _random_pair(rng)
        return [command, _list_text(0, [(a1, b1), (a2, b2)])], abs(a1 * b2 + b1 * a2)
    if command in ("normalize", "pi1", "homology", "parse-check"):
        return [command, _random_list(rng)], None
    if command == "iso":
        return [command, _random_list(rng), _random_list(rng)], None
    if command == "construct":
        return [command, f"--lens={_lens_arg(rng, 200)}", f"--weights={_weights_arg(rng)}"], None
    if command == "classify":
        m1, m2 = _coprime_pair(rng, 1, 20, signed=False)
        return [command, f"--lens={_lens_arg(rng, 60)}", f"--pair={m1},{m2}"], None
    if command == "enumerate":
        lens = "0,1" if rng.random() < 0.2 else _lens_arg(rng, 30)
        return [command, f"--lens={lens}", f"--max-mult={rng.randint(2, 12)}"], None
    # model, isotropy
    return [command, f"--lens={_lens_arg(rng, 60)}", f"--weights={_weights_arg(rng)}"], None


def _bad_cli(rng: random.Random, command: str) -> list[str]:
    """Domain errors only: unparsable text, non-coprime pairs, non-lens
    fibrations.  Usage errors (exit 2) are left out."""
    if command == "recognize":
        if rng.random() < 0.5:
            return [command, _unparsable(rng)]
        pairs = [(a, b) for a, b in (_random_pair(rng) for _ in range(8)) if abs(a) > 1][:3]
        while len(pairs) < 3:
            pairs.append((3, 1))
        return [command, _list_text(0, pairs)]
    if command in ("normalize", "pi1", "parse-check"):
        return [command, _unparsable(rng)]
    if command == "homology":
        k = rng.randint(2, 5)
        return [command, f"M(0;({k * rng.randint(1, 5)},{k * rng.randint(1, 5)}))"]
    if command == "iso":
        return [command, _random_list(rng), _unparsable(rng)]
    if command == "construct":
        return [command, f"--lens={_lens_arg(rng, 200)}", f"--weights={_non_coprime_arg(rng)}"]
    if command == "classify":
        return [command, f"--lens={_lens_arg(rng, 60)}", f"--pair={_non_coprime_arg(rng)}"]
    if command == "enumerate":
        return [command, f"--lens={_non_coprime_arg(rng)}", "--max-mult=5"]
    return [command, f"--lens={_lens_arg(rng, 60)}", f"--weights={_non_coprime_arg(rng)}"]


CLI_COMMANDS = ("construct", "recognize", "normalize", "iso", "classify",
                "enumerate", "model", "isotropy", "pi1", "homology", "parse-check")
CLI_BAD_SHARE = 0.1


def cli_cases(rng: random.Random) -> Iterator[CliCase]:
    while True:
        command = rng.choice(CLI_COMMANDS)
        if rng.random() < CLI_BAD_SHARE:
            yield CliCase(("--json", *_bad_cli(rng, command)), 1, None)
        else:
            argv, recognized_p = _good_cli(rng, command)
            yield CliCase(("--json", *argv), 0, recognized_p)


def run_cli(argv) -> tuple[int, str]:
    """Exit code and captured stdout of an in-process ``lensfib`` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def cli_op(c: CliCase) -> tuple[int, str]:
    return run_cli(c.argv)


def cli_check(c: CliCase, out) -> bool:
    code, text = out
    if code != c.exit_code or text.count("\n") != 1:
        return False
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError:
        return False
    if envelope.get("command") != c.argv[1]:
        return False
    if envelope.get("status") != ("ok" if c.exit_code == 0 else "error"):
        return False
    if c.recognized_p is not None:
        return envelope["result"]["p"] == c.recognized_p
    return True


CLI = Workload(
    name="cli",
    setup_module="lensfib.cli",
    cases=cli_cases,
    op=cli_op,
    check=cli_check,
    digest_text=lambda out: f"{out[0]}|{out[1]}",
    cli_argv=lambda c: list(c.argv),
    min_ops=5_000,
    window=100,
    corpus=200,
    warmup=50,
)


WORKLOADS = {w.name: w for w in (ROUNDTRIP, CLASSIFY_CENSUS, ENUMERATE, CLI)}
