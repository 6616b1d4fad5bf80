"""Command-line surface for the library.

Lens spaces are written ``p,q`` and invariant lists in the same notation the
library parses, e.g. ``M(0;(35,-2),(14,1))``.  Every fibration printed by a
subcommand reparses to an equal value.  ``--json`` switches to a structured
envelope ``{"command", "input", "result", ...}`` with deterministic key
order; the exit code is 0 exactly when the status is ok, 1 on domain errors,
2 on usage errors and 3 when the program itself fails (any other exception,
such as a ``MemoryError``; its message names the exception's class).  The
console script exits 141 (128 + SIGPIPE) when its reader closes stdout early.

Each subcommand is one entry of :data:`COMMANDS`, with its own argparse
parser; a call is parsed in one argparse pass.  Its arguments are read
into library values, which also give the envelope's ``input``; ``compute``
turns them into the payload of the envelope, and ``render`` turns that same
payload into the lines of text output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, Iterable, NamedTuple

from . import classify as classify_mod
from . import construct as construct_mod
from . import pi1 as pi1_mod
from .errors import DomainError, InvalidRangeError, OverflowLimitError
from .exact_arith import check_magnitude, read_int, refresh_int_limit
from .recognize import LensSpace, lens_normalize, recognize
from .seifert import (
    CanonicalForm,
    SeifertPair,
    euler_number,
    isomorphism_type,
    normalize,
    parse,
    unparse,
)


def _quoted(text: str) -> str:
    """``text`` quoted for an error message, cut after 100 characters."""
    return repr(text) if len(text) <= 100 else f"{text[:100]!r}..."


def _int_text(text: str) -> str:
    """The argparse ``type`` of an integer option, with the usage error of
    ``type=int``; the text is read again after parsing, where the guard's
    refusal of a long integer is a DomainError."""
    try:
        read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None
    except OverflowLimitError:
        pass
    return text


def _int_pair(text: str, flag: str) -> tuple[int, int]:
    # Read after argparse, not as its ``type``: argparse would turn this
    # DomainError into a usage error (exit 2) instead of exit 1.
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidRangeError(
            f"{flag} must be two comma-separated integers, got {_quoted(text)}")
    try:
        first, second = read_int(parts[0]), read_int(parts[1])
    except ValueError as exc:
        raise InvalidRangeError(f"{flag} must be integers, got {_quoted(text)}") from exc
    check_magnitude(first, second)
    return first, second


def _same(value, *_):
    return value


class Argument(NamedTuple):
    """How an argument is declared, read into a library value, and echoed."""

    options: dict
    read: Callable[[str, str], object]
    echo: Callable[[object], object] = _same
    pair: bool = False


def _pair(metavar: str, make: Callable) -> Argument:
    """A required ``--option A,B`` whose two integers are passed to ``make``."""
    return Argument({"required": True, "metavar": metavar},
                    lambda text, flag: make(*_int_pair(text, flag)), pair=True)


# Library functions are called through this module's globals, never bound
# at import, so that whatever rebinds them (a tracer) sees every call.
_LENS = _pair("P,Q", lambda p, q: lens_normalize(p, q))
_WEIGHTS = _pair("A1,A2", lambda a, b: (a, b))
_PAIR = _pair("M1,M2", lambda a, b: (a, b))
_MODEL_WEIGHTS = _pair("K1,K2", construct_mod.ModelWeights)
_FIBRATION = Argument({}, lambda text, flag: parse(text), lambda fib: unparse(fib))
_TEXT = Argument({}, _same)
_INT = Argument({"required": True, "type": _int_text}, lambda text, flag: read_int(text))


# Payloads keep the library's tuples, which json.dumps writes as arrays.
def _canonical_json(cf: CanonicalForm) -> dict:
    return dict(cf._asdict(), fibration=unparse(cf.expand()))


def _fibration_result(fib) -> dict:
    """The result of ``construct`` and ``model``."""
    return {
        "fibration": {"genus": fib.genus, "pairs": fib.pairs, "text": unparse(fib)},
        "canonical": _canonical_json(normalize(fib)),
        "lens": recognize(fib)._asdict(),
    }


def _construct(lens, weights) -> dict:
    fib, trace = construct_mod.construct_fibration(lens, *weights)
    return {"result": _fibration_result(fib), "trace": trace._asdict()}


def _normalize(fibration) -> dict:
    result = _canonical_json(normalize(fibration))
    euler = euler_number(fibration)
    return {"result": dict(result, euler={"num": euler.numerator, "den": euler.denominator})}


def _classify(lens, pair) -> dict:
    report = classify_mod.classify_pair(lens, *pair)
    prediction = report.prediction
    return {"result": {
        "case": prediction.tag.value,
        "class_count": len(report.classes),
        "classes": [
            {
                "canonical": _canonical_json(e.canonical),
                "weights": e.weights,
                "representative": unparse(e.representative),
                "base_orbifold": str(e.orbifold),
            }
            for e in report.classes
        ],
        "reversing_pairs": report.reversing_pairs,
        "predicates": {
            "flip_gives_reversing": prediction.flip_gives_reversing,
            "exchange_gives_oriented": prediction.exchange_gives_oriented,
            "exchange_flip_gives_reversing": prediction.exchange_flip_gives_reversing,
        },
    }}


def _pi1(fibration) -> dict:
    pres = pi1_mod.presentation(fibration)
    orb = pi1_mod.base_orbifold(fibration)
    return {"result": {
        "generators": pres.generators,
        "relators": [pi1_mod.render_word(w) for w in pres.relators],
        "base_orbifold": {"surface": orb.surface, **orb._asdict()},
    }}


def _render_fibration(payload: dict) -> Iterable[str]:
    result = payload["result"]
    yield f"fibration {result['fibration']['text']}"
    yield f"canonical {result['canonical']['fibration']}"
    yield f"lens {LensSpace(**result['lens'])}"
    if "trace" in payload:
        fields = " ".join(f"{k}={v}" for k, v in payload["trace"].items())
        yield "trace " + fields.replace("_prime", "'")


def _render_normalize(payload: dict) -> Iterable[str]:
    result = payload["result"]
    pairs = ",".join(str(SeifertPair(*pair)) for pair in result["pairs"]) or "-"
    yield f"canonical genus={result['genus']} b={result['b']} pairs={pairs}"
    yield f"fibration {result['fibration']}"
    num, den = result["euler"]["num"], result["euler"]["den"]
    yield f"euler {num}" if den == 1 else f"euler {num}/{den}"


def _render_classify(payload: dict) -> Iterable[str]:
    result = payload["result"]
    yield f"case {result['case']}"
    yield f"classes {result['class_count']}"
    for i, entry in enumerate(result["classes"]):
        w1, w2 = entry["weights"]
        yield (f"class {i}: {entry['canonical']['fibration']} "
               f"weights=({w1},{w2}) base={entry['base_orbifold']}")
    pairs = " ".join(f"({i},{j})" for i, j in result["reversing_pairs"]) or "-"
    yield f"reversing pairs {pairs}"


def _render_pi1(payload: dict) -> Iterable[str]:
    result = payload["result"]
    orb = result["base_orbifold"]
    yield f"< {', '.join(result['generators'])} | {', '.join(result['relators'])} >"
    yield f"base {pi1_mod.BaseOrbifold(orb['genus'], orb['cone_orders'])}"


class Command(NamedTuple):
    """One subcommand; ``compute`` takes the values its arguments read into."""

    help: str
    arguments: dict[str, Argument]
    compute: Callable[..., dict]
    render: Callable[[dict], Iterable[str]]


COMMANDS: dict[str, Command] = {
    "construct": Command(
        "build a fibration with given weights",
        {"--lens": _LENS, "--weights": _WEIGHTS}, _construct, _render_fibration),
    "recognize": Command(
        "oriented lens type of a fibration", {"fibration": _FIBRATION},
        lambda fibration: {"result": recognize(fibration)._asdict()},
        lambda payload: [str(LensSpace(**payload["result"]))]),
    "normalize": Command(
        "canonical form of an invariant list", {"fibration": _FIBRATION},
        _normalize, _render_normalize),
    "iso": Command(
        "compare two fibrations up to isomorphism",
        {"first": _FIBRATION, "second": _FIBRATION},
        lambda first, second: {"result": isomorphism_type(first, second).value},
        lambda payload: [payload["result"]]),
    "classify": Command(
        "classes for an unordered weight pair",
        {"--lens": _LENS, "--pair": _PAIR}, _classify, _render_classify),
    "enumerate": Command(
        "all classes with bounded multiplicities",
        {"--lens": _LENS, "--max-mult": _INT},
        lambda lens, max_mult: {"result": [
            _canonical_json(cf) for cf in classify_mod.enumerate_fibrations(lens, max_mult)]},
        lambda payload: [cf["fibration"] for cf in payload["result"]]),
    "model": Command(
        "invariants of a weighted circle action",
        {"--lens": _LENS, "--weights": _MODEL_WEIGHTS},
        lambda lens, weights: {"result": _fibration_result(
            construct_mod.model_fibration(lens, weights))},
        _render_fibration),
    "isotropy": Command(
        "fibre-preserving deck transformations",
        {"--lens": _LENS, "--weights": _MODEL_WEIGHTS},
        lambda lens, weights: {"result": {"u": construct_mod.isotropy_order(lens, weights)}},
        lambda payload: [str(payload["result"]["u"])]),
    "pi1": Command(
        "fundamental-group presentation", {"fibration": _FIBRATION}, _pi1, _render_pi1),
    "homology": Command(
        "first-homology invariant factors", {"fibration": _FIBRATION},
        lambda fibration: {"result": {
            "invariant_factors": list(pi1_mod.first_homology(fibration))}},
        lambda payload: [" ".join(map(str, payload["result"]["invariant_factors"]))
                         or "trivial"]),
    "parse-check": Command(
        "validate invariant-list text", {"fibration": _TEXT},
        lambda fibration: {"result": {"fibration": unparse(parse(fibration))}},
        lambda payload: ["ok"]),
}


class _UsageError(Exception):
    """argparse rejected the command line; args are (parser, message)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of the command line and, by name, those of its subcommands,
    built on the first call and shared by every later one, since building
    them costs more than most commands; callers must not change them."""
    parser = _Parser(
        prog="lensfib",
        description="Seifert fibrations of lens spaces, in exact arithmetic.",
    )
    parser.add_argument("--json", action="store_true", help="structured output")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, command in COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=command.help)
        for flag, argument in command.arguments.items():
            p.add_argument(flag, **argument.options)
    return parser, commands


_PAIR_FLAGS = frozenset(flag for command in COMMANDS.values()
                        for flag, argument in command.arguments.items() if argument.pair)


def _join_signed_pairs(argv: list[str]) -> list[str]:
    """Write ``--lens -7,2`` as ``--lens=-7,2``.

    argparse takes ``-7,2`` for an unknown option, since it is not a plain
    negative number, so a signed pair given as its own token is joined to
    its flag.  Tokens after ``--`` are left alone.
    """
    joined: list[str] = []
    for token in argv:
        if (joined and joined[-1] in _PAIR_FLAGS and token[:1] == "-"
                and token[1:2].isdigit() and "--" not in joined):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _fail(args: argparse.Namespace, message: str, code: int) -> int:
    if args.json:
        print(json.dumps({"command": args.command, "status": "error", "error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def run(argv: list[str]) -> int:
    root, commands = build_parser()
    argv = _join_signed_pairs(argv)
    # One argparse pass per call: a command named after the tokens argparse
    # reads as --json (the flag or an abbreviation such as --js) is parsed by
    # its own parser, and any other command line by the root parser.
    start = 0
    while start < len(argv) and len(argv[start]) > 2 and "--json".startswith(argv[start]):
        start += 1
    args = argparse.Namespace(json=start > 0, command=None)
    try:
        if start < len(argv) and argv[start] in commands:
            args.command = argv[start]
            _, extra = commands[args.command].parse_known_args(argv[start + 1:], args)
            if extra:
                root.error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            root.parse_args(argv, args)
    except _UsageError as exc:
        failed, message = exc.args
        for token in argv:
            if len(token) > 100:
                message = message.replace(token, f"{token[:100]}...")
        if not args.json:
            argparse.ArgumentParser.error(failed, message)
        raise SystemExit(_fail(args, message, 2)) from None
    command = COMMANDS[args.command]
    values, echo = {}, {}
    try:
        refresh_int_limit()
        for flag, argument in command.arguments.items():
            dest = flag.lstrip("-").replace("-", "_")
            values[dest] = argument.read(getattr(args, dest), flag)
            echo[dest] = argument.echo(values[dest])
        payload = command.compute(**values)
        if args.json:
            lines = [json.dumps({"command": args.command, "input": echo, "status": "ok",
                                 **payload})]
        else:
            lines = list(command.render(payload))
    except DomainError as exc:
        return _fail(args, str(exc), 1)
    except Exception as exc:  # a fault of the program, not of its input
        # The failed call's frames, kept by the traceback, may hold all the
        # memory a MemoryError ran out of.
        exc.__traceback__ = None
        name, detail = type(exc).__name__, str(exc)
        return _fail(args, f"{name}: {detail}" if detail else name, 3)
    for line in lines:
        print(line)
    return 0


def main() -> None:
    try:
        try:
            code = run(sys.argv[1:])
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, as ``head`` does: exit as a shell reports a
        # process ended by SIGPIPE (128 + 13), and let the last flush write nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
