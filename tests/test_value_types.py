"""The value types are named tuples, and the three that carry an invariant
check it however one is built; importing the CLI loads no module it does not
use."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from lensfib import (
    CanonicalForm,
    ConstructionTrace,
    InvalidRangeError,
    LensSpace,
    NotCoprimePairError,
    SeifertFibration,
    SeifertPair,
    ZeroAlphaError,
    classify_pair,
    construct_fibration,
    fibration,
    normalize,
    parse,
)
from lensfib.cli import run
from lensfib.construct import Construction, GluingChoice, ModelWeights, gluing_choice
from lensfib.errors import NotCoprimeError, ZeroWeightError
from lensfib.seifert import euler_number

LENS = LensSpace(7, 2)
FIB = fibration(0, (35, 33), (14, -13))
WEIGHTS = ModelWeights(2, 3)
VALUES = [LENS, FIB, WEIGHTS]

# Each way of building a checked type that a plain named tuple leaves unchecked,
# then each wrong number or name of arguments, which the signature of the type's
# own __new__ refuses with a TypeError, as the generated __new__ does.
INVALID = {
    "lens-replace": (lambda: LENS._replace(q=14), InvalidRangeError),
    "lens-make": (lambda: LensSpace._make((0, 2)), InvalidRangeError),
    "lens-keywords": (lambda: LensSpace(p=6, q=2), NotCoprimeError),
    "fibration-make": (lambda: SeifertFibration._make((0, (SeifertPair(4, 2),))),
                       NotCoprimePairError),
    "fibration-replace": (lambda: FIB._replace(pairs=(SeifertPair(0, 1),)), ZeroAlphaError),
    "weights-replace": (lambda: WEIGHTS._replace(k2=4), NotCoprimeError),
    "weights-make": (lambda: ModelWeights._make((0, 1)), ZeroWeightError),
    "lens-one": (lambda: LensSpace(7), TypeError),
    "lens-three": (lambda: LensSpace(7, 2, 1), TypeError),
    "lens-unknown-keyword": (lambda: LensSpace(p=7, r=2), TypeError),
    "lens-make-short": (lambda: LensSpace._make((7,)), TypeError),
    "lens-make-long": (lambda: LensSpace._make((7, 2, 1)), TypeError),
    "fibration-one": (lambda: SeifertFibration(0), TypeError),
    "fibration-three": (lambda: SeifertFibration(0, (), ()), TypeError),
    "fibration-unknown-keyword": (lambda: SeifertFibration(genus=0, pair=()), TypeError),
    "fibration-make-short": (lambda: SeifertFibration._make((0,)), TypeError),
    "weights-none": (lambda: ModelWeights(), TypeError),
    "weights-three": (lambda: ModelWeights(2, 3, 5), TypeError),
    "weights-unknown-keyword": (lambda: ModelWeights(k1=2, k3=3), TypeError),
    "weights-make-long": (lambda: ModelWeights._make((2, 3, 5)), TypeError),
}


@pytest.mark.parametrize("build, error", INVALID.values(), ids=INVALID.keys())
def test_every_way_of_building_checks(build, error):
    with pytest.raises(error):
        build()


CONSTRUCTION = construct_fibration(LENS, 5, 2)
TRACE = CONSTRUCTION.trace

# Each plain record the library builds with tuple.__new__, and the same value
# built through its public constructor.
RECORDS = {
    "normalize": (normalize(FIB), CanonicalForm(
        0, -1, (SeifertPair(14, 1), SeifertPair(35, 33)))),
    "parse": (parse("M(0;(35,33),(14,-13))").pairs[1], SeifertPair(14, -13)),
    "construct": (CONSTRUCTION, Construction(
        SeifertFibration(0, (SeifertPair(35, 33), SeifertPair(14, -13))),
        ConstructionTrace(*TRACE))),
    "construct-trace": (TRACE, ConstructionTrace(1, 7, 35, 14, 18, 33, 17, -13, -1, 4)),
    "gluing_choice": (gluing_choice(7, 2), GluingChoice(-1, 4)),
}


@pytest.mark.parametrize("built, public", RECORDS.values(), ids=RECORDS.keys())
def test_records_built_in_one_step_equal_the_public_constructors(built, public):
    assert type(built) is type(public) and built == public
    # The repr names the type of every record nested in the value.
    assert repr(built) == repr(public)


@pytest.mark.parametrize("value", [*VALUES, normalize(FIB), CONSTRUCTION, TRACE], ids=type)
def test_pickle_and_copy_round_trip(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)
    for back in (copy.copy(value), copy.deepcopy(value)):
        assert back == value and type(back) is type(value)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_and_copying_check(protocol):
    """An instance that skipped its check, as only ``tuple.__new__`` can make
    one, is refused when it is unpickled or copied."""
    bad = tuple.__new__(LensSpace, (7, 14))
    with pytest.raises(InvalidRangeError):
        pickle.loads(pickle.dumps(bad, protocol))
    for clone in (copy.copy, copy.deepcopy):
        with pytest.raises(InvalidRangeError):
            clone(bad)


def test_behaviour_of_the_former_dataclasses_is_kept():
    assert repr(LENS) == "LensSpace(p=7, q=2)"
    assert repr(FIB) == ("SeifertFibration(genus=0, pairs=(SeifertPair(alpha=35, beta=33), "
                         "SeifertPair(alpha=14, beta=-13)))")
    assert repr(WEIGHTS) == str(WEIGHTS) == "ModelWeights(k1=2, k2=3)"
    assert str(LENS) == "L(7,2)" and str(FIB) == "M(0;(35,33),(14,-13))"
    for value in VALUES:
        assert hash(value) == hash(tuple(value))
        assert value == type(value)(*value) == type(value)(**value._asdict())
        with pytest.raises(AttributeError):
            value.extra = 1
    with pytest.raises(AttributeError):
        LENS.p = 5
    lenses = [LensSpace(7, 3), LensSpace(5, 2), LensSpace(0, 1), LensSpace(7, 2)]
    assert sorted(lenses) == [LensSpace(0, 1), LensSpace(5, 2), LENS, LensSpace(7, 3)]
    assert LensSpace(5, 2) < LENS <= LENS < LensSpace(7, 3) and LENS != LensSpace(7, 3)


def test_value_types_are_named_tuples():
    p, q = LENS
    assert (p, q) == LENS == (7, 2) and LENS._asdict() == {"p": 7, "q": 2}
    genus, pairs = FIB
    assert (genus, pairs) == FIB == (0, ((35, 33), (14, -13)))
    assert WEIGHTS == (2, 3) and WEIGHTS._fields == ("k1", "k2")
    report = classify_pair(LENS, 5, 2)
    assert report == tuple(report) and report.prediction == tuple(report.prediction)
    assert report.prediction._fields[:3] == ("tag", "class_count", "reversing_pair_count")


FOOTPRINT = """
import sys
before = set(sys.modules)
import lensfib.cli
print(*sorted(set(sys.modules) - before))
"""


def test_importing_the_cli_loads_no_unused_module():
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert loaded & {"dataclasses", "inspect", "fractions", "decimal"} == set()
    assert "lensfib.cli" in loaded


@pytest.mark.parametrize("text", [
    "M(0;(35,-2),(14,1))", "M(0;(3,-1),(2,1))", "M(0;(1,2))", "M(0;(3,2),(3,-2))", "M(-1;)",
])
def test_euler_number_is_a_fraction_and_printed_as_one(capsys, text):
    euler = euler_number(parse(text))
    assert type(euler) is Fraction
    assert run(["normalize", text]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"euler {euler}"
