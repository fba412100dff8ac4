"""The frozen record base, exercised through the toolkit's own value types."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import stratacheck
from stratacheck.errors import LedgerError, Record
from stratacheck.invariants import DiagonalAction, MonoidPresentation
from stratacheck.ledger import FiberPointChecks, StratumEntry, paper_ledger
from stratacheck.singularities import CyclicDiagonalElement, ResolutionVerdict
from stratacheck.surfaces import ClassBasis, DivisorClass


def test_assignment_and_deletion_raise_attribute_error():
    e = CyclicDiagonalElement(4, (1, 3))
    with pytest.raises(AttributeError):
        e.order = 2
    with pytest.raises(AttributeError):
        del e.exponents
    with pytest.raises(AttributeError):
        e.fresh = 1
    assert (e.order, e.exponents) == (4, (1, 3))


def test_equal_fields_give_equal_objects_and_hashes():
    # the exponents are normalised modulo the order before they are compared
    a, b = CyclicDiagonalElement(4, (1, 3)), CyclicDiagonalElement(4, [5, -1])
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != CyclicDiagonalElement(4, (1, 2))
    assert len({a, b, CyclicDiagonalElement(2, (1, 1))}) == 2
    p = MonoidPresentation(2, [[2, 0], [1, 1], [0, 2]], [([1, 0, 1], [0, 2, 0])])
    q = MonoidPresentation(2, ((2, 0), (1, 1), (0, 2)), (((1, 0, 1), (0, 2, 0)),))
    assert p == q and hash(p) == hash(q)
    assert p != MonoidPresentation(2, ((2, 0), (1, 1), (0, 2)))


def test_one_field_record_compares_and_hashes_by_value():
    basis = ClassBasis(("a",), ((1,),))
    assert DivisorClass(basis, [2]) == DivisorClass(basis, (2,))
    assert hash(DivisorClass(basis, [2])) == hash(DivisorClass(basis, (2,)))


def test_classes_with_the_same_field_values_are_unequal():
    verdict, checks = ResolutionVerdict("x", 2), FiberPointChecks("x", 2)
    assert ResolutionVerdict("x", 2) == verdict and FiberPointChecks("x", 2) == checks
    assert (verdict == checks) is False and (checks == verdict) is False
    assert verdict != ("x", 2)


def test_defaults_must_come_last_and_be_immutable():
    with pytest.raises(TypeError):
        class DefaultFirst(Record):
            a: int = 0
            b: int
    with pytest.raises(TypeError):
        class SharedList(Record):
            a: list = []


def test_repr_reads_as_the_dataclass_printed_it():
    assert repr(DiagonalAction(2, ((1, -1),))) == (
        "DiagonalAction(ambient_dim=2, torus_weights=((1, -1),), finite_factors=())"
    )
    assert repr(CyclicDiagonalElement(3, (4,))) == "CyclicDiagonalElement(order=3, exponents=(1,))"


def test_positional_keyword_and_default_construction_agree():
    full = DiagonalAction(2, ((1, -1),), ())
    assert DiagonalAction(2, ((1, -1),)) == full
    assert DiagonalAction(2, torus_weights=((1, -1),)) == full
    assert DiagonalAction(finite_factors=(), ambient_dim=2, torus_weights=[[1, -1]]) == full
    entry = StratumEntry("a", 1, 2, 3, "paper")
    assert (entry.recipe, entry.description) == ("", "")
    assert StratumEntry("a", 1, 2, 3, "paper", description="d").description == "d"


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    ((4,), {}),
    ((4, (1,), 0), {}),
    ((4,), {"order": 4, "exponents": (1,)}),
    ((4, (1,)), {"order": 4}),
    ((), {"order": 4, "exponents": (1,), "extra": 0}),
    ((), {"exponents": (1,)}),
])
def test_missing_extra_or_repeated_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        CyclicDiagonalElement(*args, **kwargs)


def test_replace_runs_the_validation_again():
    entry = paper_ledger("cubic").entries[0]
    changed = entry.replace(chi_fiber=entry.chi_fiber + 1)
    assert changed.chi_fiber == entry.chi_fiber + 1 and changed.label == entry.label
    assert entry.replace() == entry
    with pytest.raises(LedgerError):
        entry.replace(dimension=3)
    with pytest.raises(TypeError):
        entry.replace(unknown=1)


def test_asdict_lists_the_fields_in_order():
    entry = StratumEntry("a", 1, None, 0, "paper")
    assert entry.asdict() == {
        "label": "a", "dimension": 1, "chi_base": None, "chi_fiber": 0,
        "provenance": "paper", "recipe": "", "description": "",
    }
    assert list(entry.asdict()) == list(StratumEntry.__annotations__)


def test_every_annotation_of_every_module_resolves():
    # the modules postpone their annotations, so a name used only in one
    # (say Callable) raises NameError only when the hints are resolved
    unresolved = []
    for info in pkgutil.iter_modules(stratacheck.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"stratacheck.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            targets = [obj] if inspect.isclass(obj) or inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                targets += [m for m in vars(obj).values() if inspect.isfunction(m)]
            for target in targets:
                try:
                    typing.get_type_hints(target)
                except Exception as exc:
                    unresolved.append(f"{module.__name__}.{target.__qualname__}: {exc!r}")
    assert unresolved == []
