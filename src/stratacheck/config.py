"""Configuration documents: the shared input format for every subcommand.

A config is a JSON object with up to five sections (actions, involutions,
groups, bases, ledgers), integer-only numeric fields throughout.  The
built-in document carries the whole bundled verification suite, and a user
document overrides entries of the same name section by section.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ConfigError, Record, ToolkitError
from .invariants import CoordinateInvolution, DiagonalAction
from .ledger import Ledger, StratumEntry, paper_ledger
from .singularities import CyclicDiagonalElement, FiniteDiagonalGroup
from .surfaces import ClassBasis

# a group is enumerated element by element, and the product of its generator
# orders, which bounds its order, may not pass this
MAX_GROUP_ORDER = 10_000


class ConfigDocument(Record):
    label: str
    actions: dict[str, DiagonalAction]
    involutions: dict[str, CoordinateInvolution]
    groups: dict[str, FiniteDiagonalGroup]
    bases: dict[str, ClassBasis]
    ledgers: dict[str, Ledger]

    def require(self, section: str, name: str):
        table = getattr(self, section)
        if name not in table:
            raise ConfigError(f"config {self.label!r} lacks {section} entry {name!r}")
        return table[name]


def builtin_config() -> ConfigDocument:
    """The bundled verification inputs; verify-all needs nothing else."""
    pair_weights = ((1, 1, 1, 1, -1, -1, -1, -1),)
    triple_weights = (
        (1, 1, 1, 1, 0, 0, -1, -1, -1, -1, 0, 0),
        (0, 0, 1, 1, 1, 1, 0, 0, -1, -1, -1, -1),
    )
    actions = {
        "torus-pair": DiagonalAction(8, pair_weights),
        "torus-triple": DiagonalAction(12, triple_weights),
        "negation-c4": DiagonalAction(4, (), ((2, (1, 1, 1, 1)),)),
        "z2z2-c6": DiagonalAction(
            6, (), ((2, (0, 0, 1, 1, 1, 1)), (2, (1, 1, 0, 0, 1, 1)))
        ),
    }
    involutions = {
        # x1..x4 are variables 0..3, their duals y1..y4 are 4..7
        "swap-pair": CoordinateInvolution((5, 4, 7, 6, 1, 0, 3, 2)),
        # blocks (x12, x13, x23, y12, y13, y23), two variables each
        "swap-triple": CoordinateInvolution((7, 6, 9, 8, 11, 10, 1, 0, 3, 2, 5, 4)),
    }
    groups = {
        "negation-c2": FiniteDiagonalGroup((CyclicDiagonalElement(2, (1, 1)),)),
        "negation-c4": FiniteDiagonalGroup((CyclicDiagonalElement(2, (1, 1, 1, 1)),)),
        "z2z2-c6": FiniteDiagonalGroup(
            (
                CyclicDiagonalElement(2, (0, 0, 1, 1, 1, 1)),
                CyclicDiagonalElement(2, (1, 1, 0, 0, 1, 1)),
            )
        ),
    }
    bases = {
        "curve-square": ClassBasis(
            ("f1", "f2", "diag"), ((0, 1, 1), (1, 0, 1), (1, 1, -6))
        ),
    }
    ledgers = {name: paper_ledger(name) for name in ("cubic", "degree2")}
    return ConfigDocument("builtin", actions, involutions, groups, bases, ledgers)


# ---------------------------------------------------------------------------
# parsing


def _need(table: dict, key: str, kind, where: str):
    if key not in table:
        raise ConfigError(f"{where}: missing field {key!r}")
    value = table[key]
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{where}: field {key!r} must be an integer")
    if not isinstance(value, kind):
        raise ConfigError(f"{where}: field {key!r} has wrong type")
    return value


def _int_list(values, where: str) -> tuple[int, ...]:
    if not isinstance(values, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in values
    ):
        raise ConfigError(f"{where}: expected a list of integers")
    return tuple(values)


def _optional_list(table: dict, key: str, where: str) -> list:
    value = table.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{where}: field {key!r} must be a list")
    return value


def _parse_action(name: str, raw: dict) -> DiagonalAction:
    where = f"actions.{name}"
    dim = _need(raw, "ambient_dim", int, where)
    torus = tuple(
        _int_list(row, f"{where}.torus_weights")
        for row in _optional_list(raw, "torus_weights", where)
    )
    finite = []
    for pair in _optional_list(raw, "finite_factors", where):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{where}.finite_factors: expected [modulus, weights]")
        modulus, weights = pair
        if not isinstance(modulus, int) or isinstance(modulus, bool):
            raise ConfigError(f"{where}.finite_factors: modulus must be an integer")
        finite.append((modulus, _int_list(weights, f"{where}.finite_factors")))
    return DiagonalAction(dim, torus, tuple(finite))


def _parse_involution(name: str, raw: dict) -> CoordinateInvolution:
    where = f"involutions.{name}"
    image = _int_list(_need(raw, "permutation", list, where), where)
    signs = raw.get("signs")
    return CoordinateInvolution(image, None if signs is None else _int_list(signs, where))


def _parse_group(name: str, raw: dict) -> FiniteDiagonalGroup:
    where = f"groups.{name}"
    gens = []
    size = 1
    for i, g in enumerate(_need(raw, "generators", list, where)):
        if not isinstance(g, dict):
            raise ConfigError(f"{where}.generators[{i}]: expected an object")
        order = _need(g, "order", int, f"{where}.generators[{i}]")
        exps = _int_list(
            _need(g, "exponents", list, f"{where}.generators[{i}]"),
            f"{where}.generators[{i}]",
        )
        try:
            gens.append(CyclicDiagonalElement(order, exps))
        except ToolkitError as exc:
            raise ConfigError(f"{where}.generators[{i}]: {exc}") from exc
        size *= order
        if size > MAX_GROUP_ORDER:
            raise ConfigError(f"{where}: generator orders multiply past {MAX_GROUP_ORDER}")
    return FiniteDiagonalGroup(tuple(gens))


def _parse_basis(name: str, raw: dict) -> ClassBasis:
    where = f"bases.{name}"
    labels = _need(raw, "labels", list, where)
    if any(not isinstance(s, str) for s in labels):
        raise ConfigError(f"{where}: labels must be strings")
    pairing = tuple(
        _int_list(row, f"{where}.pairing") for row in _need(raw, "pairing", list, where)
    )
    return ClassBasis(tuple(labels), pairing)


def _parse_ledger(name: str, raw: dict) -> Ledger:
    where = f"ledgers.{name}"
    entries = []
    for i, row in enumerate(_need(raw, "entries", list, where)):
        if not isinstance(row, dict):
            raise ConfigError(f"{where}.entries[{i}]: expected an object")
        rwhere = f"{where}.entries[{i}]"
        label = _need(row, "label", str, rwhere)
        dimension = _need(row, "dimension", int, rwhere)
        chi_base = row.get("chi_base")
        if chi_base is not None and (not isinstance(chi_base, int) or isinstance(chi_base, bool)):
            raise ConfigError(f"{rwhere}: chi_base must be an integer or null")
        chi_fiber = _need(row, "chi_fiber", int, rwhere)
        provenance = row.get("provenance", "paper")
        recipe = _need(row, "recipe", str, rwhere) if "recipe" in row else ""
        description = _need(row, "description", str, rwhere) if "description" in row else ""
        try:
            entries.append(
                StratumEntry(
                    label,
                    dimension,
                    chi_base,
                    chi_fiber,
                    provenance,
                    recipe,
                    description,
                )
            )
        except ToolkitError as exc:
            raise ConfigError(f"{rwhere}: {exc}") from exc
    return Ledger(name, tuple(entries))


_SECTION_PARSERS = {
    "actions": _parse_action,
    "involutions": _parse_involution,
    "groups": _parse_group,
    "bases": _parse_basis,
    "ledgers": _parse_ledger,
}


def parse_config(raw: dict, label: str) -> ConfigDocument:
    """Validate a parsed JSON object and merge it over the built-in document."""
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(raw) - set(_SECTION_PARSERS)
    if unknown:
        raise ConfigError(f"unknown config sections {sorted(unknown)}")
    base = builtin_config()
    merged = {section: dict(getattr(base, section)) for section in _SECTION_PARSERS}
    for section, parser in _SECTION_PARSERS.items():
        table = raw.get(section, {})
        if not isinstance(table, dict):
            raise ConfigError(f"section {section!r} must be an object")
        for name, body in table.items():
            if not isinstance(body, dict):
                raise ConfigError(f"{section}.{name}: expected an object")
            try:
                merged[section][name] = parser(name, body)
            except ConfigError:
                raise
            except ToolkitError as exc:
                raise ConfigError(f"{section}.{name}: {exc}") from exc
    return ConfigDocument(label, **merged)


def load_config(path) -> ConfigDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, as is an integer literal over the
        # interpreter's digit limit; deeply nested arrays raise RecursionError
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(raw, str(path))
