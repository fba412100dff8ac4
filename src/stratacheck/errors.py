"""Exception types and ``Record``, the frozen base of every value type.

Every exception derives from ValueError so callers that do not care about the
fine-grained class can still catch bad input generically.  ``Record`` lives
here so that a layer defining value types imports nothing more.
"""

from operator import attrgetter

_set = object.__setattr__


class ToolkitError(ValueError):
    """Base class for all stratacheck errors."""


class NonSaturationError(ToolkitError):
    """A degree bound was too small to certify a generating set.

    Carries the first invariant monomial that does not factor into the
    candidate generators as ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvolutionError(ToolkitError):
    """A coordinate involution is malformed or incompatible with an action."""


class QuasiReflectionError(ToolkitError):
    """A group element fixes a hyperplane, so the age test does not apply."""


class InconsistentInputError(ToolkitError):
    """An exact solve has no admissible (non-negative / integral) solution."""


class LedgerError(ToolkitError):
    """A stratification ledger is incomplete or internally inconsistent."""


class ConfigError(ToolkitError):
    """A configuration document failed schema validation."""


class Record:
    """Frozen value record whose fields are the annotations of its class body.

    Fields with a default come last.  A call binds its arguments to the fields
    in order, then runs ``__post_init__``, which validates and may normalise a
    field through ``object.__setattr__``.  Records are equal, and hash alike,
    only within one class; assignment and deletion raise ``AttributeError``.
    """

    def __init_subclass__(cls):
        fields = tuple(cls.__annotations__)
        tail = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
        mutable = any(type(value).__hash__ is None for value in tail)
        if mutable or not all(f in cls.__dict__ for f in fields[len(fields) - len(tail):]):
            raise TypeError(f"{cls.__name__}: defaults must come last and be immutable")
        cls._fields, cls._required, cls._tail = fields, len(fields) - len(tail), tail
        cls._values = attrgetter(*fields)  # built in C; a bare value for one field

    def __init__(self, *args, **kwargs):
        fields = type(self)._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        i = 0
        for name in fields:
            _set(self, name, args[i])
            i += 1
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        fields, required, start = cls._fields, cls._required, max(len(args), cls._required)
        try:
            values = (*args, *map(kwargs.pop, fields[len(args):required]),
                      *map(kwargs.pop, fields[start:], cls._tail[start - required:]))
        except KeyError:
            values = ()
        if len(values) != len(fields) or kwargs:
            raise TypeError(f"{cls.__name__}() arguments do not match ({', '.join(fields)})")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in self.asdict().items())
        return f"{self.__class__.__qualname__}({body})"

    def asdict(self) -> dict:
        """Field name to value, in field order; nested records stay records."""
        return {name: getattr(self, name) for name in self._fields}

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated again by ``__post_init__``."""
        return self.__class__(**{**self.asdict(), **changes})
