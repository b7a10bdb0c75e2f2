"""Exception taxonomy, tri-state results and the value-record base."""


class Record:
    """Base of the value records, plain `__slots__` classes.  A subclass
    names the attributes that make up its value in `_fields` and gets
    `==`, hash and repr over them: a record equals only a record of its
    own class, never a tuple; it hashes as the tuple of its fields, and a
    mutable one sets `__hash__ = None`; other slots are left out."""

    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class WittlabError(Exception):
    """Base class for all wittlab errors."""


class DivisionByZero(WittlabError):
    pass


class PrecisionExhausted(WittlabError):
    """A result's certified precision would drop to zero (or a decision
    cannot be certified at the current working precision)."""


class NegativeValuation(WittlabError):
    pass


class NotApplicable(WittlabError):
    pass


class SingularMatrix(WittlabError):
    pass


class SingularForm(WittlabError):
    pass


class DegenerateForm(WittlabError):
    pass


class RuleNotApplicable(WittlabError):
    """A Witt-expression rewrite rule's precondition is violated; the
    message names the violated precondition."""


class UnsupportedResidueField(WittlabError):
    pass


class WrongCase(WittlabError):
    pass


class GridViolation(WittlabError):
    pass


class DegreeCapExceeded(WittlabError):
    """Rational-function coefficient growth hit the configured degree cap."""


class Undecidable(WittlabError):
    """Honest refusal: metabolicity at depth 0 over an imperfect residue
    field exceeds the implemented decision procedures."""


class FormSyntaxError(WittlabError):
    """Literal syntax error, annotated with 1-based line/column."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class UsageError(WittlabError):
    """A command-line option value outside its documented range."""


class _Indistinguishable:
    """Singleton result for equality questions that the library refuses to
    coerce to a boolean.  Explicitly not truthy and not falsy."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Indistinguishable"

    def __bool__(self):
        raise TypeError("Indistinguishable is neither true nor false; "
                        "compare with `is wittlab.INDISTINGUISHABLE`")


INDISTINGUISHABLE = _Indistinguishable()
