"""The syntax of logical forms: interned nodes, records and node facts.

This module defines what the engine reasons about, with no truth
conditions: the engine's errors, the intern table and its ``Interned``
base, the ``record`` base of immutable value records, the predicate
expression and logical form node classes, and the facts the engine asks of
a node's subtree (its predicates, restrictors, and whether it is eventive,
sequenced or concurrent). It also builds the forms the engine derives from
others: the existence premises of a tuple of forms and the expansion of the
covert indefinite. ``logic`` gives the nodes their truth conditions.

Form nodes are hash-consed: building a node equal to a live one returns
that one. Equal nodes are therefore identical, and nodes hash and compare
by identity, so every cache keyed on forms finds one in O(1) instead of
walking it. The table holds one keyed weak reference per live node: the
reference carries its own table key, so the callback that drops a dead
node's entry needs no extra object per node.
"""

from __future__ import annotations

import _thread
import re
import weakref
from collections import namedtuple
from collections.abc import Iterable
from enum import Enum
from functools import lru_cache
from operator import attrgetter

STATIVE = "stative"
EVENTIVE = "eventive"
TEMPORAL_CLASSES = (STATIVE, EVENTIVE)


class FelicityError(Exception):
    """Base class for all engine errors."""


class DeclarationError(FelicityError):
    """A predicate was used without a matching declaration."""


class ScaleError(FelicityError):
    """A scale is missing, empty, ill-ordered, or lacks a required member."""


class ResourceBudgetError(FelicityError):
    """The requested model space exceeds the enumeration budget."""


class WellFormednessError(FelicityError):
    """A form violates a structural invariant."""


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete a field of an interned value."""


# ---------------------------------------------------------------------------
# Interning
# ---------------------------------------------------------------------------


class _KeyedRef(weakref.ref):
    """A weak reference to an interned value that carries the value's key
    in the table. Built by ``weakref.ref``'s own constructor, with the key
    set afterwards: ``weakref.KeyedRef`` does the same through Python-level
    ``__new__`` and ``__init__``."""

    __slots__ = ("key",)


# Live interned values: (class, *field values) -> keyed weak reference to
# the value. An entry goes when its value is no longer referenced. Reads
# take no lock; every write, and the lookup that decides it, holds
# _TABLE_LOCK, so the table never holds two live equal values. The lock is
# re-entrant: a weak-reference callback can run in the thread that holds it.
_INTERNED: dict[tuple, _KeyedRef] = {}
_TABLE_LOCK = _thread.RLock()
_NODE_CLASSES: set[type] = set()  # every subclass of Interned


def _forget(ref: _KeyedRef, table: dict = _INTERNED, lock=_TABLE_LOCK):
    # The table and lock are bound as defaults so that they outlive module
    # teardown. Reading the key, the test and the removal are one step
    # under the lock: an entry another thread has just replaced stays.
    with lock:
        key = ref.key
        if table.get(key) is ref:
            del table[key]


class _Interning(type):
    """Metaclass of ``Interned``: a call binds its arguments to the fields,
    returns the live value with those fields if there is one, and builds
    (and validates) a new value only otherwise."""

    def __call__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls.__match_args__):
            args = _bind(cls, args, kwargs)
        try:
            ref = _INTERNED.get((cls, *args))
        except TypeError:  # an unhashable argument, e.g. a list
            ref = None
        value = ref() if ref is not None else None
        if value is not None:
            return value
        value = super().__call__(*args)
        # Keyed by the stored fields, which __post_init__ may have
        # normalized (a list of members to a tuple, say).
        key = (cls, *value._fields())
        with _TABLE_LOCK:
            ref = _INTERNED.get(key)
            live = ref() if ref is not None else None
            if live is None:
                live = value
                ref = _KeyedRef(value, _forget)
                ref.key = key
                _INTERNED[key] = ref
        return live


class Interned(metaclass=_Interning):
    """Base of immutable classes whose equal values share one object.

    Equality is identity, and so is the hash: ``object``'s own slots, with
    no Python-level ``__eq__`` or ``__hash__``. That is sound because two
    live values with equal fields are always one object. Every supported
    way to make a value goes through the intern table: a call of the class,
    and so ``_replace``, and pickling and ``copy``/``deepcopy``, which
    rebuild through the constructor (``__reduce__``). The table itself is
    race-free: the lookup that finds no live value and the insert that
    follows happen under one lock, so threads that build the same new value
    concurrently all get one object back. ``object.__new__`` on a node
    class bypasses the table; it is not a supported constructor, and a
    value made that way equals nothing but itself.

    A subclass declares its fields as annotations, in order, and a default
    as a class attribute of the same name. ``__init_subclass__`` reads them
    into ``__match_args__`` (the field names) and ``_defaults``, and
    installs ``_fields()`` (the field values). ``__init__``, ``__repr__``
    and the frozen ``__setattr__``/``__delattr__`` are written here once.
    The class call binds positional, keyword and default arguments to the
    fields and looks them up in the intern table. Only on a miss does
    ``__init__`` run: it stores the bound values and calls
    ``__post_init__``, which may validate and may rebind fields through
    ``object.__setattr__``. An operator node also names its ``keyword``,
    the word that heads it in the concrete syntax. ``children`` walks any
    node through its fields, and ``dsl.render_lf`` writes any node from
    its keyword. Nodes stay plain classes, not tuples: the table holds
    weak references to them.
    """

    __match_args__: tuple[str, ...] = ()
    _defaults: dict = {}
    keyword = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _NODE_CLASSES.add(cls)
        cls.__match_args__ = names = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        cls._fields = _field_getter(names)

    def __init__(self, *values):
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields())
        )
        return f"{self.__class__.__qualname__}({fields})"

    def _replace(self, **changes):
        """The live value with the given fields changed."""
        return type(self)(**dict(zip(self.__match_args__, self._fields()), **changes))

    def __reduce__(self):
        # Rebuild through the constructor, so that the copy is the live
        # interned value and not a duplicate of it.
        return self.__class__, self._fields()


def _field_getter(names: tuple[str, ...]):
    """A method returning the tuple of the named fields, without the
    generator a generic loop over the names would run."""
    if not names:
        return lambda self: ()
    if len(names) == 1:
        get_one = attrgetter(names[0])
        return lambda self: (get_one(self),)
    get_all = attrgetter(*names)  # a tuple for two or more names
    return lambda self: get_all(self)


def _bind(cls: type, args: tuple, kwargs: dict) -> list:
    """The field values of ``cls(*args, **kwargs)``, with the TypeError that
    ``inspect.Signature.bind`` gives for repeated, extra, missing or unknown
    arguments."""
    names = cls.__match_args__
    try:
        for name in names[: len(args)]:
            if name in kwargs:
                raise TypeError(f"multiple values for argument {name!r}")
        if len(args) > len(names):
            raise TypeError("too many positional arguments")
        values = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"missing a required argument: {name!r}")
        if kwargs:
            raise TypeError(f"got an unexpected keyword argument {next(iter(kwargs))!r}")
    except TypeError as exc:
        raise TypeError(f"{cls.__qualname__}(): {exc}") from None
    return values


def record(typename: str, field_names: str, defaults: tuple = ()) -> type:
    """The base of an immutable record class: a ``collections.namedtuple``
    whose values equal only values of their own class, never a plain tuple
    or another record with the same fields. Its ``_make``, and so
    ``_replace``, builds through the class call, so that a subclass's
    ``__new__`` (which may normalize and validate) and ``__init__`` run on
    every copy too. A subclass declares ``__slots__ = ()``."""
    base = namedtuple(typename, field_names, defaults=defaults)
    base.__eq__ = _record_eq
    base.__ne__ = _record_ne
    base.__hash__ = tuple.__hash__
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


def _record_eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


def _record_ne(self, other):
    return not _record_eq(self, other)


class PredicateSym(Interned):
    """A unary predicate symbol with a fixed temporal class."""

    name: str
    temporal_class: str = STATIVE

    def __post_init__(self):
        # The reader's identifier rule: any other name would render as text
        # that parse_lf cannot read back.
        if type(self.name) is not str or not _IDENT_RE.match(self.name) or (
            self.name in _RESERVED
        ):
            raise WellFormednessError(
                f"predicate name must be an identifier and not a keyword, got {self.name!r}"
            )
        if self.temporal_class not in TEMPORAL_CLASSES:
            raise WellFormednessError(
                f"temporal class of {self.name!r} must be one of {TEMPORAL_CLASSES},"
                f" got {self.temporal_class!r}"
            )


class Atom(Interned):
    """A predicate symbol used as a predicate expression."""

    pred: PredicateSym


class TruePred(Interned):
    """The trivially true predicate (denotes the whole universe)."""

    keyword = "true"


TRUE = TruePred()


class NotP(Interned):
    """Predicate negation; denotes the complement in the universe."""

    keyword = "not"
    body: "PredExpr"


class AndConc(Interned):
    """Concurrent predicate conjunction; denotes set intersection."""

    keyword = "and-conc"
    left: "PredExpr"
    right: "PredExpr"


class AndSeq(Interned):
    """Sequenced predicate conjunction: events in order, not an intersection.

    Truth-conditionally an individual must satisfy both conjuncts (the
    ordering itself is not modeled in extensions), but the node is flagged
    non-intersective for reading analysis. Each conjunct must contain at
    least one eventive atom; stative predicates cannot be sequenced.
    """

    keyword = "and-seq"
    left: "PredExpr"
    right: "PredExpr"

    def __post_init__(self):
        for side, sub in (("left", self.left), ("right", self.right)):
            if not node_facts(sub).eventive:
                raise WellFormednessError(
                    f"and-seq requires an eventive atom in each conjunct;"
                    f" {side} conjunct has none"
                )


PredExpr = (Atom, TruePred, NotP, AndConc, AndSeq)


class Quantifier(Enum):
    SOME = "some"
    ALL = "all"
    MOST = "most"
    NO = "no"
    QI = "qi"

    # Members are singletons, so identity hashing is exact, and it runs in
    # C where Enum's own __hash__ (the hash of the name) is Python code.
    __hash__ = object.__hash__


SOME = Quantifier.SOME
ALL = Quantifier.ALL
MOST = Quantifier.MOST
NO = Quantifier.NO
QI = Quantifier.QI

# Identifiers of the concrete syntax (``dsl``): names of predicates and
# scenarios. A keyword of the formula grammar is not one (``_RESERVED``).
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")  # \Z: no newline at the end either


class Quant(Interned):
    """A quantified clause: quantifier, restrictor symbol and scope."""

    quantifier: Quantifier
    restrictor: PredicateSym
    scope: PredExpr


class Only(Interned):
    """Overt exhaustivity marker; applies only to a quantified clause."""

    keyword = "only"
    body: "LogicalForm"

    def __post_init__(self):
        if not isinstance(self.body, Quant):
            raise WellFormednessError("only applies to a quantified clause")


class NotLF(Interned):
    """Clausal negation."""

    keyword = "not"
    body: "LogicalForm"


class AndLF(Interned):
    """Clausal conjunction."""

    keyword = "and"
    left: "LogicalForm"
    right: "LogicalForm"


class OrLF(Interned):
    """Clausal disjunction of one or more forms."""

    keyword = "or"
    disjuncts: tuple["LogicalForm", ...]

    def __post_init__(self):
        object.__setattr__(self, "disjuncts", tuple(self.disjuncts))
        if not self.disjuncts:
            raise WellFormednessError("or requires at least one disjunct")


LogicalForm = _FORMS = (Quant, Only, NotLF, AndLF, OrLF)

# The words of the formula grammar: quantifiers and operator keywords.
_RESERVED = {q.value for q in Quantifier} | {
    cls.keyword for cls in PredExpr + _FORMS if cls.keyword
}

# What the engine asks of a node's whole subtree:
# form: a logical form, not a predicate expression or symbol;
# preds: every predicate symbol, restrictors included;
# restrictors: every quantifier restrictor;
# eventive, seq, conc: an eventive predicate, an and-seq, an and-conc occurs.
NodeFacts = namedtuple("NodeFacts", "form preds restrictors eventive seq conc")


def children(node: Interned) -> list[Interned]:
    """The node-valued fields of node in order, a tuple field's members in
    its place: a clause's restrictor and scope, a connective's operands."""
    out = []
    for value in node._fields():
        for child in value if type(value) is tuple else (value,):
            if type(child) in _NODE_CLASSES:  # exact types: isinstance here is slow
                out.append(child)
    return out


def node_facts(node: Interned) -> NodeFacts:
    """The facts of a form, predicate expression or predicate symbol, built
    from its children's facts on the first call for each node and then kept
    on it. Symbols and tuples come in order of occurrence."""
    facts = getattr(node, "_facts", None)
    if facts is not None:
        return facts
    cls = type(node)  # exact-type tests: isinstance on these classes is slow
    if cls is PredicateSym:
        facts = NodeFacts(False, (node,), (), node.temporal_class == EVENTIVE, False, False)
    else:
        # The operands of a connective or operator must be forms; those of a
        # clause or a predicate expression are symbols and expressions.
        child_facts = _form_facts if cls in _FORMS and cls is not Quant else node_facts
        eventive, seq, conc = False, cls is AndSeq, cls is AndConc
        preds, restrictors = (), ((node.restrictor,) if cls is Quant else ())
        for part in map(child_facts, children(node)):
            preds += part.preds
            restrictors += part.restrictors
            eventive = eventive or part.eventive
            seq = seq or part.seq
            conc = conc or part.conc
        facts = NodeFacts(cls in _FORMS, preds, restrictors, eventive, seq, conc)
    object.__setattr__(node, "_facts", facts)
    return facts


def _form_facts(lf: LogicalForm) -> NodeFacts:
    """The facts of lf, which must be a logical form."""
    facts = getattr(lf, "_facts", None)
    if facts is None and isinstance(lf, Interned):
        facts = node_facts(lf)
    if facts is None or not facts.form:
        raise TypeError(f"not a logical form: {lf!r}")
    return facts


def lf_predicates(lf: LogicalForm) -> tuple[PredicateSym, ...]:
    """All predicate symbols occurring in lf, restrictors included."""
    return _form_facts(lf).preds


def existence_premises(lfs: Iterable[LogicalForm]) -> tuple[LogicalForm, ...]:
    """``(some r true)`` for every quantifier restrictor r anywhere in the
    forms, one per name, in name order: the existential import of lfs.
    Built once per tuple of forms, then looked up."""
    lfs = tuple(lfs)
    try:
        return _existence_premises(*lfs)
    except TypeError:
        return _uncached(_existence_premises, lfs)


@lru_cache(maxsize=4096)
def _existence_premises(*lfs: LogicalForm) -> tuple[LogicalForm, ...]:
    restrictors: dict[str, PredicateSym] = {}
    for lf in lfs:
        for r in _form_facts(lf).restrictors:
            restrictors.setdefault(r.name, r)
    return tuple(Quant(SOME, r, TRUE) for _, r in sorted(restrictors.items()))


# ---------------------------------------------------------------------------
# Indefinite-number expansion
# ---------------------------------------------------------------------------


def expand_qi(restrictor: PredicateSym, scope: PredExpr, scale) -> OrLF:
    """Disjunction of scale-mate clauses standing in for the covert
    indefinite-number quantifier.

    The disjuncts are every scale member, ``some`` included, strongest
    first. Every quantifier here is one lexical item, so none is more
    complex than ``some`` and each is a licit stand-in. The pragmatic
    content of the indefinite lives entirely in this expansion; its truth
    conditions are existential. Built once per clause and scale, then
    looked up.
    """
    try:
        return _expand_qi(restrictor, scope, scale)
    except TypeError:
        return _uncached(_expand_qi, (restrictor, scope, scale))


@lru_cache(maxsize=1024)
def _expand_qi(restrictor: PredicateSym, scope: PredExpr, scale) -> OrLF:
    if SOME not in scale.members:
        raise ScaleError("expansion scale must contain 'some'")
    return OrLF(tuple(Quant(q, restrictor, scope) for q in reversed(scale.members)))


def _ask(cached, *args):
    """Answer a query from ``cached``, a cache keyed by all of its
    arguments that checks them only on a miss. An invalid query
    is never cached, so it raises afresh every time. A query with an
    unhashable argument (a list in form position, say) is answered
    uncached, so that the check names the culprit. The front doors of
    the hot memos call their cache directly, so that a hit costs no frame
    of this function, and call ``_uncached`` on a ``TypeError``."""
    try:
        return cached(*args)
    except TypeError:
        return _uncached(cached, args)


def _uncached(cached, args: tuple):
    """Called while the ``TypeError`` that ``cached(*args)`` raised is being
    handled: the uncached answer when args cannot be hashed, since the
    cache raised before the query was checked; otherwise the query itself
    raised, after its one check, and the error is raised again."""
    try:
        hash(args)
    except TypeError:
        return cached.__wrapped__(*args)
    raise
