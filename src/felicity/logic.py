"""Quantified logical forms and their truth conditions over finite models.

This module is the truth-conditional substrate for everything else: a small
AST for predicate expressions and quantified clauses, labeled finite models,
and bounded entailment/consistency checks that act as the oracle for the
pragmatic layers built on top.

The fragment is monadic, and every quantifier in it is invariant under
permutations of the universe. So each individual falls in one of 2**k cells
(which of the k predicates it satisfies), and a model is fixed up to
isomorphism by how many individuals fill each cell. Isomorphic models agree
on every form, so the oracle decides entailment and consistency over these
count vectors (1,287 classes for 3 predicates at bound 5, against 37,449
labeled models) and gives the same answers as a scan of all labeled models
up to the bound. Each form compiles once into a Python-int bitset over the
classes; entailment and consistency are then a few bitwise operations.
``Model``, ``enumerate_models`` and ``evaluate`` remain as the labeled
reference semantics.

Form nodes are hash-consed: building a node equal to a live one returns
that one. Equal nodes are therefore identical, and nodes hash and compare
by identity, so the oracle's caches find a form in O(1) instead of walking
it. ``entails`` and ``consistent`` look their whole sequent up in one
cache, so a repeated sequent costs one lookup; it is validated only on a
miss, and an invalid one raises the same error on every call.
``entails_with_existential_import`` takes two lookups: the existence
premises of its forms come from a cache keyed by the form tuple, and the
extended sequent then goes to ``entails``.
"""

from __future__ import annotations

import _thread
import re
import weakref
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import Enum
from functools import lru_cache, partial
from itertools import product
from math import comb
from operator import attrgetter

DEFAULT_BOUND = 4
BUDGET_BITS = 24

STATIVE = "stative"
EVENTIVE = "eventive"
TEMPORAL_CLASSES = (STATIVE, EVENTIVE)


class FelicityError(Exception):
    """Base class for all engine errors."""


class DeclarationError(FelicityError):
    """A predicate was used without a matching declaration."""


class EpistemicContextRequired(FelicityError):
    """A certainty/possibility operator reached plain model evaluation."""


class ScaleError(FelicityError):
    """A scale is missing, empty, ill-ordered, or lacks a required member."""


class ResourceBudgetError(FelicityError):
    """The requested model space exceeds the enumeration budget."""


class WellFormednessError(FelicityError):
    """A form violates a structural invariant."""


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete a field of an interned value."""


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------

# Live interned values: (class, *field values) -> weak reference to the
# value. An entry goes when its value is no longer referenced. Reads take
# no lock; every write, and the lookup that decides it, holds _TABLE_LOCK,
# so the table never holds two live equal values. The lock is re-entrant:
# a weak-reference callback can run in the thread that holds it.
_INTERNED: dict[tuple, weakref.ref] = {}
_TABLE_LOCK = _thread.RLock()


def _forget(key: tuple, ref: weakref.ref, table: dict = _INTERNED, lock=_TABLE_LOCK):
    # The table and lock are bound as defaults so that they outlive module
    # teardown. The test and the removal are one step under the lock: an
    # entry another thread has just replaced stays.
    with lock:
        if table.get(key) is ref:
            del table[key]


class _Interning(type):
    """Metaclass of ``Interned``: a call returns the live equal value if
    there is one, and builds (and validates) a new value only otherwise."""

    def __call__(cls, *args, **kwargs):
        call = None if kwargs else (cls, *args)
        if call is not None:
            try:
                ref = _INTERNED.get(call)
            except TypeError:  # an unhashable argument, e.g. a list
                call = ref = None
            value = ref() if ref is not None else None
            if value is not None:
                return value
        # Keywords and first calls take this path: build first, then look
        # up by the stored fields. These are the call's arguments when it
        # passed every field and no __post_init__ could rebind one.
        value = super().__call__(*args, **kwargs)
        if call is not None and len(args) == len(cls.__match_args__) and (
            cls.__post_init__ is Interned.__post_init__
        ):
            key = call
        else:
            key = (cls, *value._fields())
        with _TABLE_LOCK:
            ref = _INTERNED.get(key)
            live = ref() if ref is not None else None
            if live is None:
                live = value
                _INTERNED[key] = weakref.ref(value, partial(_forget, key))
            if call is not None and call != key:
                # Omitted defaults, or arguments that __post_init__
                # normalizes: keep this call's key too, so that a repeat is
                # a table hit.
                _INTERNED[call] = weakref.ref(live, partial(_forget, call))
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
    ``__init__`` binds positional, keyword and default arguments, stores
    them and calls ``__post_init__``, which may validate and may rebind
    fields through ``object.__setattr__``. It runs only when the intern
    table has no equal value. Nodes stay plain classes, not tuples: the
    table holds weak references to them.
    """

    __match_args__: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = names = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        cls._fields = _field_getter(names)

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(names, args):
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


TRUE = TruePred()


class NotP(Interned):
    """Predicate negation; denotes the complement in the universe."""

    body: "PredExpr"


class AndConc(Interned):
    """Concurrent predicate conjunction; denotes set intersection."""

    left: "PredExpr"
    right: "PredExpr"


class AndSeq(Interned):
    """Sequenced predicate conjunction: events in order, not an intersection.

    Truth-conditionally an individual must satisfy both conjuncts (the
    ordering itself is not modeled in extensions), but the node is flagged
    non-intersective for reading analysis. Each conjunct must contain at
    least one eventive atom; stative predicates cannot be sequenced.
    """

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

    @property
    def complexity_rank(self) -> int:
        # Single lexical items all share rank 1; QI ranks 1 by stipulation.
        return 1


SOME = Quantifier.SOME
ALL = Quantifier.ALL
MOST = Quantifier.MOST
NO = Quantifier.NO
QI = Quantifier.QI

# Identifiers of the concrete syntax (``dsl``): names of predicates and
# scenarios. A keyword of the formula grammar is not one.
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")  # \Z: no newline at the end either
_RESERVED = {q.value for q in Quantifier} | {
    "true", "not", "and", "or", "only", "and-conc", "and-seq"
}


class Quant(Interned):
    """A quantified clause: quantifier, restrictor symbol and scope."""

    quantifier: Quantifier
    restrictor: PredicateSym
    scope: PredExpr


class Only(Interned):
    """Overt exhaustivity marker; applies only to a quantified clause."""

    body: "LogicalForm"

    def __post_init__(self):
        if not isinstance(self.body, Quant):
            raise WellFormednessError("only applies to a quantified clause")


class NotLF(Interned):
    """Clausal negation."""

    body: "LogicalForm"


class AndLF(Interned):
    """Clausal conjunction."""

    left: "LogicalForm"
    right: "LogicalForm"


class OrLF(Interned):
    """Clausal disjunction of one or more forms."""

    disjuncts: tuple["LogicalForm", ...]

    def __post_init__(self):
        object.__setattr__(self, "disjuncts", tuple(self.disjuncts))
        if not self.disjuncts:
            raise WellFormednessError("or requires at least one disjunct")


class Know(Interned):
    """Certainty operator over the context's worlds; opaque to plain eval."""

    body: "LogicalForm"


class Poss(Interned):
    """Possibility operator, the dual of Know."""

    body: "LogicalForm"


LogicalForm = _FORMS = (Quant, Only, NotLF, AndLF, OrLF, Know, Poss)

# What the engine asks of a node's whole subtree:
# form: a logical form, not a predicate expression or symbol;
# epistemic_free: no know or poss;
# preds: every predicate symbol, restrictors included;
# restrictors: every quantifier restrictor;
# eventive, seq, conc: an eventive predicate, an and-seq, an and-conc occurs.
NodeFacts = namedtuple("NodeFacts", "form epistemic_free preds restrictors eventive seq conc")


def node_facts(node: Interned) -> NodeFacts:
    """The facts of a form, predicate expression or predicate symbol, built
    from its children's facts on the first call for each node and then kept
    on it. Symbols and tuples come in order of occurrence."""
    facts = getattr(node, "_facts", None)
    if facts is not None:
        return facts
    cls = type(node)  # exact-type tests: isinstance on these classes is slow
    if cls is PredicateSym:
        facts = NodeFacts(False, True, (node,), (), node.temporal_class == EVENTIVE, False, False)
    else:
        # The operands of a connective or operator must be forms; those of a
        # clause or a predicate expression are symbols and expressions.
        takes_forms = cls in _FORMS and cls is not Quant
        free = cls is not Know and cls is not Poss
        eventive, seq, conc = False, cls is AndSeq, cls is AndConc
        preds, restrictors = (), ((node.restrictor,) if cls is Quant else ())
        for value in node._fields():
            for child in value if isinstance(value, tuple) else (value,):
                if takes_forms:
                    part = _form_facts(child)
                elif isinstance(child, Interned):
                    part = node_facts(child)
                else:
                    continue
                free = free and part.epistemic_free
                preds += part.preds
                restrictors += part.restrictors
                eventive = eventive or part.eventive
                seq = seq or part.seq
                conc = conc or part.conc
        facts = NodeFacts(cls in _FORMS, free, preds, restrictors, eventive, seq, conc)
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


def is_epistemic_free(lf: LogicalForm) -> bool:
    return _form_facts(lf).epistemic_free


def lf_predicates(lf: LogicalForm) -> tuple[PredicateSym, ...]:
    """All predicate symbols occurring in lf, restrictors included."""
    return _form_facts(lf).preds


def existence_premises(lfs: Iterable[LogicalForm]) -> tuple[LogicalForm, ...]:
    """``(some r true)`` for every quantifier restrictor r anywhere in the
    forms, one per name, in name order: the existential import of lfs.
    Built once per tuple of forms, then looked up."""
    return _ask(_existence_premises, tuple(lfs))


@lru_cache(maxsize=4096)
def _existence_premises(lfs: tuple[LogicalForm, ...]) -> tuple[LogicalForm, ...]:
    restrictors: dict[str, PredicateSym] = {}
    for lf in lfs:
        for r in _form_facts(lf).restrictors:
            restrictors.setdefault(r.name, r)
    return tuple(Quant(SOME, r, TRUE) for _, r in sorted(restrictors.items()))


def is_intersective_conjunction(p: PredExpr) -> bool:
    """False iff p contains a sequenced conjunction anywhere.

    Sequenced events are not commutative, so a scope containing and-seq does
    not denote an intersection and supports no concurrent-situation reading.
    """
    return not node_facts(p).seq


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


class Model:
    """A finite labeled universe plus an extension for each declared predicate.

    Extensions are stored as bitmasks over the universe ordering; the
    ``extensions`` property materializes them as frozensets on demand.
    """

    __slots__ = ("universe", "_index", "_masks")

    def __init__(self, universe: Sequence[str], extensions: Mapping[str, Iterable[str]]):
        self.universe: tuple[str, ...] = tuple(universe)
        self._index = {x: i for i, x in enumerate(self.universe)}
        if len(self._index) != len(self.universe):
            raise WellFormednessError("universe labels must be distinct")
        masks: dict[str, int] = {}
        for name, members in extensions.items():
            mask = 0
            for x in members:
                if x not in self._index:
                    raise DeclarationError(
                        f"extension of {name!r} contains {x!r}, not a universe member"
                    )
                mask |= 1 << self._index[x]
            masks[name] = mask
        self._masks = masks

    @classmethod
    def _from_masks(cls, universe: tuple[str, ...], masks: dict[str, int]) -> "Model":
        m = object.__new__(cls)
        m.universe = universe
        m._index = {x: i for i, x in enumerate(universe)}
        m._masks = masks
        return m

    @property
    def full_mask(self) -> int:
        return (1 << len(self.universe)) - 1

    def mask(self, name: str) -> int:
        try:
            return self._masks[name]
        except KeyError:
            raise DeclarationError(f"predicate {name!r} has no extension in this model") from None

    def extension(self, name: str) -> frozenset[str]:
        mask = self.mask(name)
        return frozenset(x for x in self.universe if mask & (1 << self._index[x]))

    @property
    def extensions(self) -> dict[str, frozenset[str]]:
        return {name: self.extension(name) for name in self._masks}

    def predicates(self) -> tuple[str, ...]:
        return tuple(self._masks)

    def __eq__(self, other):
        if not isinstance(other, Model):
            return NotImplemented
        return self.universe == other.universe and self._masks == other._masks

    def __hash__(self):
        return hash((self.universe, tuple(sorted(self._masks.items()))))

    def __repr__(self):
        exts = ", ".join(f"{k}={set(v) or '{}'}" for k, v in sorted(self.extensions.items()))
        return f"Model(universe={list(self.universe)}, {exts})"


def check_budget(bound: int, n_preds: int):
    """Reject a model space of more than ``2**BUDGET_BITS`` labeled models of
    the largest size, i.e. ``bound * n_preds > BUDGET_BITS``; the 24-bit budget is fixed."""
    if bound * n_preds > BUDGET_BITS:
        raise ResourceBudgetError(
            f"bound {bound} x {n_preds} predicates exceeds the"
            f" {BUDGET_BITS}-bit enumeration budget"
        )


def _universe_labels(n: int) -> tuple[str, ...]:
    if n <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:n])
    return tuple(f"x{i + 1}" for i in range(n))


def enumerate_models(preds: Sequence[PredicateSym], max_universe: int) -> Iterator[Model]:
    """Yield every model with universe size 0..max_universe.

    For a fixed size n and k predicates there are 2**(n*k) models. The
    enumeration order is deterministic: sizes ascending, then extension
    assignments in binary counting order with the last predicate varying
    fastest.
    """
    if max_universe < 0:
        raise ValueError("max_universe must be >= 0")
    _check_names(preds)
    check_budget(max_universe, len(preds))
    names = [p.name for p in preds]
    for n in range(max_universe + 1):
        universe = _universe_labels(n)
        for assignment in product(range(1 << n), repeat=len(names)):
            yield Model._from_masks(universe, dict(zip(names, assignment)))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_pexpr(p: PredExpr, m: Model, x: str) -> bool:
    """Truth of a predicate expression at individual x.

    and-seq evaluates like a conjunction here: the individual did both, in
    order. The ordering itself lives at the reading level (see
    is_intersective_conjunction), not in extensions.
    """
    if x not in m._index:
        raise DeclarationError(f"{x!r} is not a member of the universe")
    bit = 1 << m._index[x]
    return bool(_pexpr_mask(p, m) & bit)


def _pexpr_mask(p: PredExpr, m: Model) -> int:
    if isinstance(p, Atom):
        return m.mask(p.pred.name)
    if isinstance(p, TruePred):
        return m.full_mask
    if isinstance(p, NotP):
        return m.full_mask & ~_pexpr_mask(p.body, m)
    if isinstance(p, (AndConc, AndSeq)):
        return _pexpr_mask(p.left, m) & _pexpr_mask(p.right, m)
    raise TypeError(f"not a predicate expression: {p!r}")


def evaluate(lf: LogicalForm, m: Model, scales: "ScaleRegistry | None" = None) -> bool:
    """Classical truth of an epistemic-free logical form in a single model.

    Quantifiers: some/qi nonempty intersection, all inclusion (vacuously true
    on an empty restrictor), most strict majority (|A&B| > |A-B|), no empty
    intersection. only(q-clause) is true iff the prejacent is true and every
    strictly stronger scale-mate of q is false.
    """
    if isinstance(lf, Quant):
        a = m.mask(lf.restrictor.name)
        b = _pexpr_mask(lf.scope, m)
        q = lf.quantifier
        if q in (SOME, QI):
            return bool(a & b)
        if q is ALL:
            return not (a & ~b)
        if q is MOST:
            return (a & b).bit_count() > (a & ~b).bit_count()
        if q is NO:
            return not (a & b)
        raise ScaleError(f"quantifier {q} has no truth conditions")
    if isinstance(lf, Only):
        body = lf.body
        scale = scales.scale_for(body.quantifier) if scales is not None else None
        if scale is None:
            raise ScaleError(
                f"only requires {body.quantifier.value!r} to belong to a declared scale"
            )
        if not evaluate(body, m, scales):
            return False
        return not any(
            evaluate(Quant(q, body.restrictor, body.scope), m, scales)
            for q in scale.stronger_mates(body.quantifier)
        )
    if isinstance(lf, NotLF):
        return not evaluate(lf.body, m, scales)
    if isinstance(lf, AndLF):
        return evaluate(lf.left, m, scales) and evaluate(lf.right, m, scales)
    if isinstance(lf, OrLF):
        return any(evaluate(d, m, scales) for d in lf.disjuncts)
    if isinstance(lf, (Know, Poss)):
        raise EpistemicContextRequired(
            "know/poss cannot be evaluated against a single model; use an epistemic context"
        )
    raise TypeError(f"not a logical form: {lf!r}")


# ---------------------------------------------------------------------------
# Isomorphism classes of models
# ---------------------------------------------------------------------------

# Largest space, in cells x classes, for which _classes builds its table.
# The table itself holds bound + 1 rows per cell, so the largest one kept
# (6 predicates at bound 4: 64 cells x 5 counts x 814,385 classes) takes
# about 31 MB. Spaces within the enumeration budget past this limit (14
# predicates at bound 1, 10 at bound 2, 8 at bound 3) would need up to
# gigabytes; they go without a table, and each quantifier walks the classes
# instead.
MAX_TABLE_BITS = 1 << 27


def _count_vectors(cells: int, bound: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every way to put at most ``bound`` individuals into ``cells`` cells.

    A vector is given by the (cell, count) pairs of its non-empty cells, in
    ascending cell order. Vectors come in lexicographic order of their full
    counts (n_0, ..., n_{cells-1}), the order ``_classes`` builds its table
    in: vector i is the class at bit i of every class bitset.
    """

    def fill(first: int, left: int):
        yield ()
        if left:
            # Earlier cells vary slowest, so a vector whose first non-empty
            # cell comes later sorts first.
            for cell in reversed(range(first, cells)):
                for count in range(1, left + 1):
                    for rest in fill(cell + 1, left - count):
                        yield ((cell, count),) + rest

    return fill(0, bound)


@lru_cache(maxsize=8)
def _classes(k: int, bound: int) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """The isomorphism classes of models over k predicates with at most
    ``bound`` individuals.

    Cell c holds the individuals that satisfy exactly the predicates whose
    bit is set in c. Returns the bitset of all classes and the per-cell
    table: ``rows[c][m]`` is the bitset of the classes in which cell c holds
    exactly m individuals, for m = 0..bound (None when cells x classes would
    exceed MAX_TABLE_BITS).

    In the order of ``_count_vectors``, the classes that agree on cells
    0..c-1 form a contiguous block, and cell c's count splits that block
    into contiguous sub-blocks, one per count. So the table is built a cell
    at a time from the start positions of the blocks, grouped by how many
    individuals the earlier cells hold, with a few shifts per block group
    and no visit to any single class.
    """
    cells = 1 << k
    n = comb(cells + bound, bound)
    if n * cells > MAX_TABLE_BITS:
        return (1 << n) - 1, None
    rows = []
    # starts[s] marks the first class of every block whose cells before c
    # hold s individuals in all.
    starts = {0: 1}
    for c in range(cells):
        later = cells - c - 1
        row = [0] * (bound + 1)
        split: dict[int, int] = {}
        for s, first in starts.items():
            offset = 0
            for m in range(bound - s + 1):
                size = comb(later + bound - s - m, later)
                sub = first << offset
                row[m] |= (sub << size) - sub  # size ones from each start
                split[s + m] = split.get(s + m, 0) | sub
                offset += size
        rows.append(tuple(row))
        starts = split
    return (1 << n) - 1, tuple(rows)


def _check_names(preds: Sequence[PredicateSym]):
    names = [p.name for p in preds]
    if len(set(names)) != len(names):
        raise WellFormednessError(f"duplicate predicate names in {names}")


def _cells(p: PredExpr, preds: tuple[PredicateSym, ...]) -> int:
    """The cells whose individuals satisfy p, as a bitmask over the cells."""
    cells = 1 << len(preds)
    if isinstance(p, Atom):
        # Cell c satisfies predicate j iff bit j of c is set: runs of 2**j
        # zeros then 2**j ones, doubled up to the full width.
        run = 1 << [q.name for q in preds].index(p.pred.name)
        mask, width = ((1 << run) - 1) << run, 2 * run
        while width < cells:
            mask |= mask << width
            width *= 2
        return mask
    if isinstance(p, TruePred):
        return (1 << cells) - 1
    if isinstance(p, NotP):
        return ((1 << cells) - 1) & ~_cells(p.body, preds)
    if isinstance(p, (AndConc, AndSeq)):
        return _cells(p.left, preds) & _cells(p.right, preds)
    raise TypeError(f"not a predicate expression: {p!r}")


def _more(yes: int, no: int, k: int, bound: int) -> int:
    """The classes in which the cells of ``yes`` hold more individuals than
    the cells of ``no``; with ``no`` empty, those where ``yes`` is occupied."""
    full, rows = _classes(k, bound)
    if rows is not None:
        if not no:
            empty = full
            for cell in _bits(yes):
                empty &= rows[cell][0]
            return full & ~empty
        # margins[d]: the classes in which the cells folded in so far hold d
        # more individuals on the yes side than on the no side.
        margins = {0: full}
        for cell, sign in [(c, 1) for c in _bits(yes)] + [(c, -1) for c in _bits(no)]:
            folded: dict[int, int] = {}
            for d, classes in margins.items():
                for m, row in enumerate(rows[cell]):
                    piece = classes & row
                    if piece:
                        folded[d + sign * m] = folded.get(d + sign * m, 0) | piece
            margins = folded
        out = 0
        for d, classes in margins.items():
            if d > 0:
                out |= classes
        return out
    cells = 1 << k
    # Digit c of these strings says whether cell c is in the set.
    in_yes = format(yes, f"0{cells}b")[::-1]
    in_no = format(no, f"0{cells}b")[::-1]
    out = bytearray((full.bit_length() + 7) >> 3)
    for i, vector in enumerate(_count_vectors(cells, bound)):
        margin = 0
        for cell, count in vector:
            if in_yes[cell] == "1":
                margin += count
            elif in_no[cell] == "1":
                margin -= count
        if margin > 0:
            out[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(out, "little")


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@lru_cache(maxsize=1024)
def _truth(
    lf: LogicalForm,
    preds: tuple[PredicateSym, ...],
    bound: int,
    scales: "ScaleRegistry | None",
) -> int:
    """The classes (see ``_classes``) in which an epistemic-free lf is true,
    with the truth conditions of ``evaluate``."""
    k = len(preds)
    full = _classes(k, bound)[0]
    if isinstance(lf, Quant):
        a = _cells(Atom(lf.restrictor), preds)
        b = _cells(lf.scope, preds)
        q = lf.quantifier
        if q in (SOME, QI):
            return _more(a & b, 0, k, bound)
        if q is ALL:
            return full & ~_more(a & ~b, 0, k, bound)
        if q is MOST:
            return _more(a & b, a & ~b, k, bound)
        if q is NO:
            return full & ~_more(a & b, 0, k, bound)
        raise ScaleError(f"quantifier {q} has no truth conditions")
    if isinstance(lf, Only):
        body = lf.body
        scale = scales.scale_for(body.quantifier) if scales is not None else None
        if scale is None:
            raise ScaleError(
                f"only requires {body.quantifier.value!r} to belong to a declared scale"
            )
        out = _truth(body, preds, bound, scales)
        for q in scale.stronger_mates(body.quantifier):
            out &= ~_truth(Quant(q, body.restrictor, body.scope), preds, bound, scales)
        return out
    if isinstance(lf, NotLF):
        return full & ~_truth(lf.body, preds, bound, scales)
    if isinstance(lf, AndLF):
        return _truth(lf.left, preds, bound, scales) & _truth(lf.right, preds, bound, scales)
    if isinstance(lf, OrLF):
        out = 0
        for d in lf.disjuncts:
            out |= _truth(d, preds, bound, scales)
        return out
    if isinstance(lf, (Know, Poss)):
        raise EpistemicContextRequired(
            "know/poss cannot be evaluated against a single model; use an epistemic context"
        )
    raise TypeError(f"not a logical form: {lf!r}")


# ---------------------------------------------------------------------------
# Bounded entailment and consistency
# ---------------------------------------------------------------------------


def _check_sequents(lfs: tuple[LogicalForm, ...], preds: tuple[PredicateSym, ...], bound: int):
    if bound < 1:
        raise ValueError("bound must be >= 1")
    declared = {p.name for p in preds}
    for lf in lfs:
        facts = _form_facts(lf)
        if not facts.epistemic_free:
            raise EpistemicContextRequired(
                "entailment and consistency are defined for epistemic-free forms"
            )
        used = {p.name for p in facts.preds}
        if not used <= declared:
            raise DeclarationError(
                f"undeclared predicates {sorted(used - declared)} in {lf!r}"
            )
    check_budget(bound, len(preds))
    _check_names(preds)


def _ask(cached, *args):
    """Answer a query from ``cached``, a cache keyed by all of its
    arguments that validates them only on a miss. An invalid query
    is never cached, so it raises afresh every time. A query with an
    unhashable argument (a list in form position, say) is answered
    uncached, so that validation names the culprit."""
    try:
        return cached(*args)
    except TypeError:
        try:
            hash(args)
        except TypeError:
            return cached.__wrapped__(*args)
        raise


@lru_cache(maxsize=16384)
def _entails(
    premises: tuple[LogicalForm, ...],
    conclusion: LogicalForm,
    preds: tuple[PredicateSym, ...],
    bound: int,
    scales: "ScaleRegistry | None",
) -> bool:
    _check_sequents(premises + (conclusion,), preds, bound)
    models = _classes(len(preds), bound)[0]
    for p in premises:
        models &= _truth(p, preds, bound, scales)
    return not (models & ~_truth(conclusion, preds, bound, scales))


@lru_cache(maxsize=16384)
def _consistent(
    lfs: tuple[LogicalForm, ...],
    preds: tuple[PredicateSym, ...],
    bound: int,
    scales: "ScaleRegistry | None",
) -> bool:
    _check_sequents(lfs, preds, bound)
    models = _classes(len(preds), bound)[0]
    for lf in lfs:
        models &= _truth(lf, preds, bound, scales)
    return models != 0


def entails(
    premises: Sequence[LogicalForm],
    conclusion: LogicalForm,
    preds: Sequence[PredicateSym],
    bound: int = DEFAULT_BOUND,
    scales: "ScaleRegistry | None" = None,
) -> bool:
    """True iff no model of size <= bound satisfies all premises and
    falsifies the conclusion."""
    return _ask(_entails, tuple(premises), conclusion, tuple(preds), bound, scales)


def consistent(
    lfs: Sequence[LogicalForm],
    preds: Sequence[PredicateSym],
    bound: int = DEFAULT_BOUND,
    scales: "ScaleRegistry | None" = None,
) -> bool:
    """True iff some model of size <= bound satisfies every member."""
    return _ask(_consistent, tuple(lfs), tuple(preds), bound, scales)


def entails_with_existential_import(
    premises: Sequence[LogicalForm],
    conclusion: LogicalForm,
    preds: Sequence[PredicateSym],
    bound: int = DEFAULT_BOUND,
    scales: "ScaleRegistry | None" = None,
) -> bool:
    """Bounded entailment assuming every quantifier restrictor is nonempty.

    Scale strength (all > most > some) only holds on nonempty restrictors;
    a vacuously true universal otherwise breaks the ordering. Every strength
    comparison between scale-mates goes through this variant.
    """
    existence = existence_premises((*premises, conclusion))
    return entails((*premises, *existence), conclusion, preds, bound, scales)


# ---------------------------------------------------------------------------
# Indefinite-number expansion
# ---------------------------------------------------------------------------


def expand_qi(restrictor: PredicateSym, scope: PredExpr, scale) -> OrLF:
    """Disjunction of scale-mate clauses standing in for the covert
    indefinite-number quantifier.

    The disjuncts are every scale member at most as complex as ``some``
    (including ``some`` itself), strongest first. The pragmatic content of
    the indefinite lives entirely in this expansion; its truth conditions
    are existential.
    """
    members = tuple(scale.members)
    if not members:
        raise ScaleError("cannot expand over an empty scale")
    if SOME not in members:
        raise ScaleError("expansion scale must contain 'some'")
    cap = scale.rank_of(SOME)
    qs = [q for q in reversed(members) if scale.rank_of(q) <= cap]
    return OrLF(tuple(Quant(q, restrictor, scope) for q in qs))
