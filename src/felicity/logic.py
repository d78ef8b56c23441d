"""Truth conditions of logical forms over finite models, and the oracle.

This module is the truth-conditional substrate for everything else:
labeled finite models, and bounded entailment/consistency checks that act
as the oracle for the pragmatic layers built on top. The forms themselves,
hash-consed nodes that compare by identity, come from ``syntax``.

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

``entails`` and ``consistent`` look their whole sequent up in one cache,
so a repeated sequent costs one lookup. A miss looks its model space up in
a cache that checks each space once (the budget, then the names) and holds
each predicate's cell mask. It then combines the forms' cached truth
bitsets, whose building checks each form; the forms are walked for their
faults only when that fails. A clause's bitset depends only on its
quantifier and the cells of its restrictor and scope, and is cached under
those, so clauses over other names, another predicate order or another
scenario share it. An invalid sequent or space is never cached, and it
raises the same error on every call. ``entails_with_existential_import``
takes two lookups: the existence premises of its forms come from a cache
keyed by the forms, and the extended sequent then goes to ``entails``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from itertools import product
from math import comb

from .syntax import (
    ALL,
    AndConc,
    AndLF,
    AndSeq,
    Atom,
    DeclarationError,
    LogicalForm,
    MOST,
    NO,
    NotLF,
    NotP,
    Only,
    OrLF,
    PredExpr,
    PredicateSym,
    QI,
    Quant,
    Quantifier,
    ResourceBudgetError,
    ScaleError,
    SOME,
    TruePred,
    WellFormednessError,
    _ask,
    _form_facts,
    _uncached,
    existence_premises,
)

DEFAULT_BOUND = 4
BUDGET_BITS = 24

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
    the largest size, i.e. ``bound * n_preds > BUDGET_BITS``; the 24-bit budget
    is fixed. Zero predicates count as one, so no universe exceeds 24
    individuals."""
    if bound * max(n_preds, 1) > BUDGET_BITS:
        raise ResourceBudgetError(
            f"bound {bound} x {n_preds} predicates exceeds the"
            f" {BUDGET_BITS}-bit enumeration budget"
        )


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
        universe = tuple("abcdefghijklmnopqrstuvwxyz"[:n])
        for assignment in product(range(1 << n), repeat=len(names)):
            yield Model._from_masks(universe, dict(zip(names, assignment)))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _pexpr_mask(p: PredExpr, m: Model) -> int:
    """The individuals of m that satisfy p, as a bitmask over its universe.
    and-seq denotes an intersection here: the individual did both, in
    order. The ordering itself lives at the reading level, not in extensions.
    """
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
    """Classical truth of a logical form in a single model.

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


@lru_cache(maxsize=256)
def _space(preds: tuple[PredicateSym, ...], bound: int) -> dict[str, int]:
    """Each predicate's cell mask, by name, once the space passes its
    checks: the budget, then the names. An entry holds k masks of 2**k bits
    (at most 48 MB: 24 predicates at bound 1) and nothing of ``_classes``'s
    table."""
    check_budget(bound, len(preds))
    _check_names(preds)
    cells = 1 << len(preds)
    masks = {}
    for j, p in enumerate(preds):
        # Cell c satisfies predicate j iff bit j of c is set: runs of 2**j
        # zeros then 2**j ones, doubled up to the full width.
        run = 1 << j
        mask, width = ((1 << run) - 1) << run, 2 * run
        while width < cells:
            mask |= mask << width
            width *= 2
        masks[p.name] = mask
    return masks


def _cells(p: PredExpr, masks: dict[str, int]) -> int:
    """The cells whose individuals satisfy p, as a bitmask over the cells;
    masks comes from ``_space``. Exact types, as ``_truth`` tests them."""
    cls = type(p)
    if cls is Atom:
        return masks[p.pred.name]
    if cls is TruePred:
        return (1 << (1 << len(masks))) - 1
    if cls is NotP:
        return ((1 << (1 << len(masks))) - 1) & ~_cells(p.body, masks)
    if cls is AndConc or cls is AndSeq:
        return _cells(p.left, masks) & _cells(p.right, masks)
    raise TypeError(f"not a predicate expression: {p!r}")


@lru_cache(maxsize=1024)
def _quant(q: Quantifier, a: int, b: int, k: int, bound: int) -> int:
    """The classes in which q of the cells ``a`` are in the cells ``b``.
    Clauses whose cells agree share it, whatever their names, predicate
    order or scenario. An entry holds a bit per class, up to ~100 KB with a
    table (6 predicates at bound 4) and ~360 KB without (8 at bound 3)."""
    if q in (SOME, QI):
        return _more(a & b, 0, k, bound)
    if q is MOST:
        return _more(a & b, a & ~b, k, bound)
    full = _classes(k, bound)[0]
    if q is ALL:
        return full & ~_more(a & ~b, 0, k, bound)
    if q is NO:
        return full & ~_more(a & b, 0, k, bound)
    raise ScaleError(f"quantifier {q} has no truth conditions")


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
    """The classes (see ``_classes``) in which lf is true, with the truth
    conditions of ``evaluate``. Raises for anything ``node_facts`` does not
    count as a form, a subclass of a form class included, since a query's
    forms are checked only when this raises."""
    k = len(preds)
    cls = type(lf)
    if cls is Quant or cls is Only:
        body, mates = lf, ()
        if cls is Only:
            body = lf.body
            scale = scales.scale_for(body.quantifier) if scales is not None else None
            if scale is None:
                raise ScaleError(
                    f"only requires {body.quantifier.value!r} to belong to a declared scale"
                )
            if type(body) is not Quant:
                raise TypeError(f"not a logical form: {body!r}")
            mates = scale.stronger_mates(body.quantifier)
        masks = _space(preds, bound)
        a, b = masks[body.restrictor.name], _cells(body.scope, masks)
        out = _quant(body.quantifier, a, b, k, bound)
        for q in mates:  # only: every stronger scale-mate is false
            out &= ~_quant(q, a, b, k, bound)
        return out
    if cls is NotLF:
        return _classes(k, bound)[0] & ~_truth(lf.body, preds, bound, scales)
    if cls is AndLF:
        return _truth(lf.left, preds, bound, scales) & _truth(lf.right, preds, bound, scales)
    if cls is OrLF:
        out = 0
        for d in lf.disjuncts:
            out |= _truth(d, preds, bound, scales)
        return out
    raise TypeError(f"not a logical form: {lf!r}")


# ---------------------------------------------------------------------------
# Bounded entailment and consistency
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32768)
def _satisfiable(
    preds: tuple[PredicateSym, ...],
    bound: int,
    scales: "ScaleRegistry | None",
    n_fails: int,
    *forms: LogicalForm,
) -> bool:
    """True iff some class (see ``_classes``) makes the last ``n_fails``
    forms false and every other form true. The arguments are the whole
    cache key, with no tuple of forms inside it.

    Only the model space is checked up front. The forms are checked by
    their bitsets: ``_truth`` and ``_cells`` visit every node and atom, and
    raise on a non-form or an undeclared name. When anything raises, the
    whole query is checked in a fixed order, so it fails with its first
    fault: a bound below 1, then each form in turn (not a form, or an
    undeclared predicate), then the budget, then a repeated name.

    A space without a table (see ``_classes``) is projected: the query is
    decided over the declared predicates that its forms mention, in
    declared order. The fragment is monadic, so a model over those extends
    to the declared ones (the others empty) and the answer is the same."""
    try:
        if bound < 1:
            raise ValueError("bound must be >= 1")
        _ask(_space, preds, bound)
        space = preds
        models, rows = _classes(len(preds), bound)
        if rows is None:
            mentioned = {p.name for lf in forms for p in _form_facts(lf).preds}
            space = tuple(p for p in preds if p.name in mentioned)
            models = _classes(len(space), bound)[0]
        split = len(forms) - n_fails
        for lf in forms[:split]:
            models &= _truth(lf, space, bound, scales)
        for lf in forms[split:]:
            models &= ~_truth(lf, space, bound, scales)
    except Exception:
        # Whatever raised, a form's fault comes first unless the bound's
        # does; a bound that cannot be compared raises here as it did above.
        if not bound < 1:
            _check_forms(forms, preds)
        raise
    return models != 0


def _check_forms(lfs: tuple, preds: tuple[PredicateSym, ...]):
    """Raise for the first of lfs that is not a logical form or uses a
    predicate that preds does not declare."""
    declared = {p.name for p in preds}
    for lf in lfs:
        used = {p.name for p in _form_facts(lf).preds}
        if not used <= declared:
            raise DeclarationError(
                f"undeclared predicates {sorted(used - declared)} in {lf!r}"
            )


def entails(
    premises: Sequence[LogicalForm],
    conclusion: LogicalForm,
    preds: Sequence[PredicateSym],
    bound: int = DEFAULT_BOUND,
    scales: "ScaleRegistry | None" = None,
) -> bool:
    """True iff no model of size <= bound satisfies all premises and
    falsifies the conclusion."""
    try:
        return not _satisfiable(tuple(preds), bound, scales, 1, *premises, conclusion)
    except TypeError:
        return not _uncached(_satisfiable, (tuple(preds), bound, scales, 1, *premises, conclusion))


def consistent(
    lfs: Sequence[LogicalForm],
    preds: Sequence[PredicateSym],
    bound: int = DEFAULT_BOUND,
    scales: "ScaleRegistry | None" = None,
) -> bool:
    """True iff some model of size <= bound satisfies every member."""
    try:
        return _satisfiable(tuple(preds), bound, scales, 0, *lfs)
    except TypeError:
        return _uncached(_satisfiable, (tuple(preds), bound, scales, 0, *lfs))


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

