"""Reference oracle: bounded entailment and consistency over count vectors.

It shares no code with ``felicity.logic``. Formulas arrive as the canonical
text the engine prints (trace steps, reports), are read by the small
s-expression reader below, and are evaluated over every world up to
isomorphism: a world is how many individuals fill each of the 2**k cells
of k predicates, with the total at most the bound. Every quantifier of the
fragment is permutation-invariant, so a count vector decides the same
truths as every labeled model it stands for, and the two oracles must agree.
It is plain Python: at the bounds the benchmark uses there are at most a
few thousand worlds, and a formula's truth is one int with a bit per world.
"""

from __future__ import annotations

QUANTIFIERS = ("some", "all", "most", "no", "qi")


def read(text: str):
    """Nested lists of atoms from one s-expression."""
    stack: list[list] = [[]]
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"not one s-expression: {text!r}")
    return stack[0][0]


def write(node) -> str:
    """Canonical text of a node read by ``read``."""
    if isinstance(node, str):
        return node
    return "(" + " ".join(write(n) for n in node) + ")"


def restrictors(node) -> set[str]:
    """Restrictor predicates of every quantified clause in a formula."""
    head = node[0]
    if head in QUANTIFIERS:
        return {node[1]}
    out: set[str] = set()
    for sub in node[1:]:
        out |= restrictors(sub)
    return out


def _count_vectors(cells: int, bound: int):
    if cells == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _count_vectors(cells - 1, bound - first):
            yield (first,) + rest


def _bits(flags) -> int:
    """An int whose bit i is set exactly when flags[i] is true."""
    return int("".join("1" if f else "0" for f in reversed(flags)) or "0", 2)


class Reference:
    """Truth of formulas in every count-vector world of a signature.

    A truth is an int with one bit per world. ``scales`` lists each scale
    weakest first, as quantifier names; it is needed only to read ``only``.
    """

    def __init__(self, preds, bound: int, scales, worlds=None):
        self.preds = tuple(preds)
        self.cells = 1 << len(self.preds)
        if worlds is None:
            worlds = list(_count_vectors(self.cells, bound))
        self.worlds = [tuple(w) for w in worlds]
        self.everywhere = (1 << len(self.worlds)) - 1
        # A predicate expression denotes a set of cells, kept as a bit mask.
        self._atom = {p: sum(1 << c for c in range(self.cells) if c >> i & 1)
                      for i, p in enumerate(self.preds)}
        self._all_cells = (1 << self.cells) - 1
        self._mates = {}
        for scale in scales:
            for i, q in enumerate(scale):
                self._mates[q] = tuple(scale[i + 1 :])
        self._counts: dict[int, list[int]] = {}
        self._truth: dict[str, int] = {}

    @classmethod
    def single_world(cls, preds, cell_counts, scales) -> "Reference":
        """An evaluator over one world, given as a count per cell."""
        return cls(preds, sum(cell_counts), scales, worlds=[tuple(cell_counts)])

    def _cells(self, p) -> int:
        if isinstance(p, str):
            return self._all_cells if p == "true" else self._atom[p]
        head = p[0]
        if head == "not":
            return self._all_cells & ~self._cells(p[1])
        if head in ("and-conc", "and-seq"):
            return self._cells(p[1]) & self._cells(p[2])
        raise ValueError(f"not a predicate expression: {write(p)}")

    def _count(self, mask: int) -> list[int]:
        """How many individuals fill the cells of ``mask``, per world."""
        hit = self._counts.get(mask)
        if hit is None:
            cells = [c for c in range(self.cells) if mask >> c & 1]
            hit = self._counts[mask] = [sum(w[c] for c in cells) for w in self.worlds]
        return hit

    def _quant(self, q: str, r: str, scope) -> int:
        a = self._atom[r]
        s = self._cells(scope)
        inside, outside = self._count(a & s), self._count(a & ~s)
        if q in ("some", "qi"):
            return _bits([i > 0 for i in inside])
        if q == "all":
            return _bits([o == 0 for o in outside])
        if q == "most":
            return _bits([i > o for i, o in zip(inside, outside)])
        if q == "no":
            return _bits([i == 0 for i in inside])
        raise ValueError(f"unknown quantifier {q!r}")

    def _eval(self, node) -> int:
        head = node[0]
        if head in QUANTIFIERS:
            return self._quant(head, node[1], node[2])
        if head == "only":
            q, r, scope = node[1]
            if q not in self._mates:
                raise ValueError(f"only over {q!r}, which is on no scale")
            out = self._quant(q, r, scope)
            for mate in self._mates[q]:
                out &= ~self._quant(mate, r, scope)
            return out
        if head == "not":
            return self.everywhere & ~self.truth(node[1])
        if head == "and":
            return self.truth(node[1]) & self.truth(node[2])
        if head == "or":
            out = 0
            for d in node[1:]:
                out |= self.truth(d)
            return out
        raise ValueError(f"not a logical form: {write(node)}")

    def truth(self, form) -> int:
        """Truth of a formula (text or read node): bit i for world i."""
        text = form if isinstance(form, str) else write(form)
        hit = self._truth.get(text)
        if hit is None:
            hit = self._truth[text] = self._eval(read(form) if isinstance(form, str) else form)
        return hit

    def holds(self, form) -> bool:
        """Truth in the only world of a single-world evaluator."""
        return bool(self.truth(form) & 1)

    def consistent(self, forms) -> bool:
        out = self.everywhere
        for f in forms:
            out &= self.truth(f)
        return out != 0

    def entails(self, premises, conclusion, existential_import: bool = False) -> bool:
        premises = list(premises)
        if existential_import:
            names: set[str] = set()
            for f in premises + [conclusion]:
                names |= restrictors(read(f) if isinstance(f, str) else f)
            premises += [f"(some {r} true)" for r in sorted(names)]
        return not self.consistent(premises + [["not", conclusion]])
