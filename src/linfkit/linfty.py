"""L-infinity[1]-algebras and morphisms at arity truncation.

Operations l_k (k >= 0) have degree +1 and are graded symmetric; the
curvature l_0 is a single degree-1 element.  Morphism components f_k
(k >= 1) have degree 0; the curved component f_0 is deliberately not
supported.  Structure constants are stored on canonical symmetric words
only; evaluation on arbitrary words goes through the Koszul sign of
canonical reordering, which makes graded symmetry automatic.

Everything is exact and immutable: a stored structure constant is an
int while it is integral and a Fraction only when it is not, and a
check's residuals leave as Fractions.  Arity truncation K_max
is a first-class parameter: operations above the cap are treated as
zero and every verdict is "up to arity K_max".
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from typing import NamedTuple

from .gradedlin import (CohomologyError, GradedMap, GradedSpace,
                        LinearSystem, acc_term, canonical_word, cohomology,
                        koszul_sign, reached, sym_words, unshuffles, vec_acc,
                        word_degree, words_within, scalar_to_str,
                        scalar_from_str, expect, expect_int, exact)

DEFAULT_ARITY_CAP = 4


def set_partitions(items):
    """All partitions of the list into nonempty blocks.  Each block
    keeps the input order; blocks are ordered by first element."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


# ---------------------------------------------------------------------------
# the term kernel
#
# Every relation, composition and differential below is one of two sums:
# insert an operation into a word along an unshuffle, or apply a map to
# the blocks of a set partition of a word.  Both accumulate in place.


def _signed(sign, v):
    return dict(v) if sign == 1 else {b: -c for b, c in v.items()}


def expand_canonical(space, elems):
    """The product of the elements (e_1, ..., e_k) expanded into
    canonical words: {word: coeff}, vanishing words dropped."""
    out = {}
    for terms in product(*[e.items() for e in elems]):
        cw, c = canonical_word(space, [b for b, _ in terms])
        if cw is not None:
            for _, x in terms:
                c = c * x
            acc_term(out, cw, c)
    return out


def _apply_table(space, table, elems):
    """A multilinear map stored on canonical words, applied to
    elements."""
    out = {}
    if table:
        for w, c in expand_canonical(space, elems).items():
            if w in table:
                vec_acc(out, table[w], c)
    return out


def _parities(space, word):
    deg = space.deg
    return tuple([deg[l] % 2 for l in word])


@lru_cache(maxsize=None)
def _split_signs(parities, i):
    """The (i, k-i)-unshuffles (b1, b2) of a word whose letters have
    these parities, in the order of unshuffles(i, k), each with the
    Koszul sign of the split: every odd letter of b1 passes the odd
    letters of b2 that stand before it."""
    return tuple((b1, b2, koszul_sign(parities, b1 + b2))
                 for b1, b2 in unshuffles(i, len(parities)))


def _insert_letter(space, g, rest):
    """(canonical word, sign) of the word (g,) + rest for a canonical
    rest, found by one scan: g goes before the first letter of index
    at least its own, and the sign is (-1)^(|g| x the odd letters it
    passes).  (None, 0) when g is odd and already in rest."""
    index, deg = space.index, space.deg
    ig = index[g]
    odd = deg[g] % 2
    passed = p = 0
    for r in rest:
        ir = index[r]
        if ir >= ig:
            if odd and ir == ig:
                return None, 0
            break
        passed += deg[r] % 2
        p += 1
    return rest[:p] + (g,) + rest[p:], -1 if odd and passed % 2 else 1


def insertion_sum(A, word, outer, support, lo, hi, scale=1):
    """scale * the sum over lo <= i <= hi and the (i, k-i)-unshuffles
    (b1, b2) of the word of
        sign * outer_{k-i+1}((l_i(word|b1),) + word|b2),
    linear in the inserted element.  The word must be canonical: then
    every block word|b is canonical too, so l_i is read straight from
    A.ops (A.l0 for i = 0), and the new word is placed by one scan.
    outer: a table {n: {canonical word: element}} (an algebra's ops or
    a morphism's comps, on the words of A), or None for the new word
    itself as {canonical word: sign}; it is zero unless n lies in
    support.  Only the i in A.support with k - i + 1 in support are
    visited: every other term is zero by arity."""
    acc = {}
    k = len(word)
    space = A.space
    parities = None
    for i in range(max(lo, 0), min(hi, k) + 1):
        if i not in A.support or k - i + 1 not in support:
            continue
        if parities is None:
            parities = _parities(space, word)
        inner = A.ops[i] if i else {(): A.l0}
        table = None if outer is None else outer.get(k - i + 1, {})
        for b1, b2, sgn in _split_signs(parities, i):
            ins = inner.get(tuple([word[p] for p in b1]))
            if not ins:
                continue
            rest = tuple([word[p] for p in b2])
            for g, c in ins.items():
                cw, s = _insert_letter(space, g, rest)
                if cw is None:
                    continue
                if table is None:
                    acc_term(acc, cw, scale * sgn * s * c)
                elif cw in table:
                    vec_acc(acc, table[cw], scale * sgn * s * c)
    return acc


@lru_cache(maxsize=None)
def _position_partitions(k, counts, sizes):
    """The set partitions of range(k) into t blocks with t in counts
    and every block size in sizes, as (regrouping permutation, blocks),
    blocks ordered by first position."""
    out = []
    for part in set_partitions(range(k)):
        if len(part) in counts and all(len(b) in sizes for b in part):
            blocks = tuple(sorted(tuple(sorted(b)) for b in part))
            out.append((tuple(p for b in blocks for p in b), blocks))
    return tuple(out)


def partition_sum(f, word, outer, support, acc=None, scale=1):
    """acc += scale * the sum over the set partitions of the word into
    blocks B_1, ..., B_t of
        sign * outer(t, [f(B_1), ..., f(B_t)]),
    where outer(t, elems) is l_t or g_t on elements, multilinear, and
    zero unless t lies in support (a frozenset or range).  The word
    must be canonical: then every block is canonical too, so f is read
    straight from f.comps.  Only the partitions with t in support and
    every block size in f.support are visited, and a partition is
    dropped at its first block f sends to zero: every other term is
    zero by arity."""
    acc = {} if acc is None else acc
    comps = f.comps
    parities = None
    for perm, blocks in _position_partitions(len(word), support, f.support):
        args = []
        for b in blocks:
            v = comps[len(b)].get(tuple([word[p] for p in b]))
            if not v:
                break
            args.append(v)
        else:
            if parities is None:
                parities = _parities(f.source.space, word)
            vec_acc(acc, outer(len(blocks), args),
                    scale * koszul_sign(parities, perm))
    return acc


def fraction_failures(failures):
    """(word, residual) pairs as they leave the library: every
    coefficient of a residual, in nested dicts too, a Fraction."""
    def leave(x):
        return {k: leave(v) if isinstance(v, dict) else Fraction(v)
                for k, v in x.items()}
    return [(w, leave(r)) for w, r in failures]


def fold_report(failures, rep, tag):
    """Append the failures of a sub-check to failures, each word
    prefixed with tag; returns the sub-check's checked count."""
    failures.extend(((tag,) + tuple(w), r) for w, r in rep.failures)
    return rep.checked


class CheckReport:
    """Outcome of a relation/morphism/axiom check with witnesses."""

    def __init__(self, name, failures=None, checked=0, notes=None):
        self.name = name
        self.failures = failures or []
        self.checked = checked
        self.notes = notes or []

    @property
    def ok(self):
        return not self.failures

    def __repr__(self):
        return "CheckReport(%s, %s)" % (self.name,
                                        "pass" if self.ok else "FAIL")


def check_arity_cap(cap):
    """An arity cap: an integer >= 1, ValueError otherwise."""
    return expect_int("arity_cap", cap, 1)


def canonical_tables(space, out_space, shift, tables, cap, what):
    """The structure-map tables {k: {canonical word: element}} of maps
    S^k space -> out_space of degree shift, 1 <= k <= cap, read from
    {k: {word: {label: coeff}}}: operations have shift 1, components
    shift 0.  Each word is sorted with its Koszul sign, the entries on
    one word add up and zeros drop out; every given arity keeps its
    table, empty or not.  ValueError on an arity outside 1..cap, a word
    of another length, a nonzero value on a vanishing word or an output
    of another degree."""
    clean = {}
    for k, table in tables.items():
        expect_int("%s arity" % what, k, 1)
        if k > cap:
            raise ValueError("%s arity %d is above the arity cap %d"
                             % (what, k, cap))
        tab = {}
        for word, out in table.items():
            if len(word) != k:
                raise ValueError("arity-%d %s on the word %r"
                                 % (k, what, word))
            cw, sign = canonical_word(space, word)
            val = {b: x for b, c in out.items() if (x := exact(c))}
            if cw is None and val:
                raise ValueError("value on a vanishing word %r" % (word,))
            if not val:
                continue
            wd = word_degree(space, cw) + shift
            for b in val:
                if out_space.deg[b] != wd:
                    raise ValueError("arity-%d %s %r -> %r violates degree "
                                     "%+d" % (k, what, cw, b, shift))
            vec_acc(tab.setdefault(cw, {}), val, sign)
        # entries on one word may add up to an integral Fraction
        clean[k] = {w: {b: exact(c) for b, c in v.items()}
                    for w, v in tab.items() if v}
    return clean


def table_word(space, table, word):
    """A table {canonical word: element} read on a word in any order,
    with the Koszul sign of the sorting; 0 off the table (a vanishing
    word is no key)."""
    if not table:
        return {}
    cw, sign = canonical_word(space, word)
    return _signed(sign, table.get(cw, {}))


def with_arity(tables, m, table):
    """The tables with arity m set to table, unless table is empty."""
    return {**tables, m: table} if table else tables


def blocks_to_json(tables):
    """The JSON blocks of {arity: {word: {out: coeff}}}, the format of
    an algebra's ops and a morphism's comps."""
    blocks = []
    for k in sorted(tables):
        entries = []
        for w in sorted(tables[k]):
            for b, c in sorted(tables[k][w].items()):
                entries.append({"word": list(w), "out": b,
                                "coeff": scalar_to_str(c)})
        blocks.append({"arity": k, "entries": entries})
    return blocks


def blocks_from_json(blocks, where):
    """{arity: {word: {out: coeff}}} from the JSON blocks of
    blocks_to_json, parsed strictly; entries on one (word, out) add
    up.  The arity caps are the constructors' to check."""
    tables = {}
    for blk in blocks:
        expect(blk, where + "[]", ("arity", "entries"))
        # True and 1.0 would merge into the arity-1 table as keys
        k = expect_int(where + "[].arity", blk["arity"], 1)
        tab = tables.setdefault(k, {})
        for e in blk["entries"]:
            expect(e, where + "[].entries[]", ("word", "out", "coeff"))
            acc_term(tab.setdefault(tuple(e["word"]), {}), e["out"],
                     scalar_from_str(e["coeff"]))
    return tables


class JetRecord(NamedTuple):
    """Frozen truncation data of a jet-scale algebra whose generators
    are labeled "monomial|form" over a truncated coordinate ring.

    coords: the coordinate names, order: the jet order (the largest
    generator weight), fol: the foliation directions, gain: the largest
    weight increase of any operation output, truncated terms included,
    check_cap: the weight up to which relation checks are exact, or
    None when nothing was truncated."""

    coords: tuple
    order: int
    fol: tuple
    gain: int
    check_cap: int | None


class LInftyAlgebra:
    """Arity-truncated L-infinity[1]-algebra.

    space: GradedSpace
    ops: {k >= 1: {canonical word: {target label: coeff}}}
    l0: curvature element {label: coeff} (empty means strict)
    weights: optional {label: int} weight filtration used by the
        simplex models; operations strictly add weights there, so
        checks filtered by total weight are exact.
    jet: optional JetRecord of a jet-scale algebra.
    """

    __slots__ = ("space", "arity_cap", "l0", "weights", "ops", "support",
                 "jet")

    def __init__(self, space, ops, l0=None, arity_cap=DEFAULT_ARITY_CAP,
                 weights=None, jet=None):
        self.space = space
        self.arity_cap = check_arity_cap(arity_cap)
        self.jet = jet
        self.l0 = {k: x for k, v in (l0 or {}).items() if (x := exact(v))}
        self.weights = dict(weights) if weights else None
        self.ops = canonical_tables(space, space, 1, ops, self.arity_cap,
                                    "operation")
        # the arities k with l_k nonzero; 0 stands for the curvature
        arities = frozenset(k for k, t in self.ops.items() if t)
        self.support = arities | {0} if self.l0 else arities
        for b in self.l0:
            if space.deg[b] != 1:
                raise ValueError("curvature must have degree 1")

    @property
    def is_strict(self):
        return not self.l0

    def op_word(self, k, word):
        """l_k on a tuple of basis labels (any order).  Returns an
        element {label: coeff}.  k outside the stored range gives 0."""
        if k == 0:
            return dict(self.l0)
        if k != len(word):
            raise ValueError("arity mismatch")
        return table_word(self.space, self.ops.get(k), word)

    def op_elems(self, k, elems):
        """Multilinear extension of l_k to elements."""
        if k == 0:
            return dict(self.l0)
        if k != len(elems):
            raise ValueError("arity mismatch")
        return _apply_table(self.space, self.ops.get(k), elems)

    def to_json(self):
        doc = {"space": self.space.to_json(), "arity_cap": self.arity_cap,
               "ops": blocks_to_json(self.ops)}
        if self.l0:
            doc["l0"] = {b: scalar_to_str(c)
                         for b, c in sorted(self.l0.items())}
        return doc

    @classmethod
    def from_json(cls, doc):
        expect(doc, "algebra", ("space", "ops"), ("arity_cap", "l0"))
        space = GradedSpace.from_json(doc["space"])
        ops = blocks_from_json(doc["ops"], "algebra.ops")
        l0 = {b: scalar_from_str(c) for b, c in doc.get("l0", {}).items()}
        return cls(space, ops, l0=l0, arity_cap=doc.get("arity_cap",
                                                        DEFAULT_ARITY_CAP))


def chain_complex(space, d: GradedMap):
    """Strict algebra with l_1 = d and l_{k>=2} = 0."""
    ops = {1: {(a,): d.images[a] for a in space.labels if a in d.images}}
    return LInftyAlgebra(space, ops)


def quad_residual(A: LInftyAlgebra, word):
    """Left side of the quadratic relation on a canonical word."""
    return insertion_sum(A, word, A.ops, A.support, 0, len(word))


def check_relations(A: LInftyAlgebra, up_to=None, weight_cap=None):
    """Verify the quadratic relations on all basis words of arity
    <= up_to (and total weight <= weight_cap when the algebra carries
    weights).  Operations above the arity cap count as zero.  An arity
    k with no i in A.support such that k - i + 1 is in it has only zero
    relations: its words are counted, not evaluated."""
    up_to = A.arity_cap if up_to is None else min(up_to, A.arity_cap)
    failures = []
    checked = 0
    for k in range(0, up_to + 1):
        words = words_within(A.space, k, A.weights, weight_cap)
        checked += len(words)
        if not any(i <= k and k - i + 1 in A.support for i in A.support):
            continue
        for word in words:
            res = quad_residual(A, word)
            if res:
                failures.append((word, res))
    return CheckReport("linfty-relations", fraction_failures(failures),
                       checked)


class LInftyMorphism:
    """Arity-truncated L-infinity[1]-morphism (strict: no f_0).

    comps: {k >= 1: {canonical word: {target label: coeff}}},
    every component of degree 0.
    """

    def __init__(self, source, target, comps, arity_cap=None):
        self.source = source
        self.target = target
        self.arity_cap = check_arity_cap(
            min(source.arity_cap, target.arity_cap) if arity_cap is None
            else arity_cap)
        self.comps = canonical_tables(
            source.space, target.space, 0, comps, self.arity_cap,
            "component")
        # the arities k with f_k nonzero
        self.support = frozenset(k for k, t in self.comps.items() if t)

    @classmethod
    def from_json(cls, doc, source, target, where):
        """The morphism of a document {"comps": blocks, "arity_cap"?};
        the cap defaults to the smaller cap of the two algebras."""
        expect(doc, where, ("comps",), ("arity_cap",))
        cap = doc.get("arity_cap", min(source.arity_cap, target.arity_cap))
        # checked here too: a null cap in a document is refused, while
        # the constructor reads None as the default
        return cls(source, target,
                   blocks_from_json(doc["comps"], where + ".comps"),
                   arity_cap=check_arity_cap(cap))

    @classmethod
    def from_linear(cls, source, target, f1_entries, arity_cap=None):
        comps = {1: {(a,): dict(v) for a, v in f1_entries.items() if v}}
        return cls(source, target, comps, arity_cap=arity_cap)

    @classmethod
    def identity(cls, A):
        return cls.from_linear(A, A, {a: {a: 1} for a in A.space.labels})

    def comp_word(self, k, word):
        if k < 1 or k != len(word):
            return {}
        return table_word(self.source.space, self.comps.get(k), word)

    def comp_elems(self, k, elems):
        if k < 1 or k != len(elems):
            return {}
        return _apply_table(self.source.space, self.comps.get(k), elems)

    def f1_map(self) -> GradedMap:
        table = self.comps.get(1, {})
        return GradedMap(self.source.space, self.target.space, 0,
                         {a: out for (a,), out in table.items()})

    def to_json(self):
        return {"arity_cap": self.arity_cap,
                "comps": blocks_to_json(self.comps)}


def morphism_sides(f: LInftyMorphism, word):
    """Both sides of the morphism relation on a canonical word."""
    return (insertion_sum(f.source, word, f.comps, f.support,
                          0, len(word)),
            partition_sum(f, word, f.target.op_elems, f.target.support))


def check_morphism(f: LInftyMorphism, up_to=None, weight_cap=None):
    """Verify the morphism relation on all basis words of arity
    <= up_to.  With a curved source the arity-0 relation f_1(l_0) =
    l_0' is included."""
    up_to = f.arity_cap if up_to is None else min(up_to, f.arity_cap)
    failures = []
    checked = 0
    for k in range(0, up_to + 1):
        if k == 0 and f.source.is_strict and f.target.is_strict:
            continue
        for word in words_within(f.source.space, k, f.source.weights,
                                 weight_cap):
            checked += 1
            lhs, rhs = morphism_sides(f, word)
            res = vec_acc(lhs, rhs, -1)
            if res:
                failures.append((word, res))
    return CheckReport("linfty-morphism", fraction_failures(failures),
                       checked)


def compose(g: LInftyMorphism, f: LInftyMorphism) -> LInftyMorphism:
    """Composition by the partition sum with 1/(t! j_1!...j_t!)
    normalization (realized as a sum over set partitions)."""
    if f.target is not g.source and f.target.space != g.source.space:
        raise ValueError("composition endpoint mismatch")
    cap = min(f.arity_cap, g.arity_cap)
    support = g.support
    comps = {}
    for k in range(1, cap + 1):
        tab = {}
        for word in sym_words(f.source.space, k):
            out = partition_sum(f, word, g.comp_elems, support)
            if out:
                tab[word] = out
        if tab:
            comps[k] = tab
    return LInftyMorphism(f.source, g.target, comps, arity_cap=cap)


def comps_agree(a: LInftyMorphism, b: LInftyMorphism, cap=None):
    """Whether two morphisms have the same components in every arity up
    to cap (every arity when cap is None).  An empty table is the zero
    component: the one rule by which morphisms are compared."""
    def live(f):
        return {k: t for k, t in f.comps.items()
                if t and (cap is None or k <= cap)}
    return live(a) == live(b)


# ---------------------------------------------------------------------------
# direct sums; the generator lab of summand i is labeled "lab@i"


def sum_label(lab, side):
    return "%s@%s" % (lab, side)


def split_sum_label(lab):
    """(lab, side) of a direct-sum label written by sum_label."""
    return tuple(lab.rsplit("@", 1))


def _sum_tables(summands, cap):
    """The tables of the summands, in order, relabeled onto their sum;
    arities above cap are dropped."""
    out = {}
    for i, tables in enumerate(summands):
        side = str(i)
        for k, table in tables.items():
            if k > cap:
                continue
            tab = out.setdefault(k, {})
            for w, v in table.items():
                tab[tuple(sum_label(l, side) for l in w)] = \
                    {sum_label(b, side): c for b, c in v.items()}
    return out


def direct_sum(*algebras) -> LInftyAlgebra:
    """Componentwise structure on the sum of the algebras; mixed words
    map to zero.  The sum carries weights when a summand does, 0 on the
    generators of a summand without."""
    labeled = [(sum_label(l, str(i)), A, l) for i, A in enumerate(algebras)
               for l in A.space.labels]
    space = GradedSpace([(lab, A.space.deg[l]) for lab, A, l in labeled])
    weights = None
    if any(A.weights for A in algebras):
        weights = {lab: A.weights[l] if A.weights else 0
                   for lab, A, l in labeled}
    l0 = {sum_label(b, str(i)): c for i, A in enumerate(algebras)
          for b, c in A.l0.items()}
    cap = min(A.arity_cap for A in algebras)
    return LInftyAlgebra(space, _sum_tables([A.ops for A in algebras], cap),
                         l0=l0, arity_cap=cap, weights=weights)


def direct_sum_mor(*morphisms) -> LInftyMorphism:
    """Componentwise morphism between the direct sums of the sources
    and of the targets."""
    cap = min(f.arity_cap for f in morphisms)
    return LInftyMorphism(direct_sum(*[f.source for f in morphisms]),
                          direct_sum(*[f.target for f in morphisms]),
                          _sum_tables([f.comps for f in morphisms], cap),
                          arity_cap=cap)


# ---------------------------------------------------------------------------
# coalgebra picture


def word_label(word):
    return "(" + ",".join(word) + ")"


def codifferential_hat(A: LInftyAlgebra, cap=None) -> GradedMap:
    """The coderivation extension of the operations on S^{<=cap} C (the
    empty word left out, one generator word_label(w) per canonical word
    w), with words of arity above the cap projected away."""
    cap = cap or A.arity_cap
    words = {word_label(w): w for k in range(1, cap + 1)
             for w in sym_words(A.space, k)}
    space = GradedSpace([(wl, word_degree(A.space, w))
                         for wl, w in words.items()])
    images = {}
    for wl, word in words.items():
        # the curvature (i = 0) raises arity by one
        out = insertion_sum(A, word, None, range(1, cap + 1),
                            0, len(word))
        images[wl] = {word_label(cw): c for cw, c in out.items()}
    return GradedMap(space, space, 1, images)


# ---------------------------------------------------------------------------
# cohomology and quasi-isomorphisms


class CurvedError(Exception):
    pass


def l1_map(A: LInftyAlgebra) -> GradedMap:
    if not A.is_strict:
        raise CurvedError("cohomology undefined for curved algebra")
    return GradedMap(A.space, A.space, 1,
                     {a: out for (a,), out in A.ops.get(1, {}).items()})


def l1_cohomology(A: LInftyAlgebra):
    return cohomology(l1_map(A))


def mapping_cone(f: LInftyMorphism) -> GradedMap:
    """The mapping cone of f_1: A -> B, written from the arity-1
    tables.  The generator a of A gives sum_label(a, 0) in degree
    |a| - 1 and the generator b of B gives sum_label(b, 1) in degree
    |b|, and
        d(a@0) = -(l_1 a)@0 + (f_1 a)@1,    d(b@1) = (l'_1 b)@1.
    It squares to zero iff both l_1 do and f_1 is a chain map; then
    f_1 is a quasi-isomorphism iff the cone is acyclic (Weibel,
    Cor. 1.5.4)."""
    A, B = f.source, f.target
    if not (A.is_strict and B.is_strict):
        raise CurvedError("cohomology undefined for curved algebra")
    space = GradedSpace(
        [(sum_label(a, "0"), d - 1) for a, d in A.space.deg.items()]
        + [(sum_label(b, "1"), d) for b, d in B.space.deg.items()])
    images = {}
    for (a,), out in A.ops.get(1, {}).items():
        images[sum_label(a, "0")] = {sum_label(x, "0"): -c
                                     for x, c in out.items()}
    for (a,), out in f.comps.get(1, {}).items():
        col = images.setdefault(sum_label(a, "0"), {})
        for y, c in out.items():
            col[sum_label(y, "1")] = c
    for (b,), out in B.ops.get(1, {}).items():
        images[sum_label(b, "1")] = {sum_label(y, "1"): c
                                     for y, c in out.items()}
    return GradedMap(space, space, 1, images)


def is_quasi_iso(f: LInftyMorphism):
    """Whether f_1 is a quasi-isomorphism of the l_1-complexes: the
    mapping cone is a complex (so f_1 is a chain map between
    complexes) and its cohomology vanishes in every degree."""
    try:
        H = cohomology(mapping_cone(f))
    except CohomologyError:
        return False
    return not any(H.values())


# ---------------------------------------------------------------------------
# obstruction theory


def delta1_rows(A, B, cells, shift=0, tag=None):
    """The Hochschild differential on maps u: S^m A -> B of degree shift,
        delta1(u) = l'_1 . u + (-1)^(shift + 1) u . hat l_1,
    as rows (word, label, {(tag, word', label'): coeff}) yielded one per
    cell (word, label) of cells, a canonical arity-m word of A and a
    label of B in the degree of delta1(u)(word), empty rows included, a
    word's cells consecutive.  So a caller never holds them all, and a
    word with no cell costs nothing.  Row keys name the unknown
    coefficient u(word')_label'."""
    tail = 1 if shift % 2 else -1
    l1_into = preimages({b: out for (b,), out in B.ops.get(1, {}).items()})
    for w, group in groupby(cells, lambda cell: cell[0]):
        rows = {b2: {(tag, w, b): c for b, c in l1_into.get(b2, {}).items()}
                for _, b2 in group}
        for cw, c in insertion_sum(A, w, None, (len(w),), 1, 1,
                                   scale=tail).items():
            for b, row in rows.items():
                row[(tag, cw, b)] = c
        for b2, row in rows.items():
            yield w, b2, row


def delta1(A, B, g, m, shift=0):
    """delta1(g) on every canonical arity-m word of A, nonzero values
    only.  g: {canonical word: element} of degree shift, missing words
    zero."""
    out = {}
    cells = [(w, b) for w in sym_words(A.space, m) for b in
             B.space.basis_in_degree(word_degree(A.space, w) + shift + 1)]
    for w, b2, row in delta1_rows(A, B, cells, shift):
        c = sum(x * g[cw][b] for (_, cw, b), x in row.items()
                if b in g.get(cw, ()))
        if c:
            out.setdefault(w, {})[b2] = c
    return out


def preimages(psi):
    """{y: {t: coeff}} of a linear map given by its images {t: {y: c}}."""
    into = {}
    for t, img in psi.items():
        for y, c in img.items():
            into.setdefault(y, {})[t] = c
    return into


def post_rows(cells, tag, psi):
    """psi . u for an unknown u: S^m A -> B of degree shift and a known
    degree-0 linear map psi: B -> C given by its images, as rows like
    delta1_rows: one per cell (word, label of C in degree |word| +
    shift) of cells, each with only its nonzero entries."""
    into = preimages(psi)
    for w, y in cells:
        yield w, y, {(tag, w, t): c for t, c in into.get(y, {}).items()}


def pre_rows(D, A, B, m, tag, phi, shift=0):
    """u . phi^{x m} for an unknown u: S^m A -> B of degree shift and a
    known degree-0 linear map phi: D -> A given by its images, as rows
    like delta1_rows: one per canonical arity-m word of D and label of
    B in degree |word| + shift, empty rows included, yielded."""
    for v in sym_words(D.space, m):
        expanded = expand_canonical(A.space, [phi.get(a, {}) for a in v])
        for t in B.space.basis_in_degree(word_degree(D.space, v) + shift):
            yield v, t, {(tag, cw, t): c for cw, c in expanded.items()}


class ObstructionClass:
    """The degree-1 cochain obstructing extension of an arity-K
    morphism to arity K+1, its closedness and its exactness data."""

    def __init__(self, K, cocycle, residual, witness):
        self.K = K
        self.cocycle = cocycle          # {word(K+1): element}
        self.residual = residual        # delta1(cocycle), {} when closed
        self.closed = not residual
        self.witness = witness          # extension component or None
        self.exact = witness is not None

    def to_json(self):
        return {
            "K": self.K,
            "exact": self.exact,
            "cocycle": [
                {"word": list(w),
                 "out": {b: scalar_to_str(c) for b, c in sorted(e.items())}}
                for w, e in sorted(self.cocycle.items())
            ],
        }


def obstruction_cocycle(f: LInftyMorphism, K):
    """O_{K+1}(f) as {canonical word of arity K+1: element}, normalized
    so that an extension f_{K+1} exists iff delta1(f_{K+1}) = O."""
    A, B = f.source, f.target
    if not (A.is_strict and B.is_strict):
        raise CurvedError("obstruction theory requires strict algebras")
    inner, outer = f.support, B.support & frozenset(range(2, K + 2))
    out = {}
    for word in sym_words(A.space, K + 1):
        # the terms of the relation that avoid f_{K+1}: insertions of
        # l_{i >= 2}, minus the partitions into at least two blocks
        val = insertion_sum(A, word, f.comps, inner, 2, K + 1)
        partition_sum(f, word, B.op_elems, outer, val, -1)
        if val:
            out[word] = val
    return out


def obstruction_class(f: LInftyMorphism, K) -> ObstructionClass:
    """Compute O_{K+1}(f), decide delta1-exactness by an exact linear
    solve, and produce the canonical extension component when exact.
    When f breaks the relations below arity K + 1, O is not closed: the
    class keeps delta1(O) as its residual and is not exact."""
    A, B = f.source, f.target
    O = obstruction_cocycle(f, K)
    residual = delta1(A, B, O, K + 1, shift=1)
    sol = None if residual else solve_delta1(A, B, O, K + 1)
    return ObstructionClass(K, O, residual, sol)


def l1_classes(A, groups):
    """{label: the first label of its class}: the components of the graph
    joining each generator of A to its l_1 letters and each list in groups."""
    links = {a: [] for a in A.space.labels}
    for g in [[a, *out] for (a,), out in A.ops.get(1, {}).items()] + groups:
        for x in g[1:]:
            links[g[0]].append(x)
            links[x].append(g[0])
    root = {}
    for a in A.space.labels:
        todo = [] if a in root else [a]
        root.setdefault(a, a)
        while todo:
            for x in links[todo.pop()]:
                if x not in root:
                    root[x] = a
                    todo.append(x)
    return root


def solve_map_stage(m, maps, conds, sys):
    """Solve for unknown maps u: S^m A -> B of degree shift, given as
    (tag, A, B, shift) in the order of their unknowns, under conditions
    (terms, rhs): the sum of the terms equals rhs, {word: element}.  A
    term is ("d", tag, c) for c delta1(u), ("post", tag, c, C, psi) for
    c psi . u or ("pre", tag, c, D, phi) for c u . phi^{x m}, with c =
    1 or -1, and psi: B -> C and phi: D -> A of degree 0 by their
    images.  sys: the empty LinearSystem to write, whose tie_break
    picks the canonical solution.  Returns {tag: u as {word: element}},
    or None when the system is inconsistent.

    Only the rows a nonzero right-hand side reaches are built.  The
    unknown u(w)_b is keyed by the tag, the sorted l1 classes of w's
    letters and b's class in B, which also joins the psi-preimages of
    each label of a post term on u (l1_classes).  A one-term row lies
    in one key: a delta1 row at (w, b2) touches u(w)_b for b2 in
    l'_1(b) and u(w')_b2 for w' w with a letter swapped for one of its
    l1 image, a post row at (w, y) the u(w)_t with t in psi^-1(y), and
    one with no unknown has a class of its own.  Every other condition
    is summed over (word, label) and built first.  reached walks its
    rows over their unknowns' keys from one pseudo-row over the keys of
    the one-term cells of nonzero right-hand side; the one-term rows of
    the keys and the summed rows it reaches are written, in order, and
    the solve eliminates every row written.  The rows left out lie in
    components of the full system, in the graph joining rows to their
    unknowns, with a zero right-hand side.  Permuted to one diagonal
    block per component, the pivots and the canonical solution split
    block by block (Pothen and Fan 1990), and such a block is solved by
    0.  An unknown no written row uses has no column, and is 0 too.
    The columns keep their order in the full system, by each unknown's
    position there (LinearSystem.solve), so at every tie-break the
    answer is the full system's."""
    spec, key, bcls, place = {}, {}, {}, {}
    for i, (tag, A, B, shift) in enumerate(maps):
        cls = l1_classes(A, [])
        spec[tag] = A, B, shift
        place[tag] = i, A.space.index, B.space.index
        key[tag] = {w: (tag, tuple(sorted(cls[a] for a in w)))
                    for w in sym_words(A.space, m)}
        bcls[tag] = l1_classes(B, [
            list(g) for terms, _ in conds for t in terms
            if t[:2] == ("post", tag) for g in preimages(t[4]).values()])

    def cells(term, heads):
        """The (word, label) of the rows of a delta1 or post term whose
        word's key is in heads, of every row when heads is None."""
        kind, tag, _, *known = term
        A, B, shift = spec[tag]
        C, s = (B, shift + 1) if kind == "d" else (known[0], shift)
        return ((w, y) for w, k in key[tag].items()
                if heads is None or k in heads for y in
                C.space.basis_in_degree(word_degree(A.space, w) + s))

    def keyer(i, term):
        """The key of the row (w, y) of a term of condition i."""
        kind, tag, _, *known = term
        c = bcls[tag] if kind == "d" else {
            y: bcls[tag][min(t)] for y, t in preimages(known[1]).items()}
        return lambda w, y: (key[tag].get(w), c[y] if y in c else (i, w, y))

    def rows(term, cells):
        kind, tag, c, *known = term
        A, B, shift = spec[tag]
        if kind == "d":
            out = delta1_rows(A, B, cells, shift, tag)
        elif kind == "post":
            out = post_rows(cells, tag, known[1])
        else:
            out = pre_rows(known[0], A, B, m, tag, known[1], shift)
        return out if c == 1 else ((w, b, vec_acc({}, r, c))
                                   for w, b, r in out)

    lazy, joined = [], []
    for i, (terms, rhs) in enumerate(conds):
        if len(terms) == 1 and terms[0][0] != "pre":
            lazy.append((terms[0], rhs, keyer(i, terms[0])))
            continue
        summed = {}
        for term in terms:
            for w, b, r in rows(term, cells(term, None)):
                vec_acc(summed.setdefault((w, b), {}), r)
        joined += [(r, rhs.get(w, {}).get(b, 0))
                   for (w, b), r in summed.items()]
    seed = {at(w, y): 1 for _, rhs, at in lazy
            for w, v in rhs.items() for y, c in v.items() if c}
    pseudo = [seed] + [{(key[t][cw], bcls[t][b]): 1
                       for (t, cw, b), c in r.items() if c}
                      for r, _ in joined]
    hit = reached(pseudo, [1] + [b for _, b in joined])
    live = {k for i in hit for k in pseudo[i]}
    heads = {k for k, _ in live}
    for term, rhs, at in lazy:
        for w, b, r in rows(term, (c for c in cells(term, heads)
                                   if at(*c) in live)):
            sys.equation(r, rhs.get(w, {}).get(b, 0))
    for i, (r, b) in enumerate(joined, 1):
        if i in hit:
            sys.equation(r, b)

    def order(u):
        """u(w)_b's position: the map's place in maps, the generator
        indices of w in A, the index of b in B."""
        i, a_at, b_at = place[u[0]]
        return i, tuple(a_at[a] for a in u[1]), b_at[u[2]]

    sol = sys.solve(order)
    tables = {tag: {} for tag, *_ in maps}
    for (tag, w, b), c in (sol or {}).items():
        tables[tag].setdefault(w, {})[b] = c
    return None if sol is None else tables


def solve_delta1(A, B, rhs, m):
    """Solve delta1(g) = rhs for a degree-0 map g on S^m words.
    Returns {word: element} (canonical reduced-echelon solution) or
    None."""
    sol = solve_map_stage(m, [("g", A, B, 0)], [([("d", "g", 1)], rhs)],
                          LinearSystem())
    return None if sol is None else sol["g"]


def extend_morphism(f: LInftyMorphism, K):
    """Extension of an arity-K morphism to arity K+1, or the certified
    obstruction.  Returns (morphism or None, ObstructionClass)."""
    obc = obstruction_class(f, K)
    if not obc.exact:
        return None, obc
    cap = max(f.arity_cap, K + 1)
    ext = LInftyMorphism(f.source, f.target,
                         with_arity(f.comps, K + 1, obc.witness),
                         arity_cap=cap)
    return ext, obc
