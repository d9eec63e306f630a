"""V-algebras and derived brackets.

A graded Lie algebra with a distinguished abelian subalgebra, a
projection onto it, and a Maurer-Cartan element produces an
L-infinity[1]-algebra through iterated brackets.  The flagship example
here is a jet-scale model of polynomial multivector fields on the
total space of the foliation cotangent bundle over a coordinate patch
with a constant-rank closed 2-form; its derived brackets live on the
foliation de Rham complex.

Polynomials are exponent-vector dictionaries over the rationals, so
every bracket is computed exactly; only the final projection onto the
finite generator basis truncates, and the truncation is tracked by a
weight filtration (base polynomial degree) so that relation checks
filtered by weight are exact.

Generator labels of jet-scale algebras have one format,
"monomial|wedge", and one codec, in this module: `JetRing` writes and
reads the monomial, `make_label` and `split_label` join and split the
two parts, and `label_weight` reads the exponent total of a label.
"""

import random
from fractions import Fraction

from .gradedlin import (GradedSpace, acc_term, exact, expect, expect_int,
                        matrix_rank, scalar_from_str, scalar_to_str, vec_acc,
                        vec_scale)
from .linfty import (CheckReport, JetRecord, LInftyAlgebra, LInftyMorphism,
                     fraction_failures)


# ---------------------------------------------------------------------------
# polynomial scalars: {exponent tuple: coefficient}


def poly_var(i, nv):
    e = [0] * nv
    e[i] = 1
    return {tuple(e): 1}


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            acc_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def poly_diff(p, i):
    terms = (_term_dx(e, (), c, i) for e, c in p.items())
    return {t[0]: t[2] for t in terms if t is not None}


def poly_deg(p, idxs=None):
    """Largest total degree of any term, restricted to idxs if given.
    The zero polynomial has degree -1."""
    best = -1
    for e in p:
        d = sum(e) if idxs is None else sum(e[i] for i in idxs)
        best = max(best, d)
    return best


def poly_trunc(p, idxs, cap):
    """Drop terms whose total degree in the listed variables exceeds
    cap."""
    idxs = list(idxs)
    return {e: c for e, c in p.items()
            if sum(e[i] for i in idxs) <= cap}


def poly_to_json(p):
    return [{"exps": list(e), "coeff": scalar_to_str(c)}
            for e, c in sorted(p.items())]


def _read_exps(rec, nv):
    """The exponents of a term record: integers >= 0, and with nv, one
    for each of nv variables."""
    e = tuple(expect_int("exponent", x, 0) for x in rec["exps"])
    if nv is not None and len(e) != nv:
        raise ValueError("exponents %r do not fit %d variables" % (e, nv))
    return e


def poly_from_json(doc, nv=None):
    """With nv, every exponent vector must fit nv variables."""
    out = {}
    for rec in doc:
        expect(rec, "polynomial term", ("exps", "coeff"))
        acc_term(out, _read_exps(rec, nv), scalar_from_str(rec["coeff"]))
    return out


# ---------------------------------------------------------------------------
# truncated polynomial rings and generator labels
#
# A label is "monomial|wedge": the monomial is "1" or dot-separated
# factors "name" or "name^power" in coordinate order, and the wedge is
# "1" or dot-separated tokens in sorted order ("a1.a2" for Koszul frame
# directions, "dq1.dy2" for form differentials, "g" for the
# augmentation copy of a closed function).


class JetRing:
    """Polynomial functions near the origin of a coordinate patch,
    truncated at a fixed total degree (jets at the stated order)."""

    def __init__(self, var_names, order=4):
        if len(set(var_names)) != len(var_names):
            raise ValueError("duplicate variable name")
        # the label codec splits on ".", "^" and "|"
        if not all(n.isidentifier() for n in var_names):
            raise ValueError("variable names must be identifiers, got %r"
                             % (list(var_names),))
        if order < 0:
            raise ValueError("negative jet order")
        self.names = list(var_names)
        self.order = int(order)
        self.nv = len(self.names)
        self.name_to_idx = {n: i for i, n in enumerate(self.names)}

    def var(self, name):
        return poly_var(self.name_to_idx[name], self.nv)

    def monomials(self, cap=None):
        """Exponent vectors of total degree at most cap, sorted; built
        one coordinate at a time, so the work is proportional to their
        number."""
        cap = self.order if cap is None else cap
        out = [()] if cap >= 0 else []
        for _ in range(self.nv):
            out = [e + (x,) for e in out for x in range(cap + 1 - sum(e))]
        return out

    def mono_str(self, e):
        parts = []
        for i, x in enumerate(e):
            if x == 1:
                parts.append(self.names[i])
            elif x > 1:
                parts.append("%s^%d" % (self.names[i], x))
        return ".".join(parts) if parts else "1"

    def mono_parse(self, s):
        """Exponents of a monomial written as mono_str writes it;
        ValueError on any other string."""
        e = [0] * self.nv
        if s != "1":
            for part in s.split("."):
                name, _, pw = part.partition("^")
                if name not in self.name_to_idx:
                    raise ValueError("unknown variable in monomial %r" % (s,))
                e[self.name_to_idx[name]] += int(pw) if pw else 1
        e = tuple(e)
        if self.mono_str(e) != s:
            raise ValueError("monomial %r is not in canonical form" % (s,))
        return e

    def label_parse(self, label, tokens):
        """(exponents, wedge word) of a label written as make_label
        writes it, its wedge tokens drawn from tokens; ValueError on
        any other label."""
        mono, word = split_label(label)
        if any(a >= b for a, b in zip(word, word[1:])) or \
                not all(t in tokens for t in word):
            raise ValueError("wedge of label %r is not a sorted word of "
                             "known tokens" % (label,))
        return self.mono_parse(mono), word

    def embed_from(self, other, p):
        """Include a polynomial over a sub-ring whose variables all
        appear here."""
        out = {}
        for e, c in p.items():
            e2 = [0] * self.nv
            for i, x in enumerate(e):
                e2[self.name_to_idx[other.names[i]]] = x
            out[tuple(e2)] = c
        return out

    def to_json(self):
        return {"vars": list(self.names), "order": self.order}

    @classmethod
    def from_json(cls, doc):
        expect(doc, "ring", ("vars", "order"))
        if not all(isinstance(n, str) for n in doc["vars"]):
            raise TypeError("variable names must be strings")
        return cls(doc["vars"], doc["order"])


def split_label(label):
    mono, wedge = label.split("|")
    return mono, () if wedge == "1" else tuple(wedge.split("."))


def make_label(mono, tokens):
    return mono + "|" + (".".join(tokens) if tokens else "1")


def label_weight(label, names=None):
    """Total exponent of the monomial part of a label, over the listed
    variable names if given."""
    mono = split_label(label)[0]
    total = 0
    if mono != "1":
        for part in mono.split("."):
            name, _, pw = part.partition("^")
            if names is None or name in names:
                total += int(pw) if pw else 1
    return total


# ---------------------------------------------------------------------------
# polynomial multivector fields
#
# A multivector is a dictionary {(exps, word): coefficient} where exps is
# an exponent tuple for the (commuting) coordinates and word is a
# strictly increasing tuple of coordinate indices naming a wedge of
# coordinate vector fields.  The wedge generators are odd; a term with
# a wedge word of length l has degree l - 1 in the shifted grading.


def merge_words(wa, wb):
    """Concatenate two sorted wedge words and sort, returning (word,
    sign) with the Koszul sign of the sort; (None, 0) when a generator
    repeats."""
    if any(a in wb for a in wa):
        return None, 0
    inv = sum(1 for a in wa for b in wb if a > b)
    word = tuple(sorted(wa + wb))
    return word, (-1) ** inv


def mv_wedge(X, Y):
    """Wedge product of two {(exps, word): c} dictionaries with sorted
    words: multivectors here, polynomial forms in simplexmodel, frame
    words in koszul."""
    out = {}
    for (ea, wa), ca in X.items():
        for (eb, wb), cb in Y.items():
            word, sgn = merge_words(wa, wb)
            if word is None:
                continue
            e = tuple(a + b for a, b in zip(ea, eb))
            acc_term(out, (e, word), sgn * ca * cb)
    return out


def _term_dx(e, w, c, i):
    """Coordinate derivative of a single term."""
    if e[i] == 0:
        return None
    e2 = list(e)
    e2[i] -= 1
    return tuple(e2), w, c * e[i]


def form_d(form, dirs):
    """Exterior derivative of a {(exps, word): c} form in the directions
    dirs, pairs (exponent index, wedge letter): each term is
    differentiated in the exponent and the letter wedged on the left."""
    out = {}
    for (e, w), c in form.items():
        for i, a in dirs:
            t = _term_dx(e, w, c, i)
            if t is None:
                continue
            word, sgn = merge_words((a,), w)
            if word is not None:
                acc_term(out, (t[0], word), sgn * t[2])
    return out


def _term_dw_right(e, w, c, i):
    """Right derivative with respect to the wedge generator i: move it
    to the last slot and strike it out."""
    if i not in w:
        return None
    s = w.index(i)
    sgn = (-1) ** (len(w) - 1 - s)
    return e, w[:s] + w[s + 1:], sgn * c


def term_dw_left(e, w, c, i):
    """Left derivative, the contraction with the generator i: move it
    to the front and strike it out."""
    if i not in w:
        return None
    s = w.index(i)
    return e, w[:s] + w[s + 1:], ((-1) ** s) * c


def schouten(X, Y):
    """Schouten bracket of polynomial multivector fields.

    Normalization: [d/dx_i, f] = df/dx_i, and with the shifted degree
    |X| = (wedge length) - 1 the bracket is graded antisymmetric and
    satisfies the graded Jacobi identity (property-tested).
    """
    out = {}
    for (ea, wa), ca in X.items():
        for (eb, wb), cb in Y.items():
            # first part: wedge-derivative of X against the coordinate
            # derivative of Y
            for i in wa:
                ta = _term_dw_right(ea, wa, ca, i)
                tb = _term_dx(eb, wb, cb, i)
                if tb is None:
                    continue
                word, sgn = merge_words(ta[1], tb[1])
                if word is None:
                    continue
                e = tuple(a + b for a, b in zip(ta[0], tb[0]))
                acc_term(out, (e, word), sgn * ta[2] * tb[2])
            # second part: coordinate derivative of X against the left
            # wedge-derivative of Y (a constant minus sign makes the
            # bracket graded antisymmetric in the shifted grading)
            for i in wb:
                ta = _term_dx(ea, wa, ca, i)
                if ta is None:
                    continue
                tb = term_dw_left(eb, wb, cb, i)
                word, sgn = merge_words(ta[1], tb[1])
                if word is None:
                    continue
                e = tuple(a + b for a, b in zip(ta[0], tb[0]))
                acc_term(out, (e, word), -sgn * ta[2] * tb[2])
    return out


def mv_degrees(X):
    return sorted({len(w) - 1 for (_, w) in X})


def mv_to_json(X):
    return [{"exps": list(e), "word": list(w), "coeff": scalar_to_str(c)}
            for (e, w), c in sorted(X.items())]


def mv_from_json(doc, nv=None):
    """With nv, exponents and wedge indices must fit nv variables."""
    out = {}
    for rec in doc:
        expect(rec, "multivector term", ("exps", "word", "coeff"))
        key = (_read_exps(rec, nv),
               tuple(expect_int("wedge index", x, 0) for x in rec["word"]))
        if nv is not None and not all(i < nv for i in key[1]):
            raise ValueError("wedge word %r does not fit %d variables"
                             % (key[1], nv))
        acc_term(out, key, scalar_from_str(rec["coeff"]))
    return out


# ---------------------------------------------------------------------------
# the jet-scale multivector model


class JetMultivectorModel:
    """Polynomial multivector fields near the zero section of the
    foliation cotangent bundle over a coordinate patch.

    Coordinates: y_1..y_m (transverse), q_1..q_k (foliation),
    p_1..p_k (fiber, dual to the q directions), the variables of
    `ring`.  Coefficients are polynomials; the distinguished abelian
    subalgebra consists of wedges of fiber directions with
    fiber-independent coefficients, identified with foliation
    differential forms through d/dp_a <-> dq_a.

    base_cap bounds the (y, q)-degree of the retained generator basis;
    fiber_cap bounds the p-degree used in sampling checks.  Brackets
    themselves are computed exactly, without truncation.

    The generator basis is one table fixed at construction: `gens`
    maps each term (exponents, fiber word) to its label, ordered by
    word length, word and monomial, and `terms` maps each label back.
    """

    def __init__(self, m, k, base_cap=3, fiber_cap=2):
        self.m = expect_int("m", m, 0)
        self.k = expect_int("k", k, 0)
        self.base_cap = expect_int("base_cap", base_cap, 0)
        self.fiber_cap = expect_int("fiber_cap", fiber_cap, 0)
        base = ["y%d" % (i + 1) for i in range(self.m)]
        base += ["q%d" % (i + 1) for i in range(self.k)]
        fiber = ["p%d" % (i + 1) for i in range(self.k)]
        self.ring = JetRing(base + fiber, self.base_cap)
        self.nv = self.ring.nv
        self.base_idxs = list(range(len(base)))
        self.p_idxs = list(range(len(base), self.nv))
        words = [()]
        for i in self.p_idxs:
            words = words + [w + (i,) for w in words]
        monos = [e + (0,) * self.k
                 for e in JetRing(base, self.base_cap).monomials()]
        self.gens = {}
        for w in sorted(words, key=lambda w: (len(w), w)):
            form = tuple("dq%d" % (i - len(base) + 1) for i in w)
            for e in monos:
                self.gens[(e, w)] = make_label(self.ring.mono_str(e), form)
        self.terms = {lab: term for term, lab in self.gens.items()}

    # -- coordinate helpers

    def var(self, name):
        return self.ring.var(name)

    def vector(self, name):
        """The coordinate vector field d/d<name> as a multivector."""
        return {((0,) * self.nv, (self.ring.name_to_idx[name],)): 1}

    # -- the projection onto the abelian subalgebra

    def pi(self, X):
        """Keep the terms whose wedge word uses only fiber directions,
        then evaluate the fiber coordinates at zero.  Mixed words are
        sent to zero."""
        pset = set(self.p_idxs)
        out = {}
        for (e, w), c in X.items():
            if not set(w) <= pset:
                continue
            if any(e[i] for i in self.p_idxs):
                continue
            out[(e, w)] = c
        return out

    # -- generator basis of the abelian subalgebra

    def label_to_mv(self, label):
        return {self.terms[label]: 1}

    def a_space(self):
        """Graded space of retained generators of the abelian
        subalgebra: base monomial times fiber-direction wedge word."""
        return GradedSpace([(lab, len(w) - 1)
                            for (_, w), lab in self.gens.items()])

    def elem_to_coeffs(self, X):
        """Express an element of the abelian subalgebra in the
        generator basis.  Returns (coefficients, spilled) where
        spilled flags terms outside the table, beyond the base-degree
        cap."""
        coeffs = {}
        spilled = False
        for term, c in X.items():
            lab = self.gens.get(term)
            if lab is None:
                spilled = True
            elif c:
                coeffs[lab] = c
        return coeffs, spilled

    def to_json(self):
        return {"m": self.m, "k": self.k, "base_cap": self.base_cap,
                "fiber_cap": self.fiber_cap}

    @classmethod
    def from_json(cls, doc):
        expect(doc, "jet.model", ("m", "k"), ("base_cap", "fiber_cap"))
        return cls(doc["m"], doc["k"], doc.get("base_cap", 3),
                   doc.get("fiber_cap", 2))


# ---------------------------------------------------------------------------
# finite graded Lie algebras by structure constants


class GradedLieAlgebra:
    """Finite-dimensional graded Lie algebra with explicit structure
    constants.

    bracket: {(a, b): {c: coeff}} on ordered basis pairs; missing
    pairs are recovered from graded antisymmetry, absent pairs are
    zero.  The bracket preserves degree.
    """

    def __init__(self, space, bracket):
        self.space = space
        tab = {}
        for (a, b), out in bracket.items():
            val = {c: x for c, v in out.items() if (x := exact(v))}
            if val:
                tab[(a, b)] = val
        self.table = tab

    def bracket_word(self, a, b):
        if (a, b) in self.table:
            return dict(self.table[(a, b)])
        if (b, a) in self.table:
            da = self.space.deg[a] % 2
            db = self.space.deg[b] % 2
            sgn = -((-1) ** (da * db))
            return vec_scale(sgn, self.table[(b, a)])
        return {}

    def bracket_elems(self, u, v):
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                vec_acc(out, self.bracket_word(a, b), ca * cb)
        return out

    def to_json(self):
        return {
            "space": self.space.to_json(),
            "bracket": [
                {"pair": list(p), "out": b, "coeff": scalar_to_str(c)}
                for p in sorted(self.table)
                for b, c in sorted(self.table[p].items())
            ],
        }

    @classmethod
    def from_json(cls, doc):
        expect(doc, "h", ("space", "bracket"))
        space = GradedSpace.from_json(doc["space"])
        tab = {}
        for rec in doc["bracket"]:
            expect(rec, "h.bracket", ("pair", "out", "coeff"))
            a, b = rec["pair"]
            _known_labels(space, (a, b, rec["out"]))
            acc_term(tab.setdefault((a, b), {}), rec["out"],
                     scalar_from_str(rec["coeff"]))
        return cls(space, tab)


def _known_labels(space, labels):
    if not all(isinstance(x, str) and x in space.deg for x in labels):
        raise ValueError("unknown generator label")


def check_graded_lie(L):
    """Degree preservation, graded antisymmetry, and the graded Jacobi
    identity on all basis triples."""
    failures = []
    checked = 0
    labels = L.space.labels
    for a in labels:
        for b in labels:
            checked += 1
            out = L.bracket_word(a, b)
            want = L.space.deg[a] + L.space.deg[b]
            for c in out:
                if L.space.deg[c] != want:
                    failures.append(((a, b), {"degree": out}))
                    break
            da, db = L.space.deg[a] % 2, L.space.deg[b] % 2
            back = vec_scale(-((-1) ** (da * db)), L.bracket_word(b, a))
            if out != back:
                failures.append(((a, b), {"antisymmetry":
                                          vec_acc(dict(out), back, -1)}))
    for a in labels:
        for b in labels:
            for c in labels:
                checked += 1
                da, db = L.space.deg[a] % 2, L.space.deg[b] % 2
                lhs = L.bracket_elems({a: 1}, L.bracket_word(b, c))
                r1 = L.bracket_elems(L.bracket_word(a, b), {c: 1})
                r2 = vec_scale((-1) ** (da * db),
                               L.bracket_elems({b: 1}, L.bracket_word(a, c)))
                res = vec_acc(vec_acc(lhs, r1, -1), r2, -1)
                if res:
                    failures.append(((a, b, c), res))
    return CheckReport("graded-lie", fraction_failures(failures), checked)


# ---------------------------------------------------------------------------
# V-algebras


class VAlgebra:
    """Graded Lie algebra with a distinguished abelian subalgebra
    spanned by a sub-basis, an idempotent projection onto it whose
    kernel is a subalgebra, and a degree-1 element squaring to zero
    under the bracket.

    pi is a linear map given per basis label; P is an element."""

    def __init__(self, h, a_labels, pi, P):
        self.h = h
        self.a_labels = list(a_labels)
        self.pi = {a: {b: x for b, c in out.items() if (x := exact(c))}
                   for a, out in pi.items()}
        self.P = {b: x for b, c in P.items() if (x := exact(c))}

    def pi_elem(self, u):
        out = {}
        for a, c in u.items():
            vec_acc(out, self.pi.get(a, {}), c)
        return out

    def to_json(self):
        return {
            "h": self.h.to_json(),
            "a": list(self.a_labels),
            "pi": {a: {b: scalar_to_str(c) for b, c in out.items()}
                   for a, out in sorted(self.pi.items())},
            "P": {b: scalar_to_str(c)
                  for b, c in sorted(self.P.items())},
        }

    @classmethod
    def from_json(cls, doc):
        expect(doc, "valgebra", ("h", "a", "pi", "P"))
        h = GradedLieAlgebra.from_json(doc["h"])
        pi = {a: {b: scalar_from_str(c) for b, c in out.items()}
              for a, out in doc["pi"].items()}
        P = {b: scalar_from_str(c) for b, c in doc["P"].items()}
        a = list(doc["a"])
        _known_labels(h.space, a + list(pi) + list(P)
                      + [b for out in pi.values() for b in out])
        if len(set(a)) != len(a):
            raise ValueError("duplicate label in the abelian sub-basis")
        return cls(h, a, pi, P)


class JetVAlgebra:
    """The jet multivector model seen as a V-algebra: the full model
    is the ambient graded Lie algebra, the fiber-wedge generators with
    fiber-independent coefficients form the abelian subalgebra, and
    the projection restricts to the zero section keeping only fiber
    directions."""

    def __init__(self, model, P):
        self.model = model
        self.P = {key: x for key, c in P.items() if (x := exact(c))}


def _check_finite_valgebra(V):
    failures = []
    checked = 0
    rep = check_graded_lie(V.h)
    checked += rep.checked
    for w, r in rep.failures:
        failures.append((w, {"lie-axiom": r}))
    aset = set(V.a_labels)
    # the sub-basis is abelian
    for a in V.a_labels:
        for b in V.a_labels:
            checked += 1
            out = V.h.bracket_word(a, b)
            if out:
                failures.append(((a, b), {"abelian": out}))
    # pi is a degree-preserving idempotent projection onto the
    # sub-basis span
    for a in V.h.space.labels:
        checked += 1
        img = V.pi.get(a, {})
        if any(b not in aset for b in img):
            failures.append(((a,), {"pi-image": img}))
        if any(V.h.space.deg[b] != V.h.space.deg[a] for b in img):
            failures.append(((a,), {"pi-degree": img}))
        if V.pi_elem(img) != img:
            failures.append(((a,), {"pi-idempotent": img}))
        if a in aset and img != {a: 1}:
            failures.append(((a,), {"pi-restriction": img}))
    # the kernel of pi is closed under the bracket
    ker = [a for a in V.h.space.labels if not V.pi.get(a)]
    for a in ker:
        for b in ker:
            checked += 1
            out = V.pi_elem(V.h.bracket_word(a, b))
            if out:
                failures.append(((a, b), {"kernel-closed": out}))
    # P has degree 1 and squares to zero
    for b in V.P:
        checked += 1
        if V.h.space.deg[b] != 1:
            failures.append(((b,), {"P-degree": dict(V.P)}))
    pp = V.h.bracket_elems(V.P, V.P)
    checked += 1
    if pp:
        failures.append((("P", "P"), pp))
    return CheckReport("valgebra", fraction_failures(failures), checked)


def _check_jet_valgebra(V):
    """The V-algebra axioms of a jet model, sampled with one fixed
    seed: the Jacobi identity on 40 random triples, kernel closure on
    40 random pairs, commutation on at most 12 generators; the
    Maurer-Cartan condition exactly."""
    model, P = V.model, V.P
    failures = []
    checked = 0
    samples = 40
    rng = random.Random(0)

    def rand_term():
        e = [0] * model.nv
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(model.nv)] += 1
        for i in model.p_idxs:
            e[i] = min(e[i], model.fiber_cap)
        nw = rng.randint(0, 2)
        w = tuple(sorted(rng.sample(range(model.nv),
                                    min(nw, model.nv))))
        return {(tuple(e), w): rng.choice([1, -1, 2])}

    # sampled graded Jacobi identity for the exact bracket
    for _ in range(samples):
        X, Y, Z = rand_term(), rand_term(), rand_term()
        checked += 1
        xb = (len(next(iter(X))[1]) - 1) % 2
        yb = (len(next(iter(Y))[1]) - 1) % 2
        lhs = schouten(X, schouten(Y, Z))
        rhs = vec_acc(schouten(schouten(X, Y), Z),
                      schouten(Y, schouten(X, Z)), (-1) ** (xb * yb))
        res = vec_acc(lhs, rhs, -1)
        if res:
            failures.append((("jacobi",), res))
    # the fiber-wedge generators commute
    space = model.a_space()
    labels = space.labels
    pick = labels if len(labels) <= 12 else rng.sample(labels, 12)
    for a in pick:
        for b in pick:
            checked += 1
            out = schouten(model.label_to_mv(a), model.label_to_mv(b))
            if out:
                failures.append(((a, b), {"abelian": out}))
    # the kernel of the projection is closed under the bracket
    for _ in range(samples):
        X, Y = rand_term(), rand_term()
        X = vec_acc(X, model.pi(X), -1)
        Y = vec_acc(Y, model.pi(Y), -1)
        checked += 1
        out = model.pi(schouten(X, Y))
        if out:
            failures.append((("kernel-closed",), out))
    # the Maurer-Cartan condition
    checked += 1
    if mv_degrees(P) not in ([], [1]):
        failures.append((("P-degree",), P))
    pp = schouten(P, P)
    if pp:
        failures.append((("P", "P"), pp))
    return CheckReport("valgebra", fraction_failures(failures), checked,
                       notes=["jet model: Lie axioms sampled"])


def check_valgebra(V):
    """Verify the V-algebra axioms and the Maurer-Cartan condition;
    failures name the axiom and a witness pair."""
    if isinstance(V, JetVAlgebra):
        return _check_jet_valgebra(V)
    return _check_finite_valgebra(V)


# ---------------------------------------------------------------------------
# derived brackets


def derived_brackets(V, k_max):
    """L-infinity[1]-algebra on the abelian subalgebra by iterated
    bracketing with the Maurer-Cartan element followed by the
    projection.  The result can be curved: the curvature is the
    projection of the Maurer-Cartan element itself.

    For the jet model the generator basis carries the base polynomial
    degree as a weight; operation outputs beyond the base-degree cap
    are truncated, so relation checks filtered by weight remain exact.

    The arity-k operation carries a global sign (-1)^k relative to the
    raw iterated bracket.  This is a convention reconciliation: every
    term of the quadratic relation scales uniformly under it, so the
    relations are unaffected, and it makes the unary operation of the
    jet model the foliation exterior derivative with its usual sign
    (property-tested).
    """
    if isinstance(V, JetVAlgebra):
        return _jet_derived_brackets(V, k_max)
    space = GradedSpace([(a, V.h.space.deg[a]) for a in V.a_labels])
    ops = _derived_ops(space, V.P, k_max, lambda a: {a: 1},
                       V.h.bracket_elems, lambda word, x: V.pi_elem(x))
    return LInftyAlgebra(space, ops, l0=V.pi_elem(V.P), arity_cap=k_max)


def _jet_derived_brackets(V, k_max):
    model = V.model
    space = model.a_space()
    weights = {lab: sum(e) for (e, _), lab in model.gens.items()}
    spilled, gain = False, 0

    def project(word, x):
        nonlocal spilled, gain
        exact = model.pi(x)
        coeffs, sp = model.elem_to_coeffs(exact)
        spilled = spilled or sp
        if exact:
            out_w = max(sum(e[i] for i in model.base_idxs)
                        for (e, _) in exact)
            gain = max(gain, out_w - sum(weights[a] for a in word))
        return coeffs

    ops = _derived_ops(space, V.P, k_max, model.label_to_mv, schouten,
                       project)
    l0, sp = model.elem_to_coeffs(model.pi(V.P))
    spilled = spilled or sp
    coords = tuple(model.ring.names[i] for i in model.base_idxs)
    jet = JetRecord(coords, model.base_cap,
                    tuple(n for n in coords if n.startswith("q")), gain,
                    model.base_cap - 2 * gain if spilled else None)
    return LInftyAlgebra(space, ops, l0=l0, arity_cap=k_max,
                         weights=weights, jet=jet)


def _derived_ops(space, P, k_max, gen, bracket, project):
    """{k: {word: (-1)^k project(word, [..[P, a1], .., ak])}} over the
    canonical words of arity 1..k_max, by one depth-first walk that
    extends a word only while its iterated bracket is nonzero: the
    bracket is bilinear, so every extension of a zero prefix is zero.
    The preorder meets the words of each arity in sym_words order."""
    labs = space.labels
    odd = [space.deg[a] % 2 for a in labs]
    tabs = {k: {} for k in range(1, k_max + 1)}

    def walk(start, word, x):
        k = len(word) + 1
        if k > k_max:
            return
        for i in range(start, len(labs)):
            w = word + (labs[i],)
            cur = bracket(x, gen(labs[i]))
            if cur:
                out = project(w, cur)
                if out:
                    tabs[k][w] = vec_scale((-1) ** k, out)
                walk(i + odd[i], w, cur)

    walk(0, (), P)
    return {k: tab for k, tab in tabs.items() if tab}


def op_weight_gain(A):
    """Largest weight increase of any operation output: 0 without
    weights, and held by the jet record of a weighted algebra (every
    weighted algebra derived brackets build has one) with the truncated
    terms included.  weight_cap = (basis weight bound) - 2 * gain gives
    exact filtered relation checks on truncated algebras."""
    return 0 if A.weights is None else A.jet.gain


# ---------------------------------------------------------------------------
# Poisson structures from constant-rank closed 2-form data


def presymplectic_input(model, omega, R):
    """The data of poisson_from_presymplectic, read: omega as an exact
    antisymmetric m x m matrix of rank m, and R with its zero
    polynomials dropped, each index (j, a) within 1..m x 1..k and each
    polynomial free of the fiber variables.  ValueError otherwise."""
    m, k = model.m, model.k
    if len(omega) != m or any(len(row) != m for row in omega):
        raise ValueError("omega must be %d x %d" % (m, m))
    om = [[exact(x) for x in row] for row in omega]
    for i in range(m):
        for j in range(m):
            if om[i][j] != -om[j][i]:
                raise ValueError("omega must be antisymmetric")
    if m:
        if matrix_rank(om) != m:
            raise ValueError(
                "rank inconsistency: the transverse block must be "
                "nondegenerate (rank %d < %d)"
                % (matrix_rank(om), m))
    Rp = {}
    for (j, a), p in (R or {}).items():
        if not (1 <= j <= m and 1 <= a <= k):
            raise ValueError("splitting index (%d, %d) out of range"
                             % (j, a))
        if poly_deg(p, model.p_idxs) > 0:
            raise ValueError("splitting data must be fiber-free")
        if p:
            Rp[(j, a)] = p
    return om, Rp


def poisson_from_presymplectic(model, omega, R):
    """Poisson bivector on the foliation cotangent bundle model from a
    constant coefficient block omega on the transverse directions and
    a polynomial splitting datum R.

    omega: antisymmetric m x m rational matrix whose (i, j) entry
    multiplies e_i wedge e_j; it must have full rank m (the foliation
    directions carry the kernel of the 2-form).
    R: {(j, alpha): polynomial in the base variables} for the lifted
    transverse frame
      e_j = d/dy_j + sum_a R_j^a d/dq_a
            - sum_{b,n} p_b (dR_j^b/dq_n) d/dp_n.

    The input rules are those of presymplectic_input; the result is
    checked to square to zero under the bracket."""
    m, k = model.m, model.k
    om, Rp = presymplectic_input(model, omega, R)

    def frame(j):
        e = dict(model.vector("y%d" % j))
        for a in range(1, k + 1):
            p = Rp.get((j, a))
            if not p:
                continue
            vec_acc(e, mv_wedge({(ee, ()): c for ee, c in p.items()},
                                model.vector("q%d" % a)))
            for n in range(1, k + 1):
                dp = poly_diff(p, model.ring.name_to_idx["q%d" % n])
                if not dp:
                    continue
                coeff = poly_mul(model.var("p%d" % a), dp)
                vec_acc(e, mv_wedge({(ee, ()): c for ee, c in coeff.items()},
                                    model.vector("p%d" % n)), -1)
        return e

    P = {}
    frames = {j: frame(j) for j in range(1, m + 1)}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if om[i - 1][j - 1]:
                vec_acc(P, mv_wedge(frames[i], frames[j]),
                        Fraction(om[i - 1][j - 1], 2))
    for a in range(1, k + 1):
        vec_acc(P, mv_wedge(model.vector("q%d" % a),
                            model.vector("p%d" % a)))
    pp = schouten(P, P)
    if pp:
        raise ValueError("the bivector does not square to zero; "
                         "witness term %r" % (sorted(pp)[0],))
    return P


# ---------------------------------------------------------------------------
# the localization morphism


def _reweighted(A, weights):
    return LInftyAlgebra(A.space, A.ops, l0=A.l0, arity_cap=A.arity_cap,
                         weights=weights)


def localized_algebra(C, image_vars, j_max):
    """Stage-j_max truncation of an algebra whose generators carry
    polynomial labels: keep the generators of normal degree below
    j_max and restrict the operations.  The normal coordinates are
    those of the jet record outside image_vars.

    The result keeps the base polynomial degree as its weight and the
    jet record of the input, whose check_cap becomes min(jet order,
    j_max - 1) - 2 * gain: since the normal degree is bounded by the
    base degree, relation checks up to that weight see no truncation
    of either kind and are exact."""
    if C.jet is None:
        raise ValueError("localization needs an algebra with a jet record")
    normal = set(C.jet.coords) - set(image_vars)
    keep = [lab for lab in C.space.labels
            if label_weight(lab, normal) < j_max]
    kset = set(keep)
    space = GradedSpace([(lab, C.space.deg[lab]) for lab in keep])
    ops = {}
    for k, tab in C.ops.items():
        sub = {}
        for w, out in tab.items():
            if not all(x in kset for x in w):
                continue
            val = {b: c for b, c in out.items() if b in kset}
            if val:
                sub[w] = val
        if sub:
            ops[k] = sub
    l0 = {b: c for b, c in C.l0.items() if b in kset}
    weights = {lab: label_weight(lab) for lab in keep}
    jet = C.jet._replace(check_cap=min(C.jet.order, j_max - 1)
                         - 2 * C.jet.gain)
    return LInftyAlgebra(space, ops, l0=l0, arity_cap=C.arity_cap,
                         weights=weights, jet=jet), normal


def epsilon_morphism(C, image_vars, j_max):
    """Morphism from a polynomial-labeled algebra to its stage-j_max
    localization at a coordinate subspace: the only component sends a
    generator to its class (zero beyond the jet order).

    Both endpoints of the returned morphism carry the normal-degree
    filtration as weights; the morphism relation holds exactly on
    words of total normal degree below j_max."""
    loc, normal = localized_algebra(C, image_vars, j_max)
    src = _reweighted(C, {lab: label_weight(lab, normal)
                          for lab in C.space.labels})
    comps = {1: {(lab,): {lab: 1} for lab in loc.space.labels}}
    return LInftyMorphism(src, loc, comps, arity_cap=C.arity_cap)
