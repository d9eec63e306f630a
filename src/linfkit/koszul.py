"""Koszul complexes, foliation de Rham complexes, and local algebras
at jet scale.

All rings are polynomial rings truncated at a fixed total degree
(jets at the origin).  Complexes use a staircase cap: the piece with
j wedge factors keeps coefficients of degree at most order - j.  With
that convention the augmented foliation complex is genuinely acyclic
and the Koszul complex of a regular linear sequence is exact in
negative degrees, both certified at the stated jet order by exact
rank computations.

Generator labels have the format "monomial|wedge" of the derived
module, which holds the jet ring, the label codec and the exterior
calculus (`JetRing`, `make_label`, `split_label`, `label_weight`,
`mv_wedge`, `form_d`); the wedge part is "1" for functions, frame
tokens ("a1.a2", in frame order) for Koszul generators, coordinate
differentials ("dq1.dy2") for forms, and "g" for the augmentation copy
of a closed function in degree -2.  Both complexes enumerate one
`staircase` of terms (exponents, word), the word a tuple of letter
indices, so every wedge sign is computed on those indices in derived.
"""

import itertools
from fractions import Fraction

from .gradedlin import (GradedSpace, acc_term, complement_in, exact,
                        expect, matrix_rank, vec_acc, vec_scale,
                        word_degree, words_within)
from .linfty import (JetRecord, LInftyAlgebra, LInftyMorphism,
                     check_morphism, direct_sum, direct_sum_mor,
                     is_quasi_iso, l1_cohomology, quad_residual)
from .derived import (JetRing, form_d, label_weight, make_label, mv_wedge,
                      poly_from_json, poly_mul, poly_to_json, poly_trunc,
                      split_label, term_dw_left)


# ---------------------------------------------------------------------------
# sections


class Section:
    """Tuple of ring elements: a section of a trivialized rank-r
    bundle in the standard orthonormal frame."""

    def __init__(self, ring, comps):
        self.ring = ring
        self.comps = [dict(p) for p in comps]

    @property
    def rank(self):
        return len(self.comps)

    def min_vanishing_order(self):
        """Smallest total degree among all component terms; None for
        the zero section."""
        return min((sum(e) for p in self.comps for e in p), default=None)

    def to_json(self):
        return {"ring": self.ring.to_json(),
                "comps": [poly_to_json(p) for p in self.comps]}

    @classmethod
    def from_json(cls, doc):
        expect(doc, "section", ("ring", "comps"))
        ring = JetRing.from_json(doc["ring"])
        return cls(ring, [poly_from_json(c, ring.nv) for c in doc["comps"]])


# ---------------------------------------------------------------------------
# the staircase basis


def term_label(ring, letters, e, word):
    """Label of the term (exponents, word), the word a tuple of indices
    into letters."""
    return make_label(ring.mono_str(e), tuple(letters[i] for i in word))


def staircase(ring, letters):
    """(label, exponents, word) for every increasing word of j letter
    indices and every monomial of degree at most order - j, by word
    length, then word, then monomial."""
    for j in range(len(letters) + 1):
        for word in itertools.combinations(range(len(letters)), j):
            for e in ring.monomials(ring.order - j):
                yield term_label(ring, letters, e, word), e, word


def frame_letters(rank):
    return ["a%d" % (i + 1) for i in range(rank)]


# ---------------------------------------------------------------------------
# Koszul complexes


def koszul_complex(section):
    """Contraction complex of a section on the exterior algebra of the
    dual frame, with staircase coefficient caps.

    The differential sends a_1 ^ ... ^ a_j to
    sum_i (-1)^(i+1) s_i-th component times the word without a_i;
    it squares to zero (also after truncation, because truncation is
    by an ideal of the coefficient ring)."""
    ring = section.ring
    letters = frame_letters(section.rank)
    labels = []
    weights = {}
    ops = {1: {}}
    for lab, e, word in staircase(ring, letters):
        j = len(word)
        labels.append((lab, -j))
        weights[lab] = sum(e)
        out = {}
        for a in word:
            # the image keeps the cap of the piece with j - 1 wedge
            # factors
            prod = poly_trunc(poly_mul({e: 1}, section.comps[a]),
                              range(ring.nv), ring.order - j + 1)
            _, rest, sgn = term_dw_left(e, word, 1, a)
            for e2, c in prod.items():
                acc_term(out, term_label(ring, letters, e2, rest), sgn * c)
        if out:
            ops[1][(lab,)] = out
    return LInftyAlgebra(GradedSpace(labels), ops if ops[1] else {},
                         arity_cap=4, weights=weights)


def koszul_cohomology(alg):
    return l1_cohomology(alg)


# ---------------------------------------------------------------------------
# foliation de Rham complexes


def closed_functions(ring, fol_idxs):
    """The degree -2 copy of each closed function, a monomial free of
    the foliation variables: (label, weight, l1 image), with l1 the
    inclusion, in monomial order."""
    for e in ring.monomials():
        if not any(e[i] for i in fol_idxs):
            mono = ring.mono_str(e)
            yield make_label(mono, ("g",)), sum(e), {make_label(mono, ()): 1}


def d_form(ring, fol_names, vec):
    """Exterior derivative in the listed foliation directions of a
    form given as a label dictionary; exact, no truncation."""
    terms = {}
    for lab, c in vec.items():
        mono, toks = split_label(lab)
        terms[(ring.mono_parse(mono), toks)] = c
    out = form_d(terms, [(ring.name_to_idx[n], "d" + n) for n in fol_names])
    return {make_label(ring.mono_str(e), w): c for (e, w), c in out.items()}


def foliation_complex(ring, fol_names=None, augmented=False):
    """Differential forms in the foliation directions with truncated
    polynomial coefficients (staircase caps), as a strict algebra with
    only a unary operation.

    With `augmented`, the closed functions (those free of foliation
    variables) are adjoined in degree -2 with the inclusion as the
    differential; the augmented complex is acyclic in every degree."""
    fol_names = list(ring.names) if fol_names is None else list(fol_names)
    for n in fol_names:
        if n not in ring.name_to_idx:
            raise ValueError("unknown foliation variable %r" % (n,))
    fol_idxs = [ring.name_to_idx[n] for n in fol_names]
    # the letters in label order; d lowers the monomial degree as it
    # adds a letter, so it stays on the staircase
    letters = ["d" + n for n in sorted(fol_names)]
    dirs = [(ring.name_to_idx[n], letters.index("d" + n)) for n in fol_names]
    labels = []
    weights = {}
    ops = {1: {}}
    for lab, e, word in staircase(ring, letters):
        labels.append((lab, len(word) - 1))
        weights[lab] = sum(e)
        out = form_d({(e, word): 1}, dirs)
        if out:
            ops[1][(lab,)] = {term_label(ring, letters, e2, w2): c
                              for (e2, w2), c in out.items()}
    if augmented:
        for lab, weight, image in closed_functions(ring, fol_idxs):
            labels.append((lab, -2))
            weights[lab] = weight
            ops[1][(lab,)] = image
    space = GradedSpace(labels)
    # d lowers the weight and the augmentation keeps it, so there is no
    # weight gain, and relation checks on the complex need no cap
    jet = JetRecord(tuple(ring.names), ring.order, tuple(fol_names), 0,
                    None)
    return LInftyAlgebra(space, ops if ops[1] else {}, arity_cap=4,
                         weights=weights, jet=jet)


# ---------------------------------------------------------------------------
# the Poincare primitive


def poincare_primitive(ring, fol_names, xi):
    """Preimage of a closed form of degree >= 1 under the foliation
    exterior derivative, by exact monomial integration along the
    scaling homotopy of the foliation directions.

    Raises ValueError with the residual when the input is not closed.
    Together with evaluation at foliation-coordinates zero this is a
    contracting homotopy: d(primitive(xi)) + primitive(d(xi)) equals
    xi minus its foliation-constant part (property-tested)."""
    res = d_form(ring, fol_names, xi)
    if res:
        raise ValueError("input form is not closed; residual %r"
                         % (sorted(res)[0],))
    fol_idxs = [ring.name_to_idx[n] for n in fol_names]
    out = {}
    for lab, c in xi.items():
        mono, toks = split_label(lab)
        if not toks or toks == ("g",):
            raise ValueError("positive form degree required")
        e = ring.mono_parse(mono)
        denom = sum(e[i] for i in fol_idxs) + len(toks)
        for tok in toks:
            # the coordinate of tok times the contraction with tok
            _, rest, c2 = term_dw_left(e, toks, Fraction(c, denom), tok)
            e2 = list(e)
            e2[ring.name_to_idx[tok[1:]]] += 1
            acc_term(out, make_label(ring.mono_str(tuple(e2)), rest), c2)
    return out


# ---------------------------------------------------------------------------
# extending operations over the augmentation


def augment_extension(Omega, k_max):
    """Extend the operations of a foliation-form algebra over the
    degree -2 copy of its closed functions.

    The unary operation on the new generators is the inclusion.  The
    mixed higher operations are forced by the quadratic relations:
    processing words of each arity in descending total degree, the
    relation residual with the unknown entry absent is a closed form,
    and the new operation is minus its primitive (minus the matching
    degree -2 generators at function level).  A non-closed residual or
    a nonzero residual below the integrable range signals an
    inconsistency in the input operations and raises.

    Truncation guard: new operations are only assigned on words whose
    total weight keeps every residual term below the coefficient cap,
    so each assignment integrates an exact residual.  The jet record
    of the result holds the gain and `check_cap`: relation checks
    filtered by that weight are exact (and tested to pass).  The input
    needs a jet record for its coordinates and foliation directions."""
    rec = Omega.jet
    if rec is None:
        raise ValueError("augmentation needs an algebra with a jet record")
    ring, fol_names = JetRing(rec.coords, rec.order), rec.fol
    fol_idxs = [ring.name_to_idx[n] for n in fol_names]
    labels = [(lab, Omega.space.deg[lab]) for lab in Omega.space.labels]
    ops = {k: {w: dict(out) for w, out in tab.items()}
           for k, tab in Omega.ops.items()}
    for lab, _, image in closed_functions(ring, fol_idxs):
        if lab not in Omega.space.deg:
            labels.append((lab, -2))
        ops.setdefault(1, {})[(lab,)] = image
    space = GradedSpace(labels)
    weights = {lab: label_weight(lab) for lab, _ in labels}
    cap = max(k_max, Omega.arity_cap)

    def algebra(jet=None):
        return LInftyAlgebra(space, ops, l0=Omega.l0, arity_cap=cap,
                             weights=weights, jet=jet)

    alg = algebra()
    g0 = rec.gain
    gain = g0
    # words above this weight could see truncated residual terms; they
    # get no assigned operation and stay outside the certified range
    guard = ring.order - 2 * (g0 + 1) - g0

    def is_aug(lab):
        return split_label(lab)[1] == ("g",)

    for m in range(2, k_max + 1):
        words = [w for w in words_within(space, m, weights, guard)
                 if any(is_aug(x) for x in w)]
        words.sort(key=lambda w: -word_degree(space, w))
        for w in words:
            res = quad_residual(alg, w)
            if not res:
                continue
            deg_r = word_degree(space, w) + 2
            if deg_r >= 0:
                eta = vec_scale(-1, poincare_primitive(ring, fol_names,
                                                       res))
            elif deg_r == -1:
                bad = [lab for lab in res
                       if any(ring.mono_parse(split_label(lab)[0])[i]
                              for i in fol_idxs)]
                if bad:
                    raise ValueError(
                        "function-level residual is not closed at %r"
                        % (bad[0],))
                eta = {make_label(split_label(lab)[0], ("g",)): -c
                       for lab, c in res.items()}
            else:
                raise ValueError(
                    "unintegrable residual in degree %d at word %r"
                    % (deg_r, w))
            kept = {lab: c for lab, c in eta.items()
                    if lab in space.deg}
            iw = sum(weights[x] for x in w)
            for lab in eta:
                gain = max(gain, label_weight(lab) - iw)
            if kept:
                # algebras are immutable: the next residual reads a new
                # one that carries this operation
                ops.setdefault(m, {})[w] = kept
                alg = algebra()
    check_cap = min(guard - (g0 + 1), ring.order - 2 * gain)
    return algebra(rec._replace(gain=gain, check_cap=check_cap))


# ---------------------------------------------------------------------------
# local algebras


class LocalAlgebra:
    """Koszul complex of a section alongside the augmented foliation
    de Rham complex of the same patch; the two summands never
    interact."""

    def __init__(self, koszul, derham, section):
        self.koszul = koszul
        self.derham = derham
        self.section = section
        self.ring = section.ring
        self.algebra = direct_sum(koszul, derham)


def build_local_algebra(section):
    """Local algebra of a chart whose 2-form block vanishes: the
    foliation fills the whole patch, so the de Rham summand uses every
    coordinate direction and only the augmentation constant survives
    in degree -2."""
    kos = koszul_complex(section)
    der = foliation_complex(section.ring, augmented=True)
    return LocalAlgebra(kos, der, section)


def expand_chart(L, new_vars):
    """Stabilized chart: new coordinate directions paired with new
    frame directions, the section extended by the identity on the new
    block.  Returns the expanded local algebra and the strict
    label-inclusion morphism into it, which is a quasi-isomorphism."""
    if not new_vars:
        return L, LInftyMorphism.identity(L.algebra)
    ring = L.ring
    ring2 = JetRing(ring.names + list(new_vars), ring.order)
    comps = [ring2.embed_from(ring, p) for p in L.section.comps]
    comps += [ring2.var(v) for v in new_vars]
    L2 = build_local_algebra(Section(ring2, comps))
    tset = set(L2.algebra.space.labels)
    comps1 = {}
    for lab in L.algebra.space.labels:
        if lab not in tset:
            continue
        comps1[(lab,)] = {lab: 1}
    pihat = LInftyMorphism(L.algebra, L2.algebra, {1: comps1},
                           arity_cap=L.algebra.arity_cap)
    return L2, pihat


# ---------------------------------------------------------------------------
# embedding acceptance


class EmbeddingReport:
    """Outcome of the chart-embedding acceptance check."""

    def __init__(self, accepted, reason, eta=None, checks=None):
        self.accepted = accepted
        self.reason = reason
        self.eta = eta
        self.checks = checks or {}

    def to_json(self):
        return {"accepted": self.accepted, "reason": self.reason,
                "checks": {k: str(v) for k, v in
                           sorted(self.checks.items())}}


def fooo_embedding_check(section, amb_section, bundle_map):
    """Acceptance check for an embedding of charts given by the
    inclusion of coordinate subspaces (by variable name) and a
    constant bundle map with orthonormal columns.

    Accepts when the ambient section restricts to the mapped section,
    its complement components vanish to order exactly one along the
    image, and their linearization identifies the normal directions
    with the complement of the bundle image.  On acceptance the
    induced morphism of local algebras (coefficient inclusion on the
    de Rham side, bundle map on the frame side) is built and certified
    a quasi-isomorphism by exact ranks, including the vanishing of the
    quotient Koszul cohomology in every degree."""
    ring, amb = section.ring, amb_section.ring
    for n in ring.names:
        if n not in amb.name_to_idx:
            raise ValueError("image variable %r missing from the "
                             "ambient chart" % (n,))
    if amb.order != ring.order:
        raise ValueError("jet orders differ")
    r, rp = section.rank, amb_section.rank
    B = [[exact(x) for x in row] for row in bundle_map]
    if len(B) != rp or any(len(row) != r for row in B):
        raise ValueError("bundle map must be %d x %d" % (rp, r))
    for i in range(r):
        for j in range(r):
            dot = sum(B[a][i] * B[a][j] for a in range(rp))
            if dot != (1 if i == j else 0):
                raise ValueError("bundle map columns must be "
                                 "orthonormal")
    normal = [n for n in amb.names if n not in ring.name_to_idx]
    normal_idxs = [amb.name_to_idx[n] for n in normal]
    checks = {"normal": tuple(normal)}

    def restrict(p):
        """Evaluate at normal coordinates zero, as a polynomial of the
        sub-ring."""
        out = {}
        for e, c in p.items():
            if any(e[i] for i in normal_idxs):
                continue
            e2 = tuple(e[amb.name_to_idx[n]] for n in ring.names)
            out[e2] = c
        return out

    # the ambient section restricts to the bundle image of the section
    for b in range(rp):
        want = {}
        for i in range(r):
            vec_acc(want, section.comps[i], B[b][i])
        got = restrict(amb_section.comps[b])
        if vec_acc(got, want, -1):
            return EmbeddingReport(
                False, "ambient section does not restrict to the "
                "mapped section in frame component %d" % (b + 1),
                checks=checks)
    # complement components of the ambient section
    cols = [[B[a][i] for a in range(rp)] for i in range(r)]
    amb_basis = [[int(i == j) for j in range(rp)] for i in range(rp)]
    comp_frame = complement_in(amb_basis, cols)
    checks["complement_rank"] = len(comp_frame)
    if len(comp_frame) != len(normal):
        return EmbeddingReport(
            False, "tangent condition fails: %d complement frame "
            "directions against %d normal coordinates"
            % (len(comp_frame), len(normal)), checks=checks)
    comp_secs = []
    for vec in comp_frame:
        p = {}
        for a in range(rp):
            vec_acc(p, amb_section.comps[a], vec[a])
        comp_secs.append(p)
    for k2, p in enumerate(comp_secs):
        orders = [sum(e[i] for i in normal_idxs) for e in p]
        if not p or min(orders) >= 2:
            return EmbeddingReport(
                False, "complement section component %d vanishes to "
                "order >= 2 along the image, violating the regular "
                "sequence hypothesis" % (k2 + 1), checks=checks)
    # linearization of the complement components in the normal
    # directions at the origin
    lin = []
    for p in comp_secs:
        row = []
        for i in normal_idxs:
            e = [0] * amb.nv
            e[i] = 1
            row.append(p.get(tuple(e), 0))
        lin.append(row)
    rk = matrix_rank(lin) if lin else 0
    checks["linearization_rank"] = rk
    if rk != len(normal):
        covered = {i for row in lin for i, c in enumerate(row) if c}
        missing = [normal[i] for i in range(len(normal))
                   if i not in covered]
        name = missing[0] if missing else normal[0]
        return EmbeddingReport(
            False, "tangent condition fails: degenerate normal "
            "direction %s" % name, checks=checks)

    # build the induced morphism of the local algebras (of
    # build_local_algebra) from their summands: the inclusion of
    # coefficients on the de Rham side; on the Koszul side the wedge of
    # the frame images under the bundle map.  Both write a monomial as
    # the ambient ring writes it, whatever the order of the chart's
    # variables
    pos = [amb.name_to_idx[n] for n in ring.names]

    def amb_mono(e):
        e2 = [0] * amb.nv
        for i, x in zip(pos, e):
            e2[i] = x
        return amb.mono_str(e2)

    K, K2 = koszul_complex(section), koszul_complex(amb_section)
    R = foliation_complex(ring, augmented=True)
    R2 = foliation_complex(amb, augmented=True)
    images = [{((), (b,)): B[b][i] for b in range(rp) if B[b][i]}
              for i in range(r)]
    letters2 = frame_letters(rp)
    comps = {}
    for lab, e, word in staircase(ring, frame_letters(r)):
        img = {((), ()): 1}
        for i in word:
            img = mv_wedge(img, images[i])
        mono = amb_mono(e)
        out = {}
        for (_, w2), c in img.items():
            lab2 = make_label(mono, tuple(letters2[b] for b in w2))
            if lab2 in K2.space.deg:
                out[lab2] = c
        if out:
            comps[(lab,)] = out
    push = LInftyMorphism(K, K2, {1: comps}, arity_cap=K.arity_cap)
    same = {}
    for lab in R.space.labels:
        mono, word = split_label(lab)
        lab2 = make_label(amb_mono(ring.mono_parse(mono)), word)
        if lab2 in R2.space.deg:
            same[(lab,)] = {lab2: 1}
    incl = LInftyMorphism(R, R2, {1: same}, arity_cap=R.arity_cap)
    eta = direct_sum_mor(push, incl)
    # the weight the chain relation is checked to: the jet order less
    # the section's vanishing order, at least 1 (also for a zero section)
    cap = ring.order - max(1, section.min_vanishing_order() or 0)
    rep = check_morphism(eta, up_to=1, weight_cap=cap)
    checks["chain_map"] = rep.ok
    if not rep.ok:
        return EmbeddingReport(
            False, "induced map fails the chain relation", eta=eta,
            checks=checks)
    ok = is_quasi_iso(eta)
    checks["quasi_iso"] = ok
    if not ok:
        return EmbeddingReport(
            False, "induced map is not a quasi-isomorphism at this "
            "jet order", eta=eta, checks=checks)
    # cone(eta) is cone(push) + cone(incl), so its acyclicity makes the
    # Koszul quotient acyclic in every degree
    checks["koszul_quotient"] = {d: 0 for d in K2.space.degrees()}
    return EmbeddingReport(True, "accepted", eta=eta, checks=checks)
