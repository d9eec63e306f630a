"""Tests for V-algebras and derived brackets.

Oracles: the bracket axioms (graded antisymmetry, Jacobi, Leibniz,
and the normalization on coordinate vector fields) are property
tested; derived operations are checked for graded symmetry directly
against permuted iterated brackets; every produced algebra goes
through the generic relation checker and the independent coalgebra
differential; cohomology ranks decide quasi-isomorphism questions.
The zero-pruned derived-bracket walk is compared with the unpruned
per-arity loop of bracket_oracle.py on random V-algebras.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfkit import derived
from linfkit.gradedlin import GradedSpace, koszul_sign, vec_acc, vec_scale
from linfkit.derived import (GradedLieAlgebra, JetMultivectorModel, JetRing,
                             JetVAlgebra, VAlgebra,
                             check_graded_lie, check_valgebra,
                             derived_brackets, epsilon_morphism, form_d,
                             label_weight, localized_algebra, make_label,
                             mv_from_json, mv_to_json,
                             mv_wedge, op_weight_gain,
                             poisson_from_presymplectic, poly_diff,
                             poly_from_json, poly_mul, poly_to_json,
                             schouten, split_label)
from linfkit.linfty import (check_morphism, check_relations,
                            is_quasi_iso, l1_cohomology)

import bracket_oracle
import term_oracle


# ---------------------------------------------------------------------------
# fixtures


def flat_model():
    return JetMultivectorModel(0, 2, base_cap=3, fiber_cap=2)


def nonflat_model():
    """Transverse 2-plane with the standard symplectic block and a
    splitting that tilts the first transverse direction into the
    foliation, linearly in the leaf coordinate."""
    m = JetMultivectorModel(2, 1, base_cap=3, fiber_cap=2)
    P = poisson_from_presymplectic(m, [[0, 1], [-1, 0]],
                                   {(1, 1): m.var("q1")})
    return m, P


def finite_binary_valgebra():
    """Hand-built five generator V-algebra whose derived brackets have
    a nonzero binary operation: bracketing the degree-1 element into
    either abelian generator lands in the kernel, and one more bracket
    returns to the abelian part."""
    S = GradedSpace([("x", -1), ("y", -1), ("z", -1),
                     ("u", 0), ("v", 0), ("P", 1)])
    tab = {
        ("P", "x"): {"u": F(1)},
        ("P", "y"): {"v": F(1)},
        ("u", "y"): {"z": F(1)},
        ("v", "x"): {"z": F(-1)},
    }
    h = GradedLieAlgebra(S, tab)
    pi = {a: ({a: F(1)} if a in ("x", "y", "z") else {})
          for a in S.labels}
    return VAlgebra(h, ["x", "y", "z"], pi, {"P": F(1)})


# ---------------------------------------------------------------------------
# polynomial and multivector primitives


def test_poly_primitives():
    nv = 2
    p = vec_acc({(1, 0): F(2)}, {(0, 1): F(1)})
    q = poly_mul(p, p)
    assert q == {(2, 0): F(4), (1, 1): F(4), (0, 2): F(1)}
    assert poly_diff(q, 0) == {(1, 0): F(8), (0, 1): F(4)}
    assert poly_from_json(poly_to_json(q)) == q


def test_mv_wedge_signs():
    a = {((0,), (0,)): F(1)}
    b = {((0,), (1,)): F(1)}
    assert mv_wedge(a, b) == {((0,), (0, 1)): F(1)}
    assert mv_wedge(b, a) == {((0,), (0, 1)): F(-1)}
    assert mv_wedge(a, a) == {}
    X = mv_wedge(a, b)
    assert mv_from_json(mv_to_json(X)) == X


def _rand_homog(rng, nv=4):
    length = rng.randint(0, 3)
    out = {}
    for _ in range(rng.randint(1, 2)):
        e = tuple(rng.randint(0, 2) for _ in range(nv))
        w = tuple(sorted(rng.sample(range(nv), length)))
        out[(e, w)] = F(rng.choice([1, -1, 2]))
    return out, length - 1


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_form_d_squares_to_zero_and_is_a_derivation(seed):
    # d in a random subset of the directions, each with a random letter,
    # so the letter order differs from the coordinate order; the forms
    # carry the other letters too
    rng = random.Random(seed)
    nv = 4
    letters = rng.sample(range(nv), nv)
    dirs = [(i, letters[i]) for i in sorted(rng.sample(range(nv),
                                                       rng.randint(1, nv)))]
    rng.shuffle(dirs)
    a, pa = _rand_homog(rng, nv)
    b, _ = _rand_homog(rng, nv)
    assert form_d(form_d(a, dirs), dirs) == {}
    lhs = form_d(mv_wedge(a, b), dirs)
    rhs = vec_acc(mv_wedge(form_d(a, dirs), b),
                  mv_wedge(a, form_d(b, dirs)), (-1) ** (pa + 1))
    assert vec_acc(lhs, rhs, -1) == {}


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_schouten_antisymmetry_and_jacobi(seed):
    rng = random.Random(seed)
    X, xb = _rand_homog(rng)
    Y, yb = _rand_homog(rng)
    Z, zb = _rand_homog(rng)
    before = (dict(X), dict(Y), dict(Z))
    lhs = schouten(X, Y)
    rhs = vec_scale(-((-1) ** ((xb % 2) * (yb % 2))), schouten(Y, X))
    assert vec_acc(lhs, rhs, -1) == {}
    jac = vec_acc(
        vec_acc(schouten(X, schouten(Y, Z)), schouten(schouten(X, Y), Z), -1),
        schouten(Y, schouten(X, Z)), -((-1) ** ((xb % 2) * (yb % 2))))
    assert jac == {}
    # the derived-bracket walk brackets one prefix value into every
    # extension of it, so the bracket must leave its inputs alone
    assert (X, Y, Z) == before


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_schouten_leibniz(seed):
    rng = random.Random(seed)
    X, xb = _rand_homog(rng)
    Y, yb = _rand_homog(rng)
    Z, zb = _rand_homog(rng)
    lhs = schouten(X, mv_wedge(Y, Z))
    rhs = vec_acc(mv_wedge(schouten(X, Y), Z), mv_wedge(Y, schouten(X, Z)),
                  (-1) ** ((xb % 2) * ((yb + 1) % 2)))
    assert vec_acc(lhs, rhs, -1) == {}


def test_schouten_normalization():
    # bracketing a coordinate vector field with a function derives it
    m = JetMultivectorModel(1, 1, base_cap=3)
    f = poly_mul(m.var("q1"), m.var("q1"))
    out = schouten(m.vector("q1"), {(e, ()): c for e, c in f.items()})
    assert out == {(next(iter(m.var("q1"))), ()): F(2)}


def fiber_level(m, X):
    """Smallest fiber degree of any coefficient term of X: the stage of
    the fiber-ideal filtration that contains X (a sentinel for zero)."""
    return min((sum(e[i] for i in m.p_idxs) for e, _ in X), default=10 ** 9)


def test_fiber_filtration_drops_one_level():
    # coefficient fiber-degree j against j' brackets into j + j' - 1
    rng = random.Random(5)
    m = JetMultivectorModel(1, 2, base_cap=3, fiber_cap=3)
    for _ in range(40):
        X, _ = _rand_homog(rng, nv=m.nv)
        Y, _ = _rand_homog(rng, nv=m.nv)
        lv = fiber_level(m, schouten(X, Y))
        assert lv >= fiber_level(m, X) + fiber_level(m, Y) - 1


# ---------------------------------------------------------------------------
# V-algebra axioms


def test_trivial_abelian_valgebra_passes():
    S = GradedSpace([("u", 0), ("v", 1)])
    V = VAlgebra(GradedLieAlgebra(S, {}), ["u", "v"],
                 {"u": {"u": 1}, "v": {"v": 1}}, {})
    assert check_valgebra(V).ok


def test_finite_binary_valgebra_passes():
    V = finite_binary_valgebra()
    assert check_graded_lie(V.h).ok
    assert check_valgebra(V).ok


def test_jet_valgebra_passes():
    m, P = nonflat_model()
    assert check_valgebra(JetVAlgebra(m, P)).ok


def test_perturbed_element_fails_maurer_cartan():
    m, P = nonflat_model()
    bad = vec_acc(dict(P), mv_wedge(
        {(next(iter(m.var("y1"))), ()): F(1)},
        mv_wedge(m.vector("y1"), m.vector("q1"))))
    rep = check_valgebra(JetVAlgebra(m, bad))
    assert not rep.ok
    assert any(w == ("P", "P") for w, _ in rep.failures)


def test_degree_dropping_projection_fails():
    V = finite_binary_valgebra()
    pi = dict(V.pi)
    pi["u"] = {"z": F(1)}
    rep = check_valgebra(VAlgebra(V.h, V.a_labels, pi, V.P))
    assert not rep.ok
    assert "pi-degree" in {name for _, r in rep.failures for name in r}


def test_broken_kernel_projection_fails():
    # two kernel elements bracketing back into the distinguished part
    S = GradedSpace([("a", 0), ("u", 0), ("v", 0)])
    h = GradedLieAlgebra(S, {("u", "v"): {"a": F(1)}})
    assert check_graded_lie(h).ok
    bad = VAlgebra(h, ["a"], {"a": {"a": 1}, "u": {}, "v": {}}, {})
    rep = check_valgebra(bad)
    assert not rep.ok
    fails = {name for _, r in rep.failures for name in r}
    assert fails == {"kernel-closed"}


# ---------------------------------------------------------------------------
# derived brackets


def test_central_element_gives_zero_brackets():
    S = GradedSpace([("a", 0), ("P", 1)])
    V = VAlgebra(GradedLieAlgebra(S, {}), ["a"],
                 {"a": {"a": 1}, "P": {}}, {"P": F(1)})
    A = derived_brackets(V, 3)
    assert A.ops == {} and A.l0 == {}


def test_finite_binary_derived_brackets():
    V = finite_binary_valgebra()
    A = derived_brackets(V, 3)
    assert A.l0 == {}
    assert 1 not in A.ops
    assert A.op_word(2, ("x", "y")) == {"z": F(1)}
    rep = check_relations(A, up_to=3)
    assert rep.ok, rep.failures[:3]
    assert not term_oracle.codifferential_square(A, 3)


def test_flat_model_unary_is_foliation_derivative():
    m = flat_model()
    P = poisson_from_presymplectic(m, [], {})
    A = derived_brackets(JetVAlgebra(m, P), 3)
    # strictly a complex: no curvature, no higher operations
    assert A.l0 == {} and sorted(A.ops) == [1]
    # the unary operation is the leafwise exterior derivative
    assert A.op_word(1, ("q1^2|1",)) == {"q1|dq1": F(2)}
    assert A.op_word(1, ("q1|dq2",)) == {"1|dq1.dq2": F(1)}
    assert A.op_word(1, ("1|dq1.dq2",)) == {}
    assert check_relations(A, up_to=3, weight_cap=m.base_cap).ok


def test_nonflat_model_binary_bracket_and_relations():
    m, P = nonflat_model()
    A = derived_brackets(JetVAlgebra(m, P), 4)
    assert A.l0 == {}
    assert A.ops.get(2), "expected a nonzero binary operation"
    cap = m.base_cap - 2 * op_weight_gain(A)
    rep = check_relations(A, up_to=4, weight_cap=cap)
    assert rep.ok, rep.failures[:3]


def test_derived_ops_graded_symmetry():
    # the stored canonical-word value agrees with the raw iterated
    # bracket of any permutation, up to the sign of the permutation
    m, P = nonflat_model()
    A = derived_brackets(JetVAlgebra(m, P), 3)
    rng = random.Random(11)
    labels = A.space.labels
    for _ in range(25):
        word = tuple(rng.choice(labels) for _ in range(rng.choice([2, 3])))
        cur = dict(P)
        for x in word:
            cur = schouten(cur, m.label_to_mv(x))
        raw, _ = m.elem_to_coeffs(m.pi(cur))
        raw = {b: (-1) ** len(word) * c for b, c in raw.items()}
        degs = [A.space.deg[x] for x in word]
        order = sorted(range(len(word)), key=lambda i: (word[i], i))
        sgn = koszul_sign(degs, order)
        canon = tuple(word[i] for i in order)
        stored = A.op_word(len(word), canon)
        if sgn == 0:
            continue
        assert raw == {b: sgn * c for b, c in stored.items()}


COEFFS = [F(1), F(-1), F(2), F(1, 2)]

# (m, k, base_cap) of jet models small enough for the unpruned oracle
JET_SHAPES = [(0, 1, 2), (0, 2, 2), (0, 2, 3), (2, 1, 1), (2, 1, 2),
              (2, 2, 1)]


@st.composite
def finite_valgebras(draw):
    """A random degree-preserving bracket table, sub-basis, projection
    and degree-1 element: the builders use no other V-algebra axiom, so
    none is imposed."""
    degs = draw(st.permutations(
        [-1, 0, 1] + draw(st.lists(st.integers(-1, 1), max_size=3))))
    S = GradedSpace(list(zip("abcdef", degs)))
    labels, coeff = S.labels, st.sampled_from(COEFFS)

    def some(outs):
        """{out: coeff} for an out drawn from outs, or nothing."""
        if outs and draw(st.booleans()):
            return {draw(st.sampled_from(outs)): draw(coeff)}
        return {}

    tab = {(x, y): some(S.basis_in_degree(S.deg[x] + S.deg[y]))
           for x, y in itertools.combinations_with_replacement(labels, 2)}
    a = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    pi = {x: {x: F(1)} if x in a else
          some([y for y in a if S.deg[y] == S.deg[x]]) for x in labels}
    P = {x: draw(coeff) for x in draw(st.lists(
        st.sampled_from(S.basis_in_degree(1)), min_size=1, unique=True))}
    return VAlgebra(GradedLieAlgebra(S, tab), a, pi, P)


@st.composite
def jet_valgebras(draw):
    """The Poisson element of a flat (no splitting datum) or non-flat
    jet model, plus at times a stray term: curvature and outputs beyond
    the base cap then show up."""
    m, k, cap = draw(st.sampled_from(JET_SHAPES))
    model = JetMultivectorModel(m, k, base_cap=cap)
    base = model.base_idxs
    R = {}
    for j, a in itertools.product(range(1, m + 1), range(1, k + 1)):
        if draw(st.booleans()):
            e = [0] * model.nv
            e[draw(st.sampled_from(base))] += draw(st.integers(1, 2))
            R[(j, a)] = {tuple(e): draw(st.sampled_from(COEFFS))}
    omega = [[0, 1], [-1, 0]] if m else []
    try:
        P = poisson_from_presymplectic(model, omega, R)
    except ValueError:
        # a splitting datum whose bivector does not square to zero
        P = poisson_from_presymplectic(model, omega, {})
    if draw(st.booleans()):
        # free of the fiber coordinates; the fiber pair, when there is
        # one, is the last pair and is drawn first
        e = tuple(draw(st.integers(0, 2)) if i in base else 0
                  for i in range(model.nv))
        w = draw(st.sampled_from(
            list(itertools.combinations(range(model.nv), 2))[::-1]))
        P = vec_acc(dict(P), {(e, w): draw(st.sampled_from(COEFFS))})
    return JetVAlgebra(model, P)


def same_algebra(A, B):
    assert A.space.to_json() == B.space.to_json()
    assert [(k, list(tab)) for k, tab in A.ops.items()] == \
        [(k, list(tab)) for k, tab in B.ops.items()]
    assert A.ops == B.ops and A.l0 == B.l0
    assert A.weights == B.weights and A.jet == B.jet


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(V=finite_valgebras(), k_max=st.integers(1, 4))
def test_finite_walk_matches_unpruned_oracle(V, k_max):
    same_algebra(derived_brackets(V, k_max),
                 bracket_oracle.derived_brackets(V, k_max))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(V=jet_valgebras(), k_max=st.integers(1, 3))
def test_jet_walk_matches_unpruned_oracle(V, k_max):
    same_algebra(derived_brackets(V, k_max),
                 bracket_oracle.derived_brackets(V, k_max))


@pytest.mark.parametrize("kind", ["finite", "jet"])
def test_zero_prefix_is_not_extended(kind, monkeypatch):
    """Every extension of a word whose bracket is zero is zero: with a
    central Maurer-Cartan element the bracket runs once per generator."""
    calls = []
    if kind == "finite":
        S = GradedSpace([("a", 0), ("b", 0), ("c", -1), ("P", 1)])
        h = GradedLieAlgebra(S, {("a", "b"): {"c": F(1)}})
        V = VAlgebra(h, ["a", "b", "c"],
                     {x: {x: 1} for x in "abc"}, {"P": F(1)})
        bracket = h.bracket_elems
        h.bracket_elems = lambda u, v: calls.append(v) or bracket(u, v)
        n = 3
    else:
        V = JetVAlgebra(flat_model(), {})
        monkeypatch.setattr(derived, "schouten",
                            lambda X, Y: calls.append(Y) or schouten(X, Y))
        n = V.model.a_space().dim
    A = derived_brackets(V, 4)
    assert A.ops == {} and len(calls) == n


# ---------------------------------------------------------------------------
# Poisson structures from 2-form data


def test_poisson_flat_is_tautological_pairing():
    m = flat_model()
    P = poisson_from_presymplectic(m, [], {})
    want = vec_acc(mv_wedge(m.vector("q1"), m.vector("p1")),
                  mv_wedge(m.vector("q2"), m.vector("p2")))
    assert P == want
    assert m.pi(P) == {}


def test_poisson_pure_transverse_block():
    m = JetMultivectorModel(2, 0, base_cap=2)
    P = poisson_from_presymplectic(m, [[0, 2], [-2, 0]], {})
    assert P == vec_scale(2, mv_wedge(m.vector("y1"), m.vector("y2")))
    assert m.pi(P) == {}


def test_poisson_with_splitting_squares_to_zero():
    m, P = nonflat_model()
    assert schouten(P, P) == {}
    assert m.pi(P) == {}


def test_poisson_rejects_degenerate_block():
    m = JetMultivectorModel(2, 1, base_cap=2)
    with pytest.raises(ValueError, match="rank"):
        poisson_from_presymplectic(m, [[0, 0], [0, 0]], {})


def test_poisson_rejects_fiber_dependent_splitting():
    m = JetMultivectorModel(2, 1, base_cap=2)
    with pytest.raises(ValueError, match="fiber"):
        poisson_from_presymplectic(m, [[0, 1], [-1, 0]],
                                   {(1, 1): m.var("p1")})


# ---------------------------------------------------------------------------
# localization at coordinate subspaces


def test_localized_algebra_relations():
    m, P = nonflat_model()
    A = derived_brackets(JetVAlgebra(m, P), 3)
    loc, normal = localized_algebra(A, ["y1", "q1"], 2)
    assert normal == {"y2"}
    cap = min(m.base_cap, 2 - 1) - 2 * op_weight_gain(A)
    assert check_relations(loc, up_to=3, weight_cap=cap).ok


def test_localize_surjective_is_identity():
    m, P = nonflat_model()
    A = derived_brackets(JetVAlgebra(m, P), 3)
    loc, normal = localized_algebra(A, ["y1", "y2", "q1"], 5)
    assert normal == set()
    assert loc.space == A.space and loc.ops == A.ops


def test_localize_order_one_kills_normal_dependence():
    m, P = nonflat_model()
    A = derived_brackets(JetVAlgebra(m, P), 3)
    loc, _ = localized_algebra(A, ["y1", "q1"], 1)
    assert all(label_weight(lab, {"y2"}) == 0
               for lab in loc.space.labels)


# ---------------------------------------------------------------------------
# the localization morphism


def test_epsilon_is_morphism_below_jet_order():
    m, P = nonflat_model()
    A = derived_brackets(JetVAlgebra(m, P), 3)
    eps = epsilon_morphism(A, ["y1", "q1"], 2)
    assert sorted(eps.comps) == [1]
    rep = check_morphism(eps, up_to=3, weight_cap=1)
    assert rep.ok, rep.failures[:3]


def test_epsilon_binary_identity_on_words():
    # the single component intertwines the binary operations exactly on
    # words below the jet order
    m, P = nonflat_model()
    A = derived_brackets(JetVAlgebra(m, P), 3)
    eps = epsilon_morphism(A, ["y1", "q1"], 2)
    tset = set(eps.target.space.labels)
    for word, out in A.ops.get(2, {}).items():
        if any(x not in tset for x in word):
            continue
        if sum(eps.source.weights[x] for x in word) > 1:
            continue
        lhs = {b: c for b, c in out.items() if b in tset}
        assert lhs == eps.target.op_word(2, word)


def test_epsilon_quasi_iso_oracle():
    m, P = nonflat_model()
    A = derived_brackets(JetVAlgebra(m, P), 3)
    # the surjective localization is an isomorphism
    assert is_quasi_iso(epsilon_morphism(A, ["y1", "y2", "q1"], 5))
    # a proper coordinate subspace at low jet order changes the ranks
    eps = epsilon_morphism(A, ["y1", "q1"], 2)
    assert not is_quasi_iso(eps)
    hs = l1_cohomology(eps.source)
    ht = l1_cohomology(eps.target)
    assert hs[-1] != ht[-1]


# ---------------------------------------------------------------------------
# serialization


def test_valgebra_json_roundtrip():
    V = finite_binary_valgebra()
    W = VAlgebra.from_json(V.to_json())
    assert W.h.space == V.h.space
    assert W.h.table == V.h.table
    assert W.pi == V.pi and W.P == V.P
    assert check_valgebra(W).ok


def test_label_weights():
    assert label_weight("1|dq1") == 0
    assert label_weight("y1^2.q1|1") == 3
    assert label_weight("y1^2.q1|1", {"y1"}) == 2


# ---------------------------------------------------------------------------
# the generator-label codec

NAMES = ["y1", "y2", "q1", "q2", "q10", "p1", "z"]
TOKENS = ["a1", "a2", "dq1", "dq2", "dy1", "g"]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_label_codec_roundtrip(data):
    names = data.draw(st.lists(st.sampled_from(NAMES), max_size=4,
                               unique=True))
    ring = JetRing(names, 3)
    e = tuple(data.draw(st.lists(st.integers(0, 4), min_size=len(names),
                                 max_size=len(names))))
    toks = tuple(sorted(data.draw(st.sets(st.sampled_from(TOKENS),
                                          max_size=3))))
    assert ring.monomials() == sorted(
        x for x in itertools.product(range(4), repeat=len(names))
        if sum(x) <= 3)
    mono = ring.mono_str(e)
    label = make_label(mono, toks)
    assert ring.mono_parse(mono) == e
    assert split_label(label) == (mono, toks)
    assert ring.label_parse(label, TOKENS) == (e, toks)
    sub = data.draw(st.sets(st.sampled_from(names))) if names else set()
    assert label_weight(label) == sum(e)
    assert label_weight(label, sub) == \
        sum(x for n, x in zip(names, e) if n in sub)


@pytest.mark.parametrize("label", [
    "q1dq2", "z9|dq1", "q1|dz7", "q1|dq2.dq2", "q1|dq2.dq1", "q1^x|dq2",
    "q1^1|1", "q1^0|1", "q2.q1|1", "q1.q1|1", "q1|", "|1", "q1|1|1"])
def test_label_parse_rejects_non_canonical(label):
    ring = JetRing(["q1", "q2"], 3)
    with pytest.raises(ValueError):
        ring.label_parse(label, ["dq1", "dq2"])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(m=st.integers(0, 2), k=st.integers(0, 2), cap=st.integers(0, 3))
def test_generator_table(m, k, cap):
    """The model's one table: a bijection between terms and labels, in
    the order of the generator basis, read back by the strict codec."""
    model = JetMultivectorModel(m, k, base_cap=cap)
    gens, terms = model.gens, model.terms
    nb = m + k
    base = JetRing(model.ring.names[:nb], cap)
    assert len(terms) == len(gens) == len(base.monomials()) * 2 ** k
    assert all(gens[terms[lab]] == lab for lab in terms)
    assert all(terms[lab] == term for term, lab in gens.items())
    assert list(gens) == sorted(gens, key=lambda t: (len(t[1]), t[1], t[0]))
    space = model.a_space()
    assert list(space.labels) == list(gens.values())
    fiber = {"dq%d" % (a + 1): nb + a for a in range(k)}
    for (e, w), lab in gens.items():
        assert not any(e[nb:]) and set(w) <= set(model.p_idxs)
        assert label_weight(lab) == sum(e[:nb])
        assert space.deg[lab] == len(w) - 1
        be, toks = base.label_parse(lab, fiber)
        assert model.label_to_mv(lab) == \
            {(be + (0,) * k, tuple(fiber[t] for t in toks)): F(1)}
    # a term outside the table is a spilled term
    coeffs = {lab: F(2) for lab in terms}
    full = {term: F(2) for term in gens}
    assert model.elem_to_coeffs(full) == (coeffs, False)
    if nb:
        over = ((cap + 1,) + (0,) * (model.nv - 1), ())
        assert model.elem_to_coeffs({**full, over: F(1)}) == (coeffs, True)
