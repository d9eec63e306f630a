"""Differential tests of the pruned term kernel against term_oracle.py.

The engine skips insertion and partition terms that are zero by arity,
enumerates only the words within a weight cap, and never sorts a word
again: every block of a canonical word is canonical, split signs come
from the letters' parities, and an inserted letter is placed by one
scan.  The oracle sums every term, filters full word lists and sorts
every word it builds.  On random small algebras and morphisms, with odd
generators, gapped arity supports, curvature, and zero, negative or
missing weights, both must give the same failures (words and
residuals, in order), the same checked counts and the same maps.
"""

import sys
from fractions import Fraction as F
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from linfkit import linfty
from linfkit.gradedlin import (UNSHUFFLE_CAP, GradedSpace, canonical_word,
                               koszul_sign, sym_words, unshuffles,
                               word_degree, words_within)
from linfkit.linfty import (LInftyAlgebra, LInftyMorphism, _insert_letter,
                            _split_signs, check_morphism, check_relations,
                            codifferential_hat, compose, delta1,
                            obstruction_cocycle)

import term_oracle

COEFFS = [F(1), F(-1), F(2), F(1, 2)]
SUPPORTS = [(1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
CAPS = st.one_of(st.none(), st.integers(-3, 5))
PROPERTY = settings(derandomize=True, max_examples=80, deadline=None,
                    database=None)


@st.composite
def spaces(draw):
    n = draw(st.integers(2, 4))
    degs = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    return GradedSpace(list(zip("abcd", degs)))


def draw_table(draw, space, target, arities, shift):
    """{k: {word: element}} with each value in degree |word| + shift."""
    tables = {}
    for k in arities:
        tab = {}
        for w in sym_words(space, k):
            outs = target.basis_in_degree(word_degree(space, w) + shift)
            if outs and draw(st.booleans()):
                tab[w] = {draw(st.sampled_from(outs)):
                          draw(st.sampled_from(COEFFS))}
        tables[k] = tab
    return tables


def draw_weights(draw, space):
    if draw(st.booleans()):
        return None
    return {l: draw(st.integers(-2, 2)) for l in space.labels}


@st.composite
def algebras(draw, space=None, curved=None):
    space = space or draw(spaces())
    ops = draw_table(draw, space, space, draw(st.sampled_from(SUPPORTS)), 1)
    l0 = {}
    odd = space.basis_in_degree(1)
    if odd and (curved if curved is not None else draw(st.booleans())):
        l0 = {draw(st.sampled_from(odd)): draw(st.sampled_from(COEFFS))}
    return LInftyAlgebra(space, ops, l0=l0, arity_cap=3,
                         weights=draw_weights(draw, space))


@st.composite
def morphisms(draw, source=None, target=None, curved=None):
    A = source or draw(algebras(curved=curved))
    B = target or draw(algebras(curved=curved))
    # gapped supports such as f in {1, 3} included
    comps = draw_table(draw, A.space, B.space,
                       draw(st.sampled_from(SUPPORTS)), 0)
    return LInftyMorphism(A, B, comps, arity_cap=3)


@PROPERTY
@given(spaces(), st.data())
def test_words_within_matches_filtered_full_list(space, data):
    weights = draw_weights(data.draw, space)
    cap = data.draw(CAPS)
    for k in range(5):
        assert sym_words(space, k) == term_oracle.words(space, k)
        assert words_within(space, k, weights, cap) == \
            term_oracle.words_within(space, k, weights, cap)


@PROPERTY
@given(algebras(), CAPS)
def test_check_relations_matches_oracle(A, cap):
    rep = check_relations(A, weight_cap=cap)
    assert (rep.failures, rep.checked) == \
        term_oracle.check_relations(A, weight_cap=cap)


@PROPERTY
@given(morphisms(), CAPS)
def test_check_morphism_matches_oracle(f, cap):
    rep = check_morphism(f, weight_cap=cap)
    assert (rep.failures, rep.checked) == \
        term_oracle.check_morphism(f, weight_cap=cap)


@PROPERTY
@given(st.data())
def test_curved_target_keeps_its_curvature_term(data):
    """The empty word has one partition, into t = 0 blocks: l0' of a
    curved target appears on the right side of the morphism relation."""
    f = data.draw(morphisms(target=data.draw(algebras(
        space=GradedSpace([("a", 0), ("b", 1), ("c", 1)]), curved=True))))
    rep = check_morphism(f)
    assert (rep.failures, rep.checked) == term_oracle.check_morphism(f)


def test_gapped_supports_match_oracle():
    """f in arities {1, 3}, target operations in arity 2 only: every
    partition of an arity-3 word into two blocks has a block f sends to
    zero, and only f_1 x f_1 reaches l'_2."""
    S = GradedSpace([("a", 0), ("b", 0), ("c", 1)])
    A = LInftyAlgebra(S, {2: {("a", "b"): {"c": F(1)}}}, arity_cap=3)
    B = LInftyAlgebra(S, {2: {("a", "a"): {"c": F(2)},
                              ("a", "b"): {"c": F(-1)}}}, arity_cap=3)
    f = LInftyMorphism(A, B, {1: {("a",): {"a": F(1)}, ("b",): {"b": F(1)},
                                  ("c",): {"c": F(1)}},
                              3: {("a", "a", "b"): {"b": F(1)}}}, arity_cap=3)
    rep = check_morphism(f)
    assert not rep.ok
    assert (rep.failures, rep.checked) == term_oracle.check_morphism(f)
    assert obstruction_cocycle(f, 2) == term_oracle.obstruction_cocycle(f, 2)


@PROPERTY
@given(st.data())
def test_compose_matches_oracle(data):
    f = data.draw(morphisms())
    C = data.draw(algebras())
    g = data.draw(morphisms(source=f.target, target=C))
    assert compose(g, f).comps == term_oracle.compose(g, f)


@PROPERTY
@given(morphisms(curved=False), st.integers(1, 2))
def test_obstruction_cocycle_matches_oracle(f, K):
    assert obstruction_cocycle(f, K) == term_oracle.obstruction_cocycle(f, K)


@PROPERTY
@given(algebras(), st.integers(1, 3))
def test_codifferential_matches_oracle(A, cap):
    assert codifferential_hat(A, cap=cap).entries == \
        term_oracle.codifferential(A, cap)


@st.composite
def strict_or_curved(draw):
    """algebras(), strict or curved by a coin: a curved draw gives its
    first generator degree 1, so that it can carry the curvature."""
    space = draw(spaces())
    curved = draw(st.booleans())
    if curved:
        first, *rest = space.labels
        space = GradedSpace([(first, 1)] + [(l, space.deg[l]) for l in rest])
    return draw(algebras(space=space, curved=curved))


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(strict_or_curved(), st.integers(0, 3))
def test_relations_hold_iff_the_oracle_square_vanishes(A, n):
    """The L-infinity[1] relations through arity n are the one-letter
    component of D-hat squared on the words of length <= n, D-hat being
    the term oracle's coderivation, which shares no term sum with
    check_relations.  Strict: D-hat keeps the word length or lowers it,
    and D-hat squared is a coderivation, so it vanishes on S^{<=n}
    (truncated at n) iff its one-letter component does.  Curved: l_0
    raises the length by one, so D-hat is truncated at n + 1, the
    empty word is a source, and only the one-letter component of D-hat
    squared on sources of length 0..n is compared; truncating at n
    instead drops the terms l_{n+1}(l_0, w) of the arity-n relations."""
    ok = check_relations(A, up_to=n).ok
    if A.is_strict:
        assert ok == (not term_oracle.codifferential_square(A, n))
    else:
        square = term_oracle.codifferential_square(A, n + 1,
                                                   include_empty=True)
        assert ok == (not [w for w, t in square
                           if len(w) <= n and len(t) == 1])


@PROPERTY
@given(st.data(), st.integers(1, 3), st.sampled_from([0, 1]))
def test_delta1_matches_oracle(data, m, shift):
    A = data.draw(algebras())
    B = data.draw(algebras())
    g = draw_table(data.draw, A.space, B.space, [m], shift)[m]
    assert delta1(A, B, g, m, shift) == term_oracle.delta1(A, B, g, m, shift)


def check_split_signs(parities, i):
    got = _split_signs(parities, i)
    assert [(b1, b2) for b1, b2, _ in got] == \
        list(unshuffles(i, len(parities)))
    for b1, b2, sign in got:
        assert sign == koszul_sign(parities, b1 + b2)


def test_split_signs_match_koszul_sign():
    """Every parity pattern of up to 8 letters and every split."""
    for k in range(9):
        for parities in product((0, 1), repeat=k):
            for i in range(k + 1):
                check_split_signs(parities, i)


@PROPERTY
@given(st.lists(st.integers(0, 1), min_size=9, max_size=UNSHUFFLE_CAP),
       st.data())
def test_split_signs_match_koszul_sign_up_to_the_cap(parities, data):
    check_split_signs(tuple(parities),
                      data.draw(st.integers(0, len(parities))))


@PROPERTY
@given(spaces())
def test_insert_letter_matches_canonical_word(space):
    """Every letter into every canonical word of arity <= 3: odd letters
    already present give zero, equal even letters repeat."""
    for k in range(4):
        for rest in sym_words(space, k):
            for g in space.labels:
                assert _insert_letter(space, g, rest) == \
                    canonical_word(space, (g,) + rest)


def test_insertion_path_sorts_no_word(monkeypatch):
    """Kernel words are canonical, so check_relations and check_morphism
    sort no word under insertion_sum; the partition side still expands
    elements through canonical_word."""
    real = linfty.canonical_word
    under_insertion = []

    def spy(space, labels):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        under_insertion.append("insertion_sum" in names)
        return real(space, labels)

    monkeypatch.setattr(linfty, "canonical_word", spy)
    S = GradedSpace([("a", 0), ("b", 1), ("c", 1), ("e", 2)])
    A = LInftyAlgebra(S, {1: {("a",): {"b": F(1)}, ("b",): {"e": F(1)},
                              ("c",): {"e": F(-1)}},
                          2: {("a", "b"): {"e": F(2)},
                              ("a", "c"): {"e": F(1)}},
                          3: {("a", "a", "a"): {"c": F(1, 2)}}},
                      l0={"b": F(1)}, arity_cap=3)
    f = LInftyMorphism(A, A, {1: {(x,): {x: F(1)} for x in S.labels},
                              2: {("a", "a"): {"a": F(1)},
                                  ("b", "c"): {"e": F(1)}}}, arity_cap=3)
    assert check_relations(A).failures
    assert not any(under_insertion)
    assert check_morphism(f).failures
    assert under_insertion and not any(under_insertion)
