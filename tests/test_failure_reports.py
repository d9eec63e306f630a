"""Pinned reports of the set-level and certificate checkers on failing
inputs that no bench job reaches.

The bench documents pin the reports of these checkers on passing inputs
only.  A failing report carries more: the order of its failures, the
place and witness of each, and a count that includes the checks whose
failure shares the count of the check before it.  So each report below
is built from a tampered fixture, written as `cli.report_record` writes
it, and compared with a recorded sha256.
"""

import copy
import hashlib
from functools import lru_cache

import pytest

from linfkit import cli
from linfkit.atlas import (CocycleData, ToyAtlas, build_cocycle,
                           build_hypercovering, check_cocycle,
                           hypercover_check, simplicial_identities,
                           validate_atlas)
from linfkit.gradedlin import dumps_canonical
from test_atlas import three_chart_atlas, without_simplex
from test_htpy import (bench_fill, doubled_incl_a, scaled_g1, scaled_hbar,
                       swapped_fs, with_scaled_linear_part)


def tampered(edit):
    """The three-chart atlas with its charts and changes copied, then
    edited."""
    A = three_chart_atlas()
    bad = ToyAtlas(A.points, copy.deepcopy(A.charts),
                   copy.deepcopy(A.changes), A.algebras, A.morphisms)
    edit(bad)
    return bad


def shrunk_change(A):
    A.changes[(1, 2)]["U_pq"] = ["a1"]
    A.changes[(1, 2)]["base_map"] = {"a1": "b1"}


def emptied_map(pair, domain):
    def edit(A):
        A.changes[pair]["U_pq"] = domain
        A.changes[pair]["base_map"] = {}
    return edit


def swapped_self_change(A):
    A.changes[(1, 1)]["base_map"].update(a1="a2", a2="a1")


def crossed_zeros(A):
    A.changes[(1, 2)]["base_map"].update(a1="b2", a2="b1")


def rerouted_change(A):
    A.changes[(1, 3)]["base_map"] = {"a2": "c3"}


def missing_chart(A):
    del A.charts[3]


def zero_outside_base(A):
    A.charts[1]["zero_set"]["z"] = 3


ATLASES = {
    "axiom-iv": shrunk_change,
    "change-shape-12": emptied_map((1, 2), ["a1", "a2"]),
    "change-shape-11": emptied_map((1, 1), [None, "a2"]),
    "axiom-i": swapped_self_change,
    "axiom-ii": crossed_zeros,
    "axiom-iii": rerouted_change,
    "missing-chart": missing_chart,
    "zero-outside-base": zero_outside_base,
}


def atlas_report(name):
    return validate_atlas(tampered(ATLASES[name]))


def hypercover_report(check, removed):
    H = build_hypercovering(three_chart_atlas(), 3)
    if removed is not None:
        H = without_simplex(H, removed)
    return check(H)


@lru_cache(maxsize=None)
def three_chart_cocycle():
    A = three_chart_atlas()
    return build_cocycle(A, build_hypercovering(A, 2), level=2)


def cocycle(level=2, edges=(), triangles=()):
    """The three-chart cocycle at a level, some edges and triangles
    replaced."""
    G = three_chart_cocycle()
    return CocycleData(G.atlas, G.hyper, level, G.m_max, G.vertices,
                       {**G.edges, **dict(edges)},
                       {**G.triangles, **dict(triangles)})


def swapped_cells():
    """The filled cell of (1, 2, 3) and the constant cell of the
    degenerate (1, 1, 2) trade places."""
    t = three_chart_cocycle().triangles
    return cocycle(triangles={(1, 2, 3): t[(1, 1, 2)],
                              (1, 1, 2): t[(1, 2, 3)]})


def doubled_edge():
    f = three_chart_cocycle().edges[(1, 2)]
    return cocycle(edges={(1, 2): with_scaled_linear_part(f, 2)})


REPORTS = {
    "atlas-pass": lambda: validate_atlas(three_chart_atlas()),
    **{"atlas-" + name: (lambda name=name: atlas_report(name))
       for name in ATLASES},
    "simplicial-identities-pass":
        lambda: hypercover_report(simplicial_identities, None),
    "simplicial-identities-without-112":
        lambda: hypercover_report(simplicial_identities, (1, 1, 2)),
    "simplicial-identities-without-22":
        lambda: hypercover_report(simplicial_identities, (2, 2)),
    "hypercover-pass": lambda: hypercover_report(hypercover_check, None),
    "hypercover-without-112":
        lambda: hypercover_report(hypercover_check, (1, 1, 2)),
    "hypercover-without-22":
        lambda: hypercover_report(hypercover_check, (2, 2)),
    "cocycle-pass": lambda: check_cocycle(cocycle()),
    "cocycle-swapped-cells": lambda: check_cocycle(swapped_cells()),
    "cocycle-level-0": lambda: check_cocycle(cocycle(level=0)),
    "cocycle-doubled-edge": lambda: check_cocycle(doubled_edge()),
    "filling-swapped-fs": lambda: swapped_fs().verify(),
    "filling-scaled-hbar": lambda: scaled_hbar().verify(),
    "filling-doubled-incl":
        lambda: doubled_incl_a(bench_fill("fill-triangle.json")).verify(),
    "whitehead-scaled-g1": lambda: scaled_g1().verify(),
}

DIGESTS = {
    "atlas-axiom-i":
        "4488f5830918a243cd1b30640401a8efb7b2a2a8382b3adff013ea3233c3c34d",
    "atlas-axiom-ii":
        "a47df8673d2da223821e4efbf86952968ef46952340744cbcc049e8ee2625143",
    "atlas-axiom-iii":
        "14fe9425c751994929af4b8724f4d814fd0c347d1be871a4686ce667368216b6",
    "atlas-axiom-iv":
        "123b6608663063e03ee040140470af82dee4b6252a9c6188cc4fd5d6335e77d5",
    "atlas-change-shape-11":
        "fe954587d819fc2093599a85070356dd24892c60f0ed0122018e1f4834409692",
    "atlas-change-shape-12":
        "78660119c031435b52a8d6efcef1df8024179e5ed58f95ab0d218c95dc313abd",
    "atlas-missing-chart":
        "0d1c995db3b3824f18ec75b43dae97e8d5d0f777a81cc299140b5f1dc99e3cf5",
    "atlas-pass":
        "58222a1a7d746485de09029054d93ecb98585d7fa95ffa85ddf44f26a362485f",
    "atlas-zero-outside-base":
        "1a02940d6e14f33ced9d1596257e2b19919a27e4df818a68010ee0e512ccb5ae",
    "cocycle-doubled-edge":
        "e5c6a9a152cd5a41498cd87063f9d003ef4efd183eb9dac233bcb89c4b131aca",
    "cocycle-level-0":
        "1a1dde9a93527c94da50ad271bad36c304932b692d28f9e54f373cabb4e4c478",
    "cocycle-pass":
        "724a7ea6c28a59916a0deda67964c2a8cb25975345d83b36a07663a3ecd8d22a",
    "cocycle-swapped-cells":
        "510c749014ebc38b98d23c023ae4f629b07d07ba9a37fe6ef67e32d6c0ffe265",
    "filling-doubled-incl":
        "7eea539e0a5285b50ff64fd348eda1956e3b94bd90597597298ede5b3535c228",
    "filling-scaled-hbar":
        "50985fa38f2555c0cdf912038aafdcd8e9f042f357f10b1391cc547bf8e2d4ca",
    "filling-swapped-fs":
        "736a934cf7349d006fd912ed70ca906cc1962e38b28846d6421e4727978db430",
    "hypercover-pass":
        "5c30c2a4bb226cf1f5db95cf1865dd9fe67984173e23cda10c9f503da3ccbc54",
    "hypercover-without-112":
        "fbf5c087e47db1472dc1fb489b9a189f3f37c474cbccc4da4f28752b39850a05",
    "hypercover-without-22":
        "6320518c359083b1ffa88bb3f5902ec21d9f863912b02c649b15d97019b6b1db",
    "simplicial-identities-pass":
        "b3da22a363f0c756f4d372ede82b664b9dbcd6d3017e19258d14c2c2181c41df",
    "simplicial-identities-without-112":
        "27b675c76bbc488486f23ac79570fc83c451c479cc4c95d82f91f2393b064b46",
    "simplicial-identities-without-22":
        "0e5bebbdbf719a3c40f1548ca592e9ecf01e7154a564af32e4a1596fa212f6ae",
    "whitehead-scaled-g1":
        "3bbda49ed899310575422f00d0ec56b55b89b742a693bcb32fd9577891c85d5d",
}


def test_every_report_is_pinned():
    assert sorted(DIGESTS) == sorted(REPORTS)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_failure_report_is_pinned(name):
    rep = REPORTS[name]()
    assert rep.ok == name.endswith("-pass")
    text = dumps_canonical(cli.report_record(rep))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
