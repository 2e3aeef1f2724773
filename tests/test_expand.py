"""expand inverts to_nf on every materialized set: each normal form, degenerate
ones included, names an element whose normal form is itself, up to one degree
above the set's top; and a generator names the element it was made from."""

import itertools

import pytest

from necklace_calculus import shapes, sset
from necklace_calculus.bisset import lf
from necklace_calculus.categorify import categorify
from necklace_calculus.cubes import cube_hom
from necklace_calculus.groth import groth, groth_right_adjoint
from necklace_calculus.nerves import hc_nerve, strict_nerve
from necklace_calculus.scat import representable, suspension

d = shapes.simplex


def _inverts(X, to_nf, expand, elem_of, bounds):
    checked = 0
    for deg in itertools.product(*(range(b + 2) for b in bounds)):
        for x in X.simplices(*deg):
            assert to_nf(*deg, expand(x)) == x, (deg, x)
            checked += 1
    for g in X.gens():
        assert expand(X._nd(g)) == elem_of[g], g
    return checked


def _check_sset(mat):
    return _inverts(mat.sset, mat.to_nf, mat.expand, mat.elem_of, (mat.sset.dim_bound,))


def _check_bisset(ob):
    X = ob.bisset
    return _inverts(X, ob.to_nf, ob.expand, ob.elem_of, (X.h_bound, X.v_bound))


@pytest.mark.parametrize("W", [lf(2, d(1)).W, lf(1, d(2)).W], ids=["lf2_d1", "lf1_d2"])
def test_hom_space(W):
    C = categorify(W)
    homs = [C.hom(a, b) for a, b in itertools.product(C.objects, repeat=2)]
    assert sum(map(_check_sset, homs)) > sum(hs.sset.n_gens() for hs in homs)


def test_cube_hom():
    c = cube_hom((0, 3), range(4))
    assert _inverts(c.space, c.to_nf, c.expand, c.chain_of, (c.space.dim_bound,)) > c.space.n_gens()


@pytest.mark.parametrize("kind", ["strict", "hc", "hc21"])
def test_nerve_and_groth_total(kind):
    C = suspension(d(1))
    N = (strict_nerve(C) if kind == "strict"
         else hc_nerve(C, 1, 1) if kind == "hc" else hc_nerve(C, 2, 1))
    assert _check_bisset(N) > len(N.bisset.gens())
    G = groth(N, representable(C, "1"))
    assert _check_bisset(G) > len(G.bisset.gens())


def test_groth_right_adjoint_values(monkeypatch):
    made = []
    build = sset.materialize

    def spy(*args, **kwargs):
        made.append(build(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(sset, "materialize", spy)
    arrow = suspension(d(0))
    N = strict_nerve(arrow)
    G = groth(N, representable(arrow, "1"))
    H = groth_right_adjoint(N, G.bisset, G.projection, k_bound=1)
    values = [m for m in made if any(m.sset is X for X in H.value.values())]
    assert len(values) == len(H.value)
    for mat in values:
        assert _check_sset(mat) > mat.sset.n_gens()
