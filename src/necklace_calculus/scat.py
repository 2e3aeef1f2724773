"""Simplicially enriched categories, presheaves, and natural transformations.

Composition and actions are stored as element-level functions: comp(a, b, c)
takes a d-simplex of hom(b, c) and a d-simplex of hom(a, b) (second-then-first
convention) and returns a d-simplex of hom(a, c).  Natural transformations
are found component by component by ops.backtrack, each pair of components
tested as NatTrans.verify tests it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from . import delta
from .cubes import chain_join, cube_hom, CubeHom
from .sset import EMPTY, NF, SSet, SSetError, SSetMap


class SCat:
    """A finite simplicial category with a distinguished object order."""

    def __init__(self, objects, hom: Mapping[tuple[str, str], SSet],
                 comp: Callable[[str, str, str, NF, NF], NF],
                 ids: Mapping[str, str], hom_bound: Optional[int] = None):
        self.objects = tuple(objects)
        self.hom = dict(hom)
        self._comp = comp
        self.ids = dict(ids)
        if hom_bound is None:
            hom_bound = max((H.dim_bound for H in self.hom.values()), default=0)
        self.hom_bound = max(hom_bound, 0)

    def comp(self, a: str, b: str, c: str, g: NF, f: NF) -> NF:
        """The composite of f: a -> b and g: b -> c at matching simplicial level."""
        return self._comp(a, b, c, g, f)

    def id_el(self, a: str, d: int) -> NF:
        return NF(tuple(range(d - 1, -1, -1)), self.ids[a])

    def is_directed(self) -> bool:
        idx = {o: i for i, o in enumerate(self.objects)}
        for (a, b), H in self.hom.items():
            if idx[b] < idx[a] and not H.is_empty():
                return False
            if a == b and H.nd_counts() != (1,):
                return False
        return True

    def verify(self, bound: Optional[int] = None) -> None:
        """Exhaustive unit, associativity, and simpliciality checks up to a level."""
        if bound is None:
            bound = self.hom_bound
        obs = self.objects
        for a in obs:
            if self.hom[(a, a)].gen_dim(self.ids[a]) != 0:
                raise SSetError(f"identity of {a!r} is not a vertex")
        for d in range(bound + 1):
            for a, b in itertools.product(obs, repeat=2):
                for f in self.hom[(a, b)].simplices(d):
                    if self.comp(a, b, b, self.id_el(b, d), f) != f:
                        raise SSetError(f"left unit fails at {a},{b}")
                    if self.comp(a, a, b, f, self.id_el(a, d)) != f:
                        raise SSetError(f"right unit fails at {a},{b}")
        for d in range(bound + 1):
            for a, b, c in itertools.product(obs, repeat=3):
                fs = self.hom[(a, b)].simplices(d)
                gs = self.hom[(b, c)].simplices(d)
                for g, f in itertools.product(gs, fs):
                    gf = self.comp(a, b, c, g, f)
                    if self.hom[(a, c)].dim(gf) != d:
                        raise SSetError("composite has wrong dimension")
                    for i in range(d + 1) if d else ():
                        mu = delta.coface(i, d)
                        lhs = self.hom[(a, c)].act(gf, mu)
                        rhs = self.comp(a, b, c, self.hom[(b, c)].act(g, mu),
                                        self.hom[(a, b)].act(f, mu))
                        if lhs != rhs:
                            raise SSetError(f"composition not simplicial at {a},{b},{c}")
        for d in range(bound + 1):
            for a, b, c, e in itertools.product(obs, repeat=4):
                for h in self.hom[(c, e)].simplices(d):
                    for g in self.hom[(b, c)].simplices(d):
                        for f in self.hom[(a, b)].simplices(d):
                            lhs = self.comp(a, b, e, self.comp(b, c, e, h, g), f)
                            rhs = self.comp(a, c, e, h, self.comp(a, b, c, g, f))
                            if lhs != rhs:
                                raise SSetError("associativity fails")


class EnrichedFunctor(NamedTuple):
    """A simplicially enriched functor given on objects and hom elements."""

    src: SCat
    dst: SCat
    on_obj: Mapping[str, str]
    on_hom: Callable[[str, str, NF], NF]

    def verify(self, bound: Optional[int] = None) -> None:
        if bound is None:
            bound = self.src.hom_bound
        obs = self.src.objects
        for a in obs:
            for d in range(bound + 1):
                if self.on_hom(a, a, self.src.id_el(a, d)) != self.dst.id_el(self.on_obj[a], d):
                    raise SSetError(f"functor does not preserve id at {a!r}")
        for d in range(bound + 1):
            for a, b, c in itertools.product(obs, repeat=3):
                for g in self.src.hom[(b, c)].simplices(d):
                    for f in self.src.hom[(a, b)].simplices(d):
                        lhs = self.on_hom(a, c, self.src.comp(a, b, c, g, f))
                        rhs = self.dst.comp(self.on_obj[a], self.on_obj[b], self.on_obj[c],
                                            self.on_hom(b, c, g), self.on_hom(a, b, f))
                        if lhs != rhs:
                            raise SSetError("functor not compatible with composition")
        for d in range(bound + 1):
            for a, b in itertools.product(obs, repeat=2):
                H = self.src.hom[(a, b)]
                K = self.dst.hom[(self.on_obj[a], self.on_obj[b])]
                for f in H.simplices(d):
                    for i in range(d + 1) if d else ():
                        mu = delta.coface(i, d)
                        if self.on_hom(a, b, H.act(f, mu)) != K.act(self.on_hom(a, b, f), mu):
                            raise SSetError("functor not simplicial on homs")


# -- basic constructions --------------------------------------------------------


def point_cat() -> SCat:
    from .shapes import point

    pt = point()
    return SCat(("0",), {("0", "0"): pt}, lambda a, b, c, g, f: f, {"0": "0"})


def _directed_comp_error(a, b, c, g, f):
    raise SSetError("no composition data")


def directed_cat(objects, homs: Mapping[tuple[str, str], SSet],
                 comp: Callable[[str, str, str, NF, NF], NF],
                 hom_bound: Optional[int] = None) -> SCat:
    """Fill in empty/unit homs of a directed category and wrap composition."""
    from .shapes import point

    objects = tuple(objects)
    idx = {o: i for i, o in enumerate(objects)}
    pt = point()
    hom = {}
    ids = {}
    for a, b in itertools.product(objects, repeat=2):
        if (a, b) in homs:
            hom[(a, b)] = homs[(a, b)]
        elif a == b:
            hom[(a, b)] = pt
        else:
            hom[(a, b)] = EMPTY
    for a in objects:
        ids[a] = hom[(a, a)].by_dim[0][0]

    def full_comp(a, b, c, g, f):
        if a == b:
            return g
        if b == c:
            return f
        return comp(a, b, c, g, f)

    return SCat(objects, hom, full_comp, ids, hom_bound=hom_bound)


def suspension(X: SSet) -> SCat:
    """The directed two-object category with hom(0, 1) = X."""
    return directed_cat(("0", "1"), {("0", "1"): X}, _directed_comp_error,
                        hom_bound=max(X.dim_bound, 0))


def glue_end(C: SCat, D: SCat, rename: Mapping[str, str]) -> SCat:
    """Pushout of directed categories gluing the last object of C to the first of D.

    rename maps D's object names into the result; it must send D's first object
    to C's last object.  Cross homs are free composites through the glue object.
    """
    from .ops import product as sset_product

    g0 = C.objects[-1]
    if rename[D.objects[0]] != g0:
        raise SSetError("rename must identify D's first object with C's last")
    d_obs = [rename[o] for o in D.objects]
    objects = C.objects + tuple(d_obs[1:])
    in_c = set(C.objects)
    in_d = set(d_obs)
    back = {rename[o]: o for o in D.objects}
    hom: dict[tuple[str, str], SSet] = {}
    cross: dict[tuple[str, str], object] = {}
    for a, b in itertools.product(objects, repeat=2):
        if a in in_c and b in in_c:
            hom[(a, b)] = C.hom[(a, b)]
        elif a in in_d and b in in_d:
            hom[(a, b)] = D.hom[(back[a], back[b])]
        elif a in in_c and b in in_d:
            pr = sset_product(C.hom[(a, g0)], D.hom[(back[g0], back[b])])
            cross[(a, b)] = pr
            hom[(a, b)] = pr.sset
        else:
            hom[(a, b)] = EMPTY
    ids = {a: (C.ids[a] if a in in_c else D.ids[back[a]]) for a in objects}

    def comp(a, b, c, g, f):
        if a == b:
            return g
        if b == c:
            return f
        if (a, c) in cross:
            prod = cross[(a, c)]
            d = hom[(a, b)].dim(f)
            if (a, b) in cross:  # f = (f1, f2) through the glue object, g in D
                f1 = cross[(a, b)].projections[0](f)
                f2 = cross[(a, b)].projections[1](f)
                return prod.to_nf(d, (f1, D.comp(back[g0], back[b], back[c], g, f2)))
            if b == g0:  # f lands in the glue object: free composite
                return prod.to_nf(d, (f, g))
            # b in C strictly below the glue object: g = (g1, g2)
            g1 = cross[(b, c)].projections[0](g)
            g2 = cross[(b, c)].projections[1](g)
            return prod.to_nf(d, (C.comp(a, b, g0, g1, f), g2))
        if a in in_c and c in in_c:
            return C.comp(a, b, c, g, f)
        return D.comp(back[a], back[b], back[c], g, f)

    bound = max(C.hom_bound, D.hom_bound,
                max((H.dim_bound for H in hom.values()), default=0))
    out = SCat(objects, hom, comp, ids, hom_bound=bound)
    out.cross = cross
    out.glue_object = g0
    return out


def sigma_m(X: SSet, m: int) -> SCat:
    """m suspensions glued end to start; hom(i, j) is a free composite X^(j-i)."""
    if m < 1:
        return point_cat()
    out = suspension(X)
    for k in range(2, m + 1):
        nxt = suspension(X)
        out = glue_end(out, nxt, {"0": str(k - 1), "1": str(k)})
    return out


def ch_simplex(m: int) -> SCat:
    """The homotopy coherent simplex category: homs are interval-nerve cubes."""
    cubes: dict[tuple[str, str], CubeHom] = {}
    homs: dict[tuple[str, str], SSet] = {}
    for i in range(m + 1):
        for j in range(i, m + 1):
            c = cube_hom((i, j), range(i, j + 1))
            cubes[(str(i), str(j))] = c
            homs[(str(i), str(j))] = c.space

    def comp(a, b, c, g, f):
        ca, cb, cc = cubes[(a, b)], cubes[(b, c)], cubes[(a, c)]
        return cc.to_nf(ca.space.dim(f), chain_join(ca.expand(f), cb.expand(g)))

    cat = directed_cat(tuple(str(i) for i in range(m + 1)),
                       {k: H for k, H in homs.items() if k[0] != k[1]}, comp,
                       hom_bound=max(m, 1))
    cat.cubes = cubes
    return cat


# -- presheaves -----------------------------------------------------------------


class Presheaf:
    """A contravariant enriched functor into simplicial sets.

    action(a, b, h, x) is the restriction of x in value(b) along h in hom(a, b),
    at matching simplicial level.
    """

    def __init__(self, base: SCat, value: Mapping[str, SSet],
                 action: Callable[[str, str, NF, NF], NF]):
        self.base = base
        self.value = dict(value)
        self.action = action

    def verify(self, bound: Optional[int] = None) -> None:
        base = self.base
        if bound is None:
            bound = base.hom_bound
        for d in range(bound + 1):
            for a in base.objects:
                for x in self.value[a].simplices(d):
                    if self.action(a, a, base.id_el(a, d), x) != x:
                        raise SSetError(f"presheaf unit fails at {a!r}")
            for a, b in itertools.product(base.objects, repeat=2):
                H = base.hom[(a, b)]
                for h in H.simplices(d):
                    for x in self.value[b].simplices(d):
                        y = self.action(a, b, h, x)
                        if self.value[a].dim(y) != d:
                            raise SSetError("action has wrong dimension")
                        for i in range(d + 1) if d else ():
                            mu = delta.coface(i, d)
                            if self.value[a].act(y, mu) != self.action(
                                    a, b, H.act(h, mu), self.value[b].act(x, mu)):
                                raise SSetError("action not simplicial")
            for a, b, c in itertools.product(base.objects, repeat=3):
                for g in base.hom[(b, c)].simplices(d):
                    for f in base.hom[(a, b)].simplices(d):
                        for x in self.value[c].simplices(d):
                            lhs = self.action(a, c, base.comp(a, b, c, g, f), x)
                            rhs = self.action(a, b, f, self.action(b, c, g, x))
                            if lhs != rhs:
                                raise SSetError("presheaf associativity fails")

    def tensor(self, X: SSet) -> "Presheaf":
        """Valuewise product with a fixed simplicial set."""
        from .ops import product

        prods = {a: product(self.value[a], X) for a in self.base.objects}
        values = {a: prods[a].sset for a in self.base.objects}

        def action(a, b, h, z):
            d = values[b].dim(z)
            x = prods[b].projections[0](z)
            t = prods[b].projections[1](z)
            return prods[a].to_nf(d, (self.action(a, b, h, x), t))

        out = Presheaf(self.base, values, action)
        out.tensor_parts = prods
        return out


def representable(C: SCat, c: str) -> Presheaf:
    return Presheaf(C, {a: C.hom[(a, c)] for a in C.objects},
                    lambda a, b, h, x: C.comp(a, b, c, x, h))


def terminal_presheaf(C: SCat) -> Presheaf:
    from .shapes import point

    pt = point()
    return Presheaf(C, {a: pt for a in C.objects},
                    lambda a, b, h, x: x)


def _natural(F: Presheaf, G: Presheaf, component: Mapping[str, SSetMap], a: str, b: str,
             d: int) -> bool:
    """Whether component[a] and component[b] commute with the actions of F and
    G along every d-simplex of hom(a, b)."""
    ca, cb = component[a], component[b]
    return all(ca(F.action(a, b, h, x)) == G.action(a, b, h, cb(x))
               for h in F.base.hom[(a, b)].simplices(d) for x in F.value[b].simplices(d))


class NatTrans(NamedTuple):
    src: Presheaf
    dst: Presheaf
    component: Mapping[str, SSetMap]

    def verify(self, bound: Optional[int] = None) -> None:
        base = self.src.base
        for d in range(1 + (base.hom_bound if bound is None else bound)):
            for a, b in itertools.product(base.objects, repeat=2):
                if not _natural(self.src, self.dst, self.component, a, b, d):
                    raise SSetError(f"naturality fails at {a},{b}")


def enumerate_nat_trans(F: Presheaf, G: Presheaf) -> Iterator[NatTrans]:
    """All enriched natural transformations F -> G (exhaustive; small inputs):
    the components object by object, in enumerate_maps order, each kept where
    it is natural with itself and with those before it."""
    from .ops import backtrack, enumerate_maps

    obs = list(F.base.objects)
    maps = {a: list(enumerate_maps(F.value[a], G.value[a])) for a in obs}
    degrees = range(F.base.hom_bound + 1)

    def candidates(a: str, eta: dict) -> Iterator[SSetMap]:
        for f in maps[a]:
            comp = {**eta, a: f}
            if all(_natural(F, G, comp, x, y, d) for b in comp for x, y in {(a, b), (b, a)}
                   for d in degrees):
                yield f

    for eta in backtrack(obs, candidates):
        yield NatTrans(F, G, dict(eta))
