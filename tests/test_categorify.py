import gc
import types

import pytest

from necklace_calculus import delta, shapes, ops
from necklace_calculus.bisset import (BiNF, BiSSet, LevelSSet, bnd, horizontal, level_id, lf,
                                      lf_map)
from necklace_calculus.categorify import categorify, cfunctor, scat_functor
from necklace_calculus.necklace import TndPoset, UnsupportedInput
from necklace_calculus.scat import ch_simplex
from necklace_calculus.sset import identity_map, nd

from oracles import (act_hom_action, act_is_1_ordered, act_vertices, cube_chain_counts,
                     first_unordered_level, hom_act_by_names, hom_bound_by_dfs,
                     hom_degen_by_names, hom_from_names, hom_levels_from_posets, hom_names,
                     level_of)

d = shapes.simplex


def _circle():
    b1, d1, d0 = shapes.boundary(1), d(1), d(0)
    return ops.pushout(ops.SSetMap(b1, d0, {"0": nd("0"), "1": nd("0")}),
                       shapes.sub_inclusion(b1, d1)).sset


# a (1, 1) loop at a, with horizontally degenerate vertical faces: level 0 is a
# point, and level 1 is not 1-ordered
VERTICAL_LOOP = BiSSet([("a", (0, 0)), ("g", (1, 1))],
                       {"g": (BiNF((), (0,), "a"),) * 2}, {"g": (BiNF((0,), (), "a"),) * 2})

FOUR_BASES = [horizontal(d(4)), lf(3, d(1)).W, lf(2, d(2)).W, lf(2, shapes.boundary(2)).W]
FOUR_IDS = ["delta4", "lf3_delta1", "lf2_delta2", "lf2_bd2"]


def test_categorify_simplex_matches_coherent():
    for m in range(4):
        C = categorify(horizontal(d(m)))
        ch = ch_simplex(m)
        for i in range(m + 1):
            for j in range(m + 1):
                assert ops.find_iso(C.hom_sset(str(i), str(j)),
                                    ch.hom[(str(i), str(j))]) is not None


def test_categorify_homs_of_delta2():
    C = categorify(horizontal(d(2)))
    assert C.hom_sset("0", "2").nd_counts() == (2, 1)
    assert C.hom_sset("0", "1").nd_counts() == (1,)
    assert C.hom_sset("0", "0").nd_counts() == (1,)
    assert C.hom_sset("2", "0").is_empty()


@pytest.mark.parametrize("X", [d(0), d(1), d(2)])
def test_suspension_hom(X):
    C = categorify(lf(1, X).W)
    assert ops.find_iso(C.hom_sset("0", "1"), X) is not None


def test_category_laws():
    C = categorify(lf(2, d(1)).W)
    C.scat().verify(bound=2)


def test_categorify_rejects_loops():
    W = horizontal(_circle())
    wit = ops.OrderWitness("antisymmetry", ("q1_0",))
    for _ in range(2):
        with pytest.raises(UnsupportedInput) as exc:
            categorify(W)
        assert exc.value.witness == (0, wit)
    # the level's verdict is memoized; a repeated query must raise the same way
    L = LevelSSet(W, 0)
    for _ in range(2):
        with pytest.raises(UnsupportedInput) as exc:
            TndPoset(L, "q0_0", "q0_0")
        assert exc.value.witness == wit
        assert str(exc.value) == "K is not 1-ordered (antisymmetry)"


def _count_levels(monkeypatch) -> list[int]:
    """The level of each LevelSSet built from here on, in order."""
    built = []
    init = LevelSSet.__init__

    def counted(self, W, k):
        built.append(k)
        init(self, W, k)

    monkeypatch.setattr(LevelSSet, "__init__", counted)
    return built


def _reachable(root):
    """The objects reachable from root, not through a class, a module or a
    function's globals."""
    seen, stack = {id(root)}, [root]
    while stack:
        obj = stack.pop()
        yield obj
        if isinstance(obj, types.FunctionType):
            refs = [*(obj.__closure__ or ()), *(obj.__defaults__ or ())]
        else:
            refs = gc.get_referents(obj)
        for r in refs:
            if id(r) not in seen and not isinstance(r, (type, types.ModuleType)):
                seen.add(id(r))
                stack.append(r)


def test_vertical_loop_above_the_bound(monkeypatch):
    # only a bound of 1 reaches the loop, and the gate refuses it before any
    # bead walk; the bead table reads the loop's vertices from W, so under
    # bound 0 only level 0 is built
    built = _count_levels(monkeypatch)
    C = categorify(VERTICAL_LOOP)
    assert C.hom_sset("a", "a").nd_counts() == (1,)
    assert built == [0]
    with pytest.raises(UnsupportedInput) as exc:
        categorify(VERTICAL_LOOP, bound=1)
    assert exc.value.witness == (1, ops.OrderWitness("antisymmetry", ("g",)))


GATE_CATALOG = {
    **{f"delta{n}": horizontal(d(n)) for n in range(5)},
    **{f"lf{m}_delta{k}": lf(m, d(k)).W for m in range(4) for k in range(3)},
    "lf2_bd2": lf(2, shapes.boundary(2)).W,
    "circle": horizontal(_circle()),
    "vertical_loop": VERTICAL_LOOP,
    **{f"lf{m}_circle": lf(m, _circle()).W for m in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(GATE_CATALOG))
def test_gate_matches_every_level_oracle(name):
    # the gate checks the top level first and scans the levels below only when
    # it fails; its verdict, first failing level and witness are those of
    # checking every level in turn
    W = GATE_CATALOG[name]
    for bound in range(5):
        want = first_unordered_level(W, bound)
        if want is None:
            assert categorify(W, bound=bound).bound == bound
            continue
        with pytest.raises(UnsupportedInput) as exc:
            categorify(W, bound=bound)
        assert exc.value.witness == want, (name, bound)
        assert str(exc.value) == f"level {want[0]} is not 1-ordered ({want[1].condition})"


@pytest.mark.parametrize("W, a, b", [(lf(5, shapes.point()).W, "0", "5"),
                                     (lf(3, d(1)).W, "0", "3"), (lf(2, d(2)).W, "0", "2")],
                         ids=["delta5", "lf3_delta1", "lf2_delta2"])
def test_hom_builds_one_level_and_keeps_none(monkeypatch, W, a, b):
    # the gate builds the top level slice; the hom space reads W alone
    built = _count_levels(monkeypatch)
    C = categorify(W)
    C.hom(a, b)
    assert built == [C.bound]
    assert not any(isinstance(x, LevelSSet) for x in _reachable(C))


def test_categorify_rejects_two_cycles():
    from necklace_calculus.sset import SSet

    K = SSet([("a", 0), ("b", 0), ("e", 1), ("f", 1)],
             {"e": (nd("b"), nd("a")), "f": (nd("a"), nd("b"))})
    with pytest.raises(UnsupportedInput):
        categorify(horizontal(K))


def test_cfunctor_preserves_structure():
    lf1, lf2 = lf(1, d(1)), lf(2, d(1))
    face = lf_map(lf1, lf2, delta.coface(2, 2), identity_map(d(1)))
    C1, C2 = categorify(lf1.W), categorify(lf2.W)
    sf = scat_functor(face, C1, C2, C1.scat(), C2.scat())
    sf.verify(bound=2)


def test_cfunctor_collapse():
    # collapsing Delta[1] onto a point sends everything to identities
    from necklace_calculus.bisset import BiMap

    W1 = horizontal(d(1))
    W0 = horizontal(d(0))
    f = BiMap(W1, W0, {"0": bnd("0"), "1": bnd("0"),
                       "0.1": W0.act(bnd("0"), mu_h=(0, 0))})
    C1, C0 = categorify(W1), categorify(W0)
    F = cfunctor(f, C1, C0)
    x = nd(C1.hom_sset("0", "1").by_dim[0][0])
    img = F.on_hom("0", "1", x)
    assert img == nd(C0.id_element("0"))


def test_hom_bound_is_exact():
    # the bound is reached: each non-empty hom space has a generator in
    # degree hom_bound(a, b), and bound is the largest of them; a bound set
    # too low would cut the hom spaces at it, so each is also checked
    # against the recursive search
    for W in (lf(2, d(1)).W, lf(3, d(1)).W, lf(2, d(2)).W, lf(1, shapes.boundary(2)).W,
              horizontal(d(4)), horizontal(shapes.boundary(3)), horizontal(shapes.horn(3, 1)),
              horizontal(shapes.spine(3))):
        C = categorify(W)
        rep = {(a, b): C.hom_report(a, b) for a in C.objects for b in C.objects}
        for (a, b), info in rep.items():
            assert info["complete"]
            assert C.hom_bound(a, b) == hom_bound_by_dfs(C, a, b), (W, a, b)
            if info["top_degree"] >= 0:
                assert info["top_degree"] == info["degree_bound"] == C.hom_bound(a, b), (W, a, b)
        assert C.bound == max(C.hom_bound(a, b) for a, b in rep), W


def test_hom_walks_for_its_bound_once(monkeypatch):
    # bound is walked once, when the categorification is built; one hom build
    # asks for hom_bound(a, b) once, and the path listing and the report reuse it
    C = categorify(lf(2, d(2)).W)
    walks = []
    longest = C._longest
    monkeypatch.setattr(C, "_longest", lambda *args: walks.append(args) or longest(*args))
    assert C.bound == 4
    assert not walks
    a, b = C.objects[0], C.objects[-1]
    C.hom(a, b)
    assert C.hom_report(a, b)["degree_bound"] == 4
    assert len(walks) == 1


@pytest.mark.parametrize("chain", [(("0", "1", "2"), ("0", "1", "2")),  # S_0 larger than J
                                   (("0", "2"), ("0", "2"))])  # S_1 short of V
def test_to_nf_rejects_chains_that_do_not_saturate(chain):
    from necklace_calculus.sset import SSetError

    C = categorify(horizontal(d(2)))
    hs = C.hom("0", "2")
    e = hom_from_names(C, "0", "2", 1, (("0.1.2@0",), (("0", "2"), ("0", "1", "2"))))
    assert hs.to_nf(1, e) == nd("h0.2_1_0")
    with pytest.raises(SSetError, match="does not saturate"):
        hom_from_names(C, "0", "2", 1, (("0.1.2@0",), chain))
    # the free vertex 1 entering at 0, in the chain's S_0
    with pytest.raises(SSetError, match="do not saturate"):
        hs.to_nf(1, (e[0], (0,)))


def test_simplex_hom_is_cube_nerve():
    # Hom_{C[Delta^{k+1}]}(0, k+1) is the nerve of the cube {0,1}^k
    assert cube_chain_counts(5) == (32, 211, 570, 750, 480, 120)
    for k in range(6):
        C = categorify(horizontal(d(k + 1)))
        assert C.hom_sset("0", str(k + 1)).nd_counts() == cube_chain_counts(k)


def _hom_from_full_levels(C, a, b):
    """Hom(a, b) materialized from every element, degenerate ones included."""
    from necklace_calculus.cubes import chains
    from necklace_calculus.necklace import necklace_joint_ids, necklace_vertex_ids
    from necklace_calculus.sset import materialize

    def levels(j):
        poset = TndPoset(level_of(C, j), a, b)
        return sorted((t.beads, ch) for t in poset.objects
                      for ch in chains(necklace_joint_ids(poset.K, t),
                                       necklace_vertex_ids(poset.K, t), j, saturated=True))

    return materialize(levels, lambda e, j, mu: hom_act_by_names(C, e, j, mu),
                       C.hom_bound(a, b), prefix=f"h{a}.{b}_",
                       degen=lambda e, j, i: hom_degen_by_names(C, e, j, i)).sset


@pytest.mark.parametrize("W", FOUR_BASES, ids=FOUR_IDS)
def test_levels_match_act_oracle(W):
    # table-derived faces, vertices and 1-orderedness on every level slice of
    # the base, and the bead table's row-0 vertices
    C = categorify(W)
    beads = [b for bs in C._beads().values() for b in bs]
    assert sorted(b.gen for b in beads) == sorted(g for g in W.gens() if W.bidegree(g)[0])
    for g, k, verts in beads:
        m = W.bidegree(g)[0]
        assert (k, verts) == (W.bidegree(g)[1],
                              tuple(W.act(bnd(g), mu_h=(i,)).gen for i in range(m + 1))), g
    for j in range(C.bound + 1):
        L = C.level(j)
        for g in L.gens():
            m = L.gen_dim(g)
            for i, f in enumerate(L.faces.get(g, ())):
                want = W.act(L.origin[g], mu_h=delta.coface(i, m))
                assert f == (want.hword, level_id(W, want.gen, want.vword)), (j, g, i)
            assert L.vertices(nd(g)) == act_vertices(L, nd(g)), (j, g)
        assert ops.is_1_ordered(L) == act_is_1_ordered(L), j


def _straightening_categorifications(n, X, count):
    """Every categorification built by straightening id (x) X over Delta[n]:
    count of them, c W and one per LF[j, Delta[k]] the Straightener used, read
    off its fulls, since a warm table leaves none in _cat_lfs."""
    from necklace_calculus.bisset import BiMap
    from necklace_calculus.groth import vtensor
    from necklace_calculus.straighten import Straightener, delta_precat

    W = delta_precat(n).W
    P, elem_of, _ = vtensor(W, X)
    st = Straightener(W)
    ob = st.st_object(P, BiMap(P, W, {g: elem_of[g][0] for g in P.gens()}, validate=False))
    for a in st.CW.objects:
        ob.value(a)
    out = [st.CW] + list({id(C): C for fr in st._fulls.values() for C in (fr.C, fr.C1)}.values())
    assert len(out) == count
    return out


HOM_LEVEL_CASES = {
    **{name: (lambda W=W: [categorify(W)]) for name, W in zip(FOUR_IDS, FOUR_BASES)},
    "id_x_bd2_over_d2": lambda: _straightening_categorifications(2, shapes.boundary(2), 9),
    "id_x_d2_over_d1": lambda: _straightening_categorifications(1, d(2), 10),
    "lf2_delta2_bound2": lambda: [categorify(lf(2, d(2)).W, bound=2)],
}


@pytest.mark.parametrize("name", sorted(HOM_LEVEL_CASES))
def test_hom_levels_match_poset_oracle(name):
    # bead paths give the same generators, in the same order (the id order),
    # as the level slices' necklace posets, at every level up to each pair's
    # bound
    for C in HOM_LEVEL_CASES[name]():
        for a in C.objects:
            for b in C.objects:
                hs = C.hom(a, b)
                X = hs.sset
                for j in range(C.hom_bound(a, b) + 1):
                    got = [hom_names(C, a, b, hs.elem_of[g])
                           for g in (X.by_dim[j] if j <= X.dim_bound else ())]
                    assert got == hom_levels_from_posets(C, a, b, j), (a, b, j)


@pytest.mark.parametrize("name", sorted(HOM_LEVEL_CASES))
def test_hom_matches_full_listing_route(name):
    # every element of every level slice's necklaces, degenerate ones
    # included, through the name-form action: the same hom spaces, byte for byte
    from necklace_calculus.io_schemas import canonical_json, sset_dump

    for C in HOM_LEVEL_CASES[name]():
        for a in C.objects:
            for b in C.objects:
                want = canonical_json(sset_dump(_hom_from_full_levels(C, a, b)))
                assert canonical_json(sset_dump(C.hom_sset(a, b))) == want, (a, b)


@pytest.mark.parametrize("name", sorted(HOM_LEVEL_CASES))
def test_face_tables_match_act_oracle(name):
    # both sides of each face are read as elements through the generic action,
    # so neither the hom's face table nor its degeneracy stripping is trusted
    for C in HOM_LEVEL_CASES[name]():
        for a in C.objects:
            for b in C.objects:
                hs = C.hom(a, b)
                X = hs.sset
                for x in X.gens():
                    j = X.gen_dim(x)
                    for i, f in enumerate(X.faces.get(x, ())):
                        want = act_hom_action(C, hom_names(C, a, b, hs.elem_of[x]), j,
                                              delta.coface(i, j))
                        got = act_hom_action(C, hom_names(C, a, b, hs.elem_of[f.gen]),
                                             X.gen_dim(f.gen),
                                             delta.word_to_epi(f.word, j - 1))
                        assert got == want, (a, b, x, i)


@pytest.mark.parametrize("ks", [(0,), (2,), (1, 1), (0, 2), (2, 0, 1), (1, 1, 1), (3, 1)])
def test_word_tuples_match_filtered_product(ks):
    # the pruned listing gives the word tuples of the filtered product, in
    # its order, with each tuple's flat positions
    import itertools

    from necklace_calculus.categorify import _word_tuples

    for j in range(max(ks), 6):
        for free in range(j + 1):
            want = []
            for words in itertools.product(*(delta.all_words(j - k, j) for k in ks)):
                flat = frozenset(words[0]).intersection(*words[1:])
                if len(flat) <= free:
                    want.append((words, sum(1 << i for i in flat)))
            assert list(_word_tuples(ks, j, free)) == want, (j, free)


def _hammer(work, n_threads=8):
    """Run work(k) in n_threads threads at once, switching as often as the
    interpreter can; each must finish within two minutes and raise nothing."""
    import sys
    import threading

    errors = []

    def guarded(k):
        try:
            work(k)
        except Exception as exc:  # reported below: a thread's failure must fail the test
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(k,)) for k in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


def test_bead_ids_and_rows_are_handed_out_once_across_threads():
    # threads sharing a categorification ask for the same beads and necklace
    # rows at once: each key gets one id, and each id names its key, where an
    # unlocked check-then-append hands one bead two ids
    C = categorify(lf(2, d(2)).W)
    a, b = C.objects[0], C.objects[-1]
    C.hom(a, b)
    lb, table = C._level_beads, C._hom_build(a, b)[0]
    gens = [g for g in C.W.gens() if C.W.bidegree(g)[0]]
    keys = [(g, (i,)) for i in range(40) for g in gens]
    combos = [tuple(sorted(table.rows[n].beads + table.rows[m].beads))
              for n in range(0, len(table.rows), 3) for m in range(0, len(table.rows), 5)]

    def work(k):
        for key in keys[k::3] + keys[k::2]:
            lb.id(*key)
        for beads in combos[k::3] + combos[k::2]:
            table.row(C.W.bidegree(lb.keys[beads[0]][0])[1] + len(lb.keys[beads[0]][1]), beads)

    _hammer(work)
    assert len(lb.keys) == len(lb._ids) and all(lb.keys[i] == key for key, i in lb._ids.items())
    assert len(table.rows) == len(table._index)
    assert all(table.rows[n].beads == beads for beads, n in table._index.items())


def test_hom_builds_agree_across_threads():
    # threads sharing one categorification build all its hom spaces and
    # compose in them at once: every hom space and composite equals the one
    # made alone
    from necklace_calculus.io_schemas import canonical_json, sset_dump

    def run(C, pairs):
        out = {}
        for a, b in pairs:
            out[(a, b)] = canonical_json(sset_dump(C.hom_sset(a, b)))
        for a, b in pairs:
            for c in C.objects:
                G, F = C.hom_sset(b, c), C.hom_sset(a, b)
                for g in G.gens():
                    f = next((f for f in F.gens() if F.gen_dim(f) == G.gen_dim(g)), None)
                    if f is not None:
                        out[(a, b, c, g, f)] = C.comp_el(a, b, c, nd(g), nd(f))
        return out

    W = lf(2, d(2)).W
    C = categorify(W)
    pairs = [(a, b) for a in C.objects for b in C.objects]
    want = run(categorify(W), pairs)
    got = []
    _hammer(lambda k: got.append(run(C, pairs[k:] + pairs[:k])), n_threads=6)
    assert len(got) == 6 and all(out == want for out in got)


def test_hom_is_shared_with_handles():
    # a handle is a copy that shares the tables, so what one builds the other holds
    C = categorify(horizontal(d(2)))
    H = C.handle()
    assert H is not C and H.hom("0", "2") is C.hom("0", "2")


# every shape whose FullRep the process-wide table of straighten keeps
KEPT_SHAPES = [(m, k) for m in range(4) for k in range(4) if m + 1 + k <= 4]


@pytest.mark.parametrize("m,k", KEPT_SHAPES)
def test_one_bead_generators_generate_the_homs(m, k):
    # each generator is the composite, at its level, of its beads, each bead
    # with the entry times of its own free vertices and a degeneracy of a
    # generator that one_bead lists: what kan.coend_key relies on
    C = categorify(lf(m, d(k)).W)
    composed = 0
    for a in C.objects:
        for c in C.objects:
            if a == c:
                continue
            table, space = C._hom_build(a, c)
            for x in space.sset.gens():
                n, ts = space.elem_of[x]
                row = table.rows[n]
                acc = None
                for i, b in enumerate(row.beads):
                    u, v = row.joints[i], row.joints[i + 1]
                    lo, hi = row.bounds[i], row.bounds[i + 1]
                    el = C.element(u, v, row.j, [table.beads.keys[b]],
                                   dict(zip(row.free[lo:hi], ts[lo:hi])))
                    assert el.gen in C.one_bead(u, v)
                    acc = el if acc is None else C.comp_el(a, u, v, el, acc)
                assert acc == nd(x)
                composed += len(row.beads) > 1
    assert composed or m <= 1  # two objects: every necklace is one bead
