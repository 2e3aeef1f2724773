"""The package's exports and what each command imports.

The package resolves its exports on first access, and the command line
imports the straightening stack and the verification battery only inside the
commands that run them.  These tests pin the exports and, in fresh
interpreters, the modules that an import and a `hom` or `straighten` call add
to those of a bare interpreter.
"""

import json
import os
import subprocess
import sys

import pytest

import necklace_calculus
from necklace_calculus.bisset import horizontal, vertical
from necklace_calculus.io_schemas import bisset_dump
from necklace_calculus.shapes import simplex

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the exports of the package, by module
EXPORTS = {
    "sset": ["NF", "SSet", "SSetError", "SSetMap", "nd", "identity_map", "constant_map"],
    "shapes": ["simplex", "boundary", "horn", "spine", "point", "sub_inclusion",
               "simplex_operator"],
    "ops": ["Diagram", "DiagramError", "colimit", "pushout", "coequalizer", "coproduct",
            "mediating_map", "product", "pairing", "pi0", "is_connected", "is_1_ordered",
            "find_iso", "find_isos", "find_arrow_iso", "enumerate_maps", "sub_sset",
            "component_maps"],
    "bisset": ["BiSSet", "BiMap", "BiNF", "bnd", "external", "horizontal", "vertical", "diag",
               "discretize", "lf", "lf_map", "bi_pushout", "bi_colimit", "rename_gens",
               "external_map", "LF"],
    "necklace": ["RealizedNecklace", "TndPoset", "PairObject", "PairPoset",
                 "plus_m", "pair_poset_iso", "UnsupportedInput", "necklaces_dot"],
    "cubes": ["cube_hom", "cube_of_pair", "pushforward", "split_iso", "projection_phi",
              "Weight", "weight_F", "weight_G0", "weight_constant", "weighted_colim",
              "weighted_colim_map", "weight_inclusion_G0_F0", "chains"],
    "scat": ["SCat", "Presheaf", "NatTrans", "EnrichedFunctor", "suspension", "sigma_m",
             "glue_end", "ch_simplex", "representable", "terminal_presheaf",
             "enumerate_nat_trans", "point_cat", "directed_cat"],
    "categorify": ["Categorification", "cfunctor", "scat_functor"],
    "nerves": ["Nerve", "strict_nerve", "hc_nerve", "nerve_comparison", "hc_functors"],
    "kan": ["enriched_lan", "lan_into_representable", "LanResult"],
    "straighten": ["Cell", "Straightener", "StObject", "st_over_map", "cone", "cone_hom",
                   "st_mono_formula", "straighten_full", "straighten_last_vertex",
                   "straighten_boundary_pp", "unstraighten", "projection_pi", "w_sigma",
                   "delta_precat", "pushout_product_object"],
    "groth": ["groth", "groth_map", "eta_compare", "rightfib_check", "groth_right_adjoint",
              "vtensor"],
}


def test_every_export_resolves_to_its_module():
    names = necklace_calculus.__dir__()
    assert sum(map(len, EXPORTS.values())) == 114
    for module, exports in EXPORTS.items():
        mod = __import__(f"necklace_calculus.{module}", fromlist=["_"])
        for name in exports:
            assert getattr(necklace_calculus, name) is getattr(mod, name), name
            assert name in names, name
    assert sorted(necklace_calculus.__all__) == sorted(n for ns in EXPORTS.values() for n in ns)


def test_an_export_keeps_its_name_over_a_submodule_of_that_name():
    import necklace_calculus.groth  # the import system binds the submodule on the package

    assert necklace_calculus.groth is sys.modules["necklace_calculus.groth"].groth
    assert callable(necklace_calculus.groth)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        necklace_calculus.__getattr__("nosuch")
    assert not hasattr(necklace_calculus, "nosuch")


def _added_modules(script: str) -> set[str]:
    """The modules that script adds to those of a bare interpreter, run in a fresh one."""
    code = ("import sys\n_bare = set(sys.modules)\n" + script
            + "\nprint('\\n'.join(sorted(set(sys.modules) - _bare)))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def test_importing_the_package_loads_no_submodule():
    added = _added_modules("import necklace_calculus")
    assert "necklace_calculus" in added
    assert not [m for m in added if m.startswith("necklace_calculus.")]


def _cli_call(argv) -> str:
    return ("from necklace_calculus import cli\n"
            f"assert cli.main({argv!r}) == 0\n")


def test_hom_loads_no_straightening_battery_or_openssl(tmp_path):
    base, out = tmp_path / "w.json", tmp_path / "out.json"
    base.write_text(json.dumps(bisset_dump(horizontal(simplex(2)))))
    added = _added_modules(_cli_call(["hom", "--base", str(base), "--from", "0", "--to", "2",
                                      "--out", str(out)]))
    assert "necklace_calculus.categorify" in added
    for module in ("verify", "straighten", "kan", "nerves", "groth"):
        assert f"necklace_calculus.{module}" not in added, module
    assert not added & {"_hashlib", "hashlib", "dataclasses"}


def test_straighten_loads_no_battery_or_openssl(tmp_path):
    base, total, out = (tmp_path / f"{n}.json" for n in ("pt", "x", "out"))
    base.write_text(json.dumps(bisset_dump(horizontal(simplex(0)))))
    total.write_text(json.dumps(bisset_dump(vertical(simplex(1)))))
    added = _added_modules(_cli_call(["straighten", "--base", str(base), "--total", str(total),
                                      "--full", "--out", str(out)]))
    assert "necklace_calculus.straighten" in added
    assert "necklace_calculus.verify" not in added
    assert not added & {"_hashlib", "hashlib"}
