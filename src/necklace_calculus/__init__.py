"""Finite simplicial sets, necklace calculus, categorification, and straightening.

The names below are imported from their modules on first access (PEP 562), so
`import necklace_calculus` loads no submodule, and a process loads only the
modules it uses.
"""

import importlib
import sys
import types

_EXPORTS = {
    "sset": ("NF", "SSet", "SSetError", "SSetMap", "nd", "identity_map", "constant_map"),
    "shapes": ("simplex", "boundary", "horn", "spine", "point", "sub_inclusion",
               "simplex_operator"),
    "ops": ("Diagram", "DiagramError", "colimit", "pushout", "coequalizer", "coproduct",
            "mediating_map", "product", "pairing", "pi0", "is_connected", "is_1_ordered",
            "find_iso", "find_isos", "find_arrow_iso", "enumerate_maps", "sub_sset",
            "component_maps"),
    "bisset": ("BiSSet", "BiMap", "BiNF", "bnd", "external", "horizontal", "vertical", "diag",
               "discretize", "lf", "lf_map", "bi_pushout", "bi_colimit", "rename_gens",
               "external_map", "LF"),
    "necklace": ("RealizedNecklace", "TndPoset", "PairObject", "PairPoset",
                 "plus_m", "pair_poset_iso", "UnsupportedInput", "necklaces_dot"),
    "cubes": ("cube_hom", "cube_of_pair", "pushforward", "split_iso", "projection_phi",
              "Weight", "weight_F", "weight_G0", "weight_constant", "weighted_colim",
              "weighted_colim_map", "weight_inclusion_G0_F0", "chains"),
    "scat": ("SCat", "Presheaf", "NatTrans", "EnrichedFunctor", "suspension", "sigma_m",
             "glue_end", "ch_simplex", "representable", "terminal_presheaf",
             "enumerate_nat_trans", "point_cat", "directed_cat"),
    "categorify": ("Categorification", "cfunctor", "scat_functor"),
    "nerves": ("Nerve", "strict_nerve", "hc_nerve", "nerve_comparison", "hc_functors"),
    "kan": ("enriched_lan", "lan_into_representable", "LanResult"),
    "straighten": ("Cell", "Straightener", "StObject", "st_over_map", "cone", "cone_hom",
                   "st_mono_formula", "straighten_full", "straighten_last_vertex",
                   "straighten_boundary_pp", "unstraighten", "projection_pi", "w_sigma",
                   "delta_precat", "pushout_product_object"),
    "groth": ("groth", "groth_map", "eta_compare", "rightfib_check", "groth_right_adjoint",
              "vtensor"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An export, imported from its module and kept here on first access."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


class _Package(types.ModuleType):
    """The package module, which keeps its exports over same-named submodules:
    importing necklace_calculus.groth binds the submodule on the package,
    where the name groth is the function of that module."""

    def __setattr__(self, name: str, value) -> None:
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
