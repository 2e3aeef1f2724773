"""Finite simplicial sets, necklace calculus, categorification, and straightening."""

from .sset import NF, SSet, SSetError, SSetMap, nd, identity_map, constant_map
from .shapes import simplex, boundary, horn, spine, point, sub_inclusion, simplex_operator
from .ops import (Diagram, DiagramError, colimit, pushout, coequalizer, coproduct,
                  mediating_map, product, pairing, pi0, is_connected, is_1_ordered,
                  find_iso, find_isos, find_arrow_iso, enumerate_maps, sub_sset,
                  component_maps)
from .bisset import (BiSSet, BiMap, BiNF, bnd, external, horizontal, vertical, diag,
                     discretize, lf, lf_map, bi_pushout, bi_colimit, rename_gens,
                     external_map, LF)
from .necklace import (Necklace, RealizedNecklace, TndPoset, PairObject,
                       PairPoset, plus_m, pair_poset_iso, UnsupportedInput,
                       necklaces_dot)
from .cubes import (cube_hom, cube_of_pair, pushforward, split_iso,
                    projection_phi, Weight, weight_F, weight_G0, weight_constant,
                    weighted_colim, weighted_colim_map, weight_inclusion_G0_F0, chains)
from .scat import (SCat, Presheaf, NatTrans, EnrichedFunctor, suspension, sigma_m,
                   glue_end, ch_simplex, representable, terminal_presheaf,
                   enumerate_nat_trans, point_cat, directed_cat)
from .categorify import Categorification, cfunctor, scat_functor
from .nerves import Nerve, strict_nerve, hc_nerve, nerve_comparison, hc_functors
from .kan import enriched_lan, lan_into_representable, LanResult
from .straighten import (Cell, Straightener, StObject, st_over_map, cone, cone_hom,
                         st_mono_formula, straighten_full, straighten_last_vertex,
                         straighten_boundary_pp, unstraighten,
                         projection_pi, w_sigma, delta_precat, pushout_product_object)
from .groth import (groth, groth_map, eta_compare, rightfib_check, groth_right_adjoint,
                    vtensor)

__version__ = "0.1.0"
