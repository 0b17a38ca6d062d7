"""Concatenated quantum stabilizer codes from Reed-Solomon codes.

Construction of the binary [[2N(2m+1), 2m(N-2K)]] stabilizer family by
block expansion of a CSS Reed-Solomon pair over GF(2^(2m)), exact
verification of its defining algebra, minimum-distance search at desk
scale, and the analytic rate/distance bound curves.

The names below are imported from their modules on first use (PEP 562).
``stabcat.cli`` imports no other module of the package on import:
each command imports only the layers it runs, and ``--help`` none
(the README's "Start-up" paragraph lists each command's modules).
"""

from importlib import import_module

__version__ = "0.1.0"

#: the curves that ``bounds`` evaluates, kept here so that the CLI can
#: offer them as choices without importing ``bounds``
CURVE_NAMES = ("ours", "ours_finite_m", "ashikhmin", "chen", "matsumoto",
               "baseline_rs")

_EXPORTS = {
    "bounds": ("BoundCurve", "delta_curve", "entropy4", "entropy4_inv",
               "min_total_weight", "params_for_rate", "total_weight_bound",
               "verify_volume_bound"),
    "concat": ("ExpansionInput", "QuaternaryVector", "StabilizerCodeL",
               "SymplecticVector", "build_code", "check_block_injectivity",
               "expand_block", "expand_codeword", "to_quaternary"),
    "distance": ("DistanceReport", "exact_distance", "sampled_distance_upper",
                 "verify_counting_claims"),
    "field": ("Field", "build_field", "combine", "coords",
              "find_self_dual_basis"),
    "rs": ("RsCode", "build_rs_pair", "css_generators", "rs_contains",
           "rs_encode"),
    "symplectic": ("row_reduce", "symplectic_product", "symplectic_weight",
                   "verify_duality"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
