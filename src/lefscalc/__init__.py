"""Exact Lefschetz traces, Euler integrals, and multiplicity tables.

The package computes, in exact rational (and Gaussian rational)
arithmetic, global and local fixed-point traces of simplicial self-maps,
Euler integrals of constructible functions on simplicial complexes and
finite cell spaces, Morse multiplicity tables of vertex functionals, and
cell models of flag manifolds with their fixed loci.

Importing the package loads no layer: each name below is imported from
its module on first use (PEP 562), and so is each submodule
(`lefscalc.fixtures`, `lefscalc.io`, ...).
"""

from importlib import import_module

__version__ = "0.1.0"

# export name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "Cell",
            "CellSpace",
            "CellularSubset",
            "SimplicialComplex",
            "barycentric_subdivide",
            "canonical_tuple",
            "connected_components",
            "induced_subcomplex",
            "link",
            "star",
            "subdivided_complex",
            "validate",
        ),
        "complexes",
    ),
    **dict.fromkeys(
        (
            "CellSpaceUnsupportedError",
            "DegenerateInputError",
            "FixedPointNotSimplicialError",
            "GenericityError",
            "InvalidComplexError",
            "LefscalcError",
            "NoApplicableRegimeError",
            "NonSimplicialMapError",
            "NotHyperbolicError",
            "ParseError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "ConstructibleFunction",
            "chi_c",
            "combine",
            "euler_integral",
            "pullback",
            "pushforward",
            "pushforward_spec",
            "restrict",
        ),
        "euler",
    ),
    **dict.fromkeys(
        (
            "GaussianRational",
            "Rat",
            "RationalMatrix",
            "RationalPolynomial",
            "count_real_roots_geq",
            "parse_rational",
        ),
        "exact",
    ),
    **dict.fromkeys(
        (
            "NormalData",
            "TracedProblem",
            "fixed_components",
            "fixed_subcomplex",
            "hyperbolicity_report",
            "local_contribution",
            "local_trace_function",
            "localization_report",
            "signed_local_contribution",
        ),
        "fixedpoint",
    ),
    **dict.fromkeys(
        (
            "BruhatCellSpace",
            "bruhat_leq",
            "derive_intersection_pattern",
            "example_3_9",
            "fixed_locus_cellspace",
            "flag_cellspace",
            "schubert_subset",
        ),
        "flags",
    ),
    **dict.fromkeys(
        (
            "betti",
            "chain_complex",
            "euler_characteristic",
            "hopf_trace",
            "homology_trace",
            "homology_traces",
            "lefschetz_number",
            "relative_betti",
            "relative_lefschetz_number",
            "self_map_endomorphism",
        ),
        "homology",
    ),
    **dict.fromkeys(("SelfMapSpec", "SimplicialMap", "compose", "refine"), "maps"),
    **dict.fromkeys(
        (
            "CycleTableReport",
            "MultiplicityTable",
            "VertexFunctional",
            "cc_table",
            "genericity_check",
            "index_sum",
            "lefschetz_cycle_table",
            "microlocal_index",
            "morse_multiplicity",
        ),
        "morse",
    ),
}
_MODULES = frozenset(_EXPORTS.values()) | {"cli", "fixtures", "io", "reports", "verify"}

__all__ = sorted({*_EXPORTS, *_EXPORTS.values()})


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _MODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
