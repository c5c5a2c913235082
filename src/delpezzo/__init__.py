"""Exact-arithmetic toolkit for nodal del Pezzo threefolds.

Defect of nodal hypersurfaces in weighted projective spaces, divisor
calculus on the blow-up along a standard line, replay of semiorthogonal
decomposition mutations with audited side conditions, path algebras of the
chain quivers appearing in nodal degenerations, and the K-theoretic
existence gate for Kawamata-type decompositions.

Importing the package loads no submodule: each public name is looked up
in its module on first use (PEP 562), so a caller loads only the layers it
uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name, by the module that defines it
_EXPORTS = {name: module for module, names in (
    ("catalog", "DelPezzoEntry DegenerationCase enumerate_degenerations lookup"),
    ("intersection", "BlowupGeometry DivisorClass canonical_class from_hd he "
                     "rewrite triple"),
    ("ktheory", "ComponentModel GateVerdict KProfile consistency_check k_minus1_total "
                "k0_total kawamata_gate standard_models"),
    ("lattice", "IntMatrix rank rational_nullspace"),
    ("mutations", "AuditLog Equivalence MutationRule ReplayScript apply_rule "
                  "compare_and_solve pushforward_vanishing replay"),
    ("quivers", "PathAlgebraReport Quiver double_burban k0_rank "
                "path_basis single_burban"),
    ("sod", "Decomposition FactStore LineBundle Opaque SodNode TwistedStructureSheaf "
            "query_complete_orthogonality record_decomposition validate"),
    ("wps", "DefectReport NodalHypersurface WeightedSpace build_nodal_hypersurface "
            "defect enumerate_monomials"),
) for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
