"""Exact-arithmetic toolkit for nodal del Pezzo threefolds.

Defect of nodal hypersurfaces in weighted projective spaces, divisor
calculus on the blow-up along a standard line, replay of semiorthogonal
decomposition mutations with audited side conditions, path algebras of the
chain quivers appearing in nodal degenerations, and the K-theoretic
existence gate for Kawamata-type decompositions.
"""

from .catalog import (DelPezzoEntry, DegenerationCase, enumerate_degenerations,
                      lookup, singularity_budget)
from .intersection import (BASIS_HE, BASIS_hD, BlowupGeometry, DivisorClass,
                           canonical_class, he, hd, iskovskikh_degree, rewrite,
                           triple)
from .ktheory import (ComponentModel, GateVerdict, KProfile, consistency_check,
                      k_minus1_total, k0_total, kawamata_gate, standard_models)
from .lattice import IntMatrix, rank, rational_nullspace
from .mutations import (AuditLog, Equivalence, MutationRule, ReplayScript,
                        apply_rule, compare_and_solve, pushforward_vanishing,
                        replay)
from .quivers import (PathAlgebraReport, Quiver, cartan_matrix, double_burban,
                      k0_rank, path_basis, single_burban)
from .sod import (Decomposition, FactStore, LineBundle, Opaque,
                  SodNode, TwistedStructureSheaf, query_complete_orthogonality,
                  record_decomposition, validate)
from .wps import (DefectReport, NodalHypersurface, WeightedSpace,
                  build_nodal_hypersurface, defect, enumerate_monomials)

__version__ = "0.1.0"
