"""Exact calculi over finite-dimensional Hopf algebras.

Structure constants in, sparse exact linear algebra throughout: Hopf
algebra verification, the three differential graded calculi, the
module-comodule / flat-connection correspondences, and Cotor homology via
the two-sided cobar complex.

Importing the package imports every submodule but the command line front
end, and stays eager: code that wraps the package's functions from
outside (``verdictbench/spans.py``) finds every module in ``sys.modules``
after ``import hopfcalc``.  Start-up time is kept down where it is
spent instead, in ``linalg``'s load of scipy's compiled routines.
"""

from .fields import Field, QQ
from .linalg import Matrix, tensor_decode, tensor_encode
from .hopf import (BialgebraMorphism, HopfAlgebra, build_dual_group_algebra,
                   build_group_algebra, build_sweedler, build_taft, cyclic_table,
                   permute_basis, symmetric_table, verify_axioms, verify_morphism)
from .modules import (BimoduleCoalgebra, GroupoidData, ModComod, check_ayd,
                      check_equivariant, check_stable, check_yd, coadjoint_comodule,
                      coassociativity_defects, enumerate_characters, enumerate_grouplikes,
                      groupoid_decompose, modcomod_from_groupoid, one_dim_modcomod,
                      regular_modcomod, trivial_modcomod, verify_bimodule_coalgebra)
from .calculus import Calculus, verify_dga
from .homology import ChainComplex, HomologyTable, cobar_complex, compare_cotor, homology_dims
from .connections import (Connection, Curvature, check_connection,
                          check_dg_module_structure, coaction_from_connection,
                          coefficient_complex, connection_from_coaction, curvature,
                          is_flat, sandwich_action, tensor_connection)

__version__ = "0.1.0"
