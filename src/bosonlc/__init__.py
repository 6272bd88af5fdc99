"""Propagation bounds for number-conserving boson lattice models.

Analytic light-cone bounds for single-boson hopping plus density
interactions, verified against exact dynamics on truncated Fock spaces, with
a certified Hilbert-space truncation pipeline for one-dimensional chains.
"""

from .bounds import (BoundParams, closed_form_envelope, ensemble_commutator_bound,
                     finite_density_commutator_bound, initial_envelope,
                     integrate_envelope, m_matrix_bound, matrix_element_bound,
                     velocity_bound, velocity_from_coupling)
from .certify import (CertifiedValue, DensityAssumption, boson_cutoff,
                      certified_expectation, fock_state_assumption,
                      restriction_error_bound, total_error_bound, truncation_radius)
from .cluster import ClusterReport, GaplessError, clustering_bound, clustering_experiment
from .dynamics import (HeisenbergScanEngine, ScanResult, connected_correlation,
                       evolve_state, ground_state, lightcone_scan,
                       single_particle_propagator)
from .fock import (CapacityError, FockBasis, Interaction, ModelSpec,
                   PiecewiseConstant, bose_hubbard, build_hamiltonian,
                   check_number_conservation, ladder_op, total_number_op)
from .lattice import (Graph, build_cubic, build_path, build_regular_tree,
                      count_covering_edges, distance, fatten)
from .opspace import (BlockOp, MonomialOp, MuWeights, commutator_weighted_norm,
                      check_thermal_relation, f_beta_expectation,
                      monomial_commutator_bound, weighted_inner)

__version__ = "0.1.0"
