"""Dispersion-operator algebra, Fock representations and linear canonical transforms."""

from .fock import dispersion_matrices, ladder_matrices, sigma_operators, truncated_commutator_check
from .hermite import BasisParams, SampledWavefunction, dispersion_estimate, phi, phi_tilde, project, synthesize
from .metaplectic import build_unitary, verify_basis_transformation, verify_homomorphism
from .symplectic import ThetaAngles, compose, exp_sl2, exp_sp, from_angles, invert, is_symplectic
from .tables import TABLE_IDS, verify_table
from .weyl import (
    Metric,
    WeylAlgebra,
    build_generator,
    build_ladder,
    closure_and_constants,
    commutator,
    transform_generators,
)

__version__ = "0.1.0"
