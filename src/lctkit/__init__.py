"""Dispersion-operator algebra, Fock representations and linear canonical transforms."""

from .fock import dispersion_matrices, ladder_matrices, sigma_operators
from .hermite import BasisParams, SampledWavefunction, dispersion_estimate, phi, project, synthesize
from .metaplectic import build_unitary, verify_basis_transformation, verify_homomorphism
from .symplectic import ThetaAngles, exp_sl2, exp_sp, from_angles
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
