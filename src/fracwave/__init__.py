"""Variational time stepping for fractional semilinear wave equations.

The pieces: 1d finite elements with spectral fractional calculus
(`operators`), reaction potentials (`potentials`), the implicit
minimization time loop with optional obstacle (`stepper`), verification
instruments (`diagnostics`), and a batch CLI (`cli`).
"""

from .errors import BlowupError, ConfigurationError, NumericError, SolverFailure
from .operators import (Mesh1D, OperatorSet, build_mesh, build_operators,
                        fractional_apply, poincare_constant, seminorm_s,
                        spectral_decompose)
from .potentials import (DoubleWellPotential, Potential, QuadraticPotential,
                         ScaledPotential, ZeroPotential, double_well,
                         gl_scaled, quadratic, zero_potential)
from .stepper import (SchemeConfig, SolverParams, StepResult, Trajectory,
                      el_residual, energy, eval_interpolants, minimize_step,
                      run, step_functional, step_gradient, vi_residuals)
from .diagnostics import (ConvergenceReport, InterfaceTrace, MolReference,
                          RefinementRow, check_gronwall_sequence,
                          convergence_study, cosine_reference,
                          discrete_gronwall_bound, energy_drift,
                          gl_energy_accounting, interface_radius,
                          lagrangian_density, no_contact_check,
                          oracle_mol, oracle_recurrence, track_interface)

__version__ = "0.1.0"
