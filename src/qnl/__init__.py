"""Pseudo-spectral Navier-Stokes-Poisson suite on the periodic torus.

Simulates the rescaled compressible system at Debye length lambda, its
incompressible Navier-Stokes and Euler limits, and the fast-oscillation
machinery (Leray projections, rotation group, filtered pair system,
correctors) needed to measure the O(lambda) quasineutral convergence rate
for ill-prepared initial data.
"""

from .ansatz import (CorrectorForcings, CorrectorState, OscillationFields,
                     PairTrajectory, build_oscillation, corrector_state,
                     osc_rhs, solve_osc)
from .errors import (BlowUpError, ChildLostError, DegenerateDensityError,
                     DensityNotPositiveError, InsufficientDataError,
                     InvalidConfigError, InvalidResolutionError,
                     MassDefectError, NonpositiveTemperatureError,
                     NonZeroMeanError, NotGradientError, QnlError)
from .harness import (BaseFields, ConvergenceReport, RateFit, ReportRow,
                      RunConfig, default_base_fields, fit_rate,
                      gen_initial_data, load_config, measure_errors,
                      run_sweep)
from .limit_solver import (LimitState, LimitTrajectory, PhysParams, ns_rhs,
                           recover_pressure, run_limit)
from .nsp import NSPState, nsp_dt, nsp_rhs_nonstiff, poisson_solve, run_nsp
from .oscillation import GradientPair, apply_group, generator
from .projections import decompose, leray_p, leray_q
from .spectral import (SpectralScalar, SpectralVector, TorusGrid, derivative,
                       divergence, gradient, inverse_laplacian, laplacian,
                       make_grid, product, read_snapshot, sobolev_norm,
                       transform_forward, transform_inverse, write_snapshot)
from .stepping import Snapshots

__version__ = "0.1.0"
