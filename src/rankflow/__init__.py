"""Move-to-front ranking particle systems and their hydrodynamic limit.

Finite-N simulation (original, flow-driven, and exactly coupled), offline
evaluation of empirical measures and characteristic curves, point processes
with last-arrival-time dependent hazards, the deterministic limit-flow
solver, and an experiment harness that checks the convergence statements
empirically.
"""

from .errors import ConfigError, ConvergenceError, DomainError, EnvelopeBreach
from .intensity import (AffineField, ConstantField, Histogram, IntensityField,
                        PopulationAssignment, PopulationClass, PopulationSpec,
                        ProductField, TableField, assign_population,
                        load_spec, pin_particles, spec_from_config)
from .latp import (ArrivalSequence, LatpIntensity, SurvivalTable,
                   derivative_bound_check, sample_arrivals, sample_replicas,
                   survival_series, survival_solve, thin_last_arrival)
from .flow import (BoundaryPoint, FlowGrid, LimitSolution, PhiEvaluator,
                   boundary, initial, solve_y_c, tagged_limit_path, tilde_w,
                   verify_ode_form)
from .srp import (CouplingRecord, EventLog, RankIndex, simulate,
                  simulate_coupled, simulate_flow_driven)
from .measure import (EvaluationLattice, LogEvaluator, TestFunction,
                      sup_distance)

__version__ = "0.1.0"
