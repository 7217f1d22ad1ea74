"""Sandpile growth and collapse dynamics on weighted graphs.

Simulates p-Laplacian gradient flows and their slope-constrained limits
(two growth models and the collapse of unstable data), and verifies the
states against exact transport-duality certificates.
"""

from .graph import (WeightedGraph, build_graph, load_graph, field_values,
                    nu_norm, distance_rows, build_path, build_star,
                    build_truncated_z)
from .calculus import p_laplacian
from .proximal import (ConstraintSet, DykstraProjector, ProjectionError,
                       ResolventError, is_stable, max_relative_slope, project,
                       resolvent_p)
from .evolution import (SourceSchedule, Trajectory, TruncationError,
                        solve_p_flow, solve_growth, solve_collapse,
                        converge_p_experiment, collapse_via_p_experiment)
from .transport import (TransportInstance, is_lipschitz_wrt, kantorovich_pairing,
                        ot_cost_oracle, verify_potential, verify_dual_criteria)
from .scenario import (ScenarioConfig, ScenarioError, parse_scenario,
                       load_scenario, run_scenario, write_trajectory,
                       read_trajectory)

__version__ = "0.1.0"
