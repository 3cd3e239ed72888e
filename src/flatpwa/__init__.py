"""flatpwa: exact PWA decompositions of shallow ReLU surrogates, certified
approximation errors, and mixed-integer constrained control (CLF / MPC) for
feedback-linearized differentially flat systems."""

from .tolerances import DEFAULT, Tolerances
from .numkernel import QpProblem, QpResult, solve_qp, eig_sym
from .polytope import (HPolytope, VertexSet, box_bounds, intersect, is_empty,
                       row_violations, vertices)
from .relupwa import (AffinePiece, PwaDecomposition, ReluNetwork, enumerate_cells,
                      forward, piece_for_pattern, pwa_lipschitz)
from .errorbounds import (ErrorCertificate, GridSpec, TaylorCellBound,
                          grid_error_certificate, taylor_cell_bounds)
from .miencoding import (AdmissibleUnion, BigMData, MiqpModel,
                         build_admissible_union, compute_big_m, encode_horizon,
                         encode_point, lift_rows, step_rows,
                         validate_big_m_override)
from .miqpsolver import (MiqpResult, SolveBudget, solve_by_cell_enumeration,
                         solve_miqp)
from .controllers import (ClfSpec, MpcSpec, clf_step, flmpc_step, mpc_step,
                          verify_clf)
from .simulate import (ControllerInfeasible, rk4_discretize, run_closed_loop,
                       trace_csv)
from . import plants

__version__ = "0.1.0"
