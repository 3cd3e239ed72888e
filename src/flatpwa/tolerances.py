"""The package's numeric thresholds, one table of values.

Every solver and geometric predicate reads ``DEFAULT`` directly; no function
takes a tolerance argument, so every stage of the pipeline (cells, error
bound, union, branch and bound, controllers) judges "feasible", "empty" and
"optimal" alike.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # per-row feasibility residual accepted by the QP kernel and the polytope
    # predicates; find_point scales rows to unit norm, so there it is a
    # distance (HiGHS, the tests' LP reference, applies its own 1e-7)
    feas: float = 1e-8
    # KKT residual accepted for a QP solution; also the gradient change at
    # which the QP kernel's proximal passes stop
    qp_kkt: float = 1e-7
    # absolute symmetry defect tolerated in quadratic cost / symmetric inputs
    sym: float = 1e-10
    # smallest eigenvalue >= -psd * ||H|| still counts as positive semidefinite
    psd: float = 1e-8
    # a QP row a counts as linearly dependent on the working and equality
    # rows when its step direction, the residual of J'a off the working
    # rows' columns, is at most this times |J'a| (J J' the inverse cost on
    # the equality null space); singular values of the unit-scaled equality
    # rows at most this count as zero
    qp_dependence: float = 1e-10
    # a QP multiplier (unit-norm rows) above this times the largest of
    # max(1, |H|), |g| and the proximal weight certifies infeasibility
    qp_dual_cap: float = 1e10
    # proximal weight on cost-free QP columns, relative to max(1, |H|)
    qp_prox: float = 1.0
    # duplicate-vertex merge radius (absolute, max-norm)
    vertex_dedupe: float = 1e-7
    # binary variables are accepted as integral within this distance
    binary_integrality: float = 1e-6
    # absolute objective gap at which branch and bound declares optimality
    miqp_gap: float = 1e-6


DEFAULT = Tolerances()
