"""Workload definitions of the hsv benchmark, as plain JSON-able dicts.

A workload names the public entry point it drives (``run_verify`` or
``run_sweep``), the domain, the arguments of each timed call, the smaller
arguments of the untimed warm-up call made during set-up, and the analytic
references its correctness gate checks against. The references are literals,
not values computed by the program under test.
"""

import math

# j'_{1,1}^2: first nonzero Neumann eigenvalue of the unit disk.
DISK_MU2 = 3.3899577166718897
# 2x1 rectangle: Neumann mu2 = (pi/2)^2, Dirichlet lambda1 = pi^2 (1/4 + 1).
RECT_MU2 = (math.pi / 2.0) ** 2
RECT_LAMBDA1 = 5.0 * math.pi ** 2 / 4.0

# Relative tolerance of the analytic-reference gates.
REF_TOL = 0.01

DISK_SPEC = {"schema": 1, "kind": "disk", "radius": 1.0, "polygonization_n": 512}
RECT_SPEC = {"schema": 1, "kind": "rectangle", "length": 2.0, "width": 1.0}

WORKLOADS = {
    # The README's `verify` example. mu2 is degenerate, so ten eigenvectors
    # are analyzed: per-eigenvector analysis dominates, geometry is small.
    "disk": {
        "entry": "run_verify",
        "spec": DISK_SPEC,
        "call": {"h": 0.02, "svg": True, "show_nodal": True},
        "warmup": {"h": 0.1, "svg": True, "show_nodal": True},
        "mu2": DISK_MU2,
    },
    # The --refine convergence path: the large mesh comes from refine, one
    # eigenvector, ~24k scalar J0 calls; the largest eigensolve share.
    "rect_refined": {
        "entry": "run_verify",
        "spec": RECT_SPEC,
        "call": {"h": 0.04, "refinements": 2},
        "warmup": {"h": 0.25, "refinements": 1},
        "mu2": RECT_MU2,
        "lambda1": RECT_LAMBDA1,
    },
    # Many small meshes of seeded random convex domains: fixed per-domain
    # costs (exclusion region, mesh generation, spec and report writes).
    "sweep": {
        "entry": "run_sweep",
        "call": {"count": 6, "h_rel": 0.02},
        "warmup": {"count": 1, "h_rel": 0.1},
    },
}
