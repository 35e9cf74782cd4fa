"""Theorem-specific machinery: the eigenvectors of mu2 to analyze, discrete
critical points of the second Neumann eigenfunction, the radial comparison
field anchored at a candidate critical point, nodal structure, boundary-flux
signs, Rayleigh defects, the spectral inequalities, and the final verdict.

Critical points of the continuum eigenfunction are approximated by
combinatorial (Banchoff) critical vertices of the P1 interpolant: an interior
vertex is classified by the cyclic sign sequence of psi(neighbor)-psi(vertex)
around its link (0 alternations: extremum, >= 4: saddle, 2: regular).  The
alternations are counted per triangle fan: each triangle at the vertex
contributes one link edge, which alternates iff its two ends differ in sign,
so no angular sort of the link is needed.  Ties within 1e-12*||psi||_inf are
resolved by vertex index (simulation of simplicity).  The verdict flags a
critical vertex only if its farthest-boundary distance undercuts the
exclusion threshold by more than 2*h_max, absorbing the O(h) localization
error; F at every vertex, that tolerance and the vertices and triangles it
admits are one `AdmissibleSet` per run.  The comparison field's zero set is
exactly its P1 nodal segments, so its branches around the anchor are counted
as circle-segment crossings in closed form, not by sampling the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .bessel import SpectralConstants, j0_array, j1_array
from .errors import AnchorOnBoundary, CircleOutsideDomain, NotPositiveComponent
from .fem import Spectrum, fix_signs, gradients, rayleigh
from .geometry import ConvexPolygon, farthest_boundary_distance
from .meshing import TriMesh

TIE_REL = 1e-12
DEGENERACY_FLAG_REL_GAP = 1e-2  # mu3/mu2 - 1 at or below which the mu2 pair is degenerate
# The two triangle columns other than column i, in order.
_DUO_COLUMNS = np.array([[1, 2], [0, 2], [0, 1]])


@dataclass(frozen=True)
class CriticalPoint:
    vertex_id: int
    location: tuple[float, float]
    value: float
    kind: str  # 'max' | 'min' | 'saddle'
    alternations: int
    farthest_distance: float


@dataclass(frozen=True, eq=False)
class ComparisonField:
    """w(x) = psi(x0) * J0(sqrt(mu2) |x - x0|) - psi(x) on mesh vertices,
    with x0 the vertex ``anchor_index`` and psi pre-negated so psi(x0) >= 0."""

    anchor_index: int
    mu2: float
    psi_at_anchor: float
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class NodalDecomposition:
    segments: np.ndarray          # (s, 2, 2) zero-crossing segments
    labels: np.ndarray            # (n,) component id per vertex, -1 if |w|<=tie
    component_signs: np.ndarray   # (c,) +1 or -1
    touches_boundary: np.ndarray  # (c,) bool
    positive_component_count: int


@dataclass(frozen=True)
class InequalityReport:
    kroger_margin: float              # 4 j0^2 - mu2 diam^2
    payne_weinberger_margin: float    # mu2 diam^2 - pi^2
    strong_kroger_holds: bool         # mu2 diam^2 <= j1^2
    szego_weinberger_margin: float    # pi jp11^2 - mu2 area
    polya_margin: float               # (lambda1 - mu2) diam^2


@dataclass(frozen=True, eq=False)
class AdmissibleSet:
    """Where the verdict looks: a vertex is admissible when F <= threshold -
    tolerance and its boundary clearance exceeds the tolerance, a triangle
    when all three of its vertices are."""

    threshold: float       # c_excl * diam, the exclusion region's
    tolerance: float       # 2 * h_max
    far: np.ndarray        # (n,) F at each mesh vertex
    vertices: np.ndarray   # (n,) bool
    triangles: np.ndarray  # (m,) bool


@dataclass(frozen=True)
class RayleighDefect:
    dirichlet_energy: float
    mass_energy: float
    boundary_term: float
    combo_rayleigh: float | None  # zero-mean two-component Rayleigh quotient


# --- critical points ----------------------------------------------------------

def admissible_set(mesh: TriMesh, threshold: float) -> AdmissibleSet:
    """The run's one AdmissibleSet for the exclusion threshold c_excl * diam."""
    tolerance = 2.0 * mesh.h_max
    far = farthest_boundary_distance(mesh.polygon, mesh.vertices)
    ok = (far <= threshold - tolerance) & (mesh.boundary_clearance > tolerance)
    return AdmissibleSet(threshold=threshold, tolerance=tolerance, far=far, vertices=ok,
                         triangles=ok[mesh.triangles].all(axis=1))


def find_critical_points(
    mesh: TriMesh, psi: np.ndarray, admissible: AdmissibleSet
) -> list[CriticalPoint]:
    """Banchoff classification of every interior vertex of the P1 field.

    The link cycle of an interior vertex v is formed by the edges opposite v
    in its triangle fan, so its sign alternations are the fan triangles whose
    two other vertices get different signs relative to v.
    """
    tie = TIE_REL * float(np.abs(psi).max())
    n = mesh.vertex_count
    alt = np.zeros(n, dtype=int)
    first_sign = np.zeros(n)
    tris = mesh.triangles
    for k in range(3):
        v, a, b = tris[:, k], tris[:, (k + 1) % 3], tris[:, (k + 2) % 3]
        sa = _link_signs(psi, tie, v, a)
        alt += np.bincount(v, weights=sa != _link_signs(psi, tie, v, b),
                           minlength=n).astype(int)
        first_sign[v] = sa
    crit = np.nonzero(mesh.interior_mask & (alt != 2))[0]
    kinds = np.where(alt[crit] >= 4, "saddle", np.where(first_sign[crit] > 0, "min", "max"))
    return [CriticalPoint(vertex_id=int(v), location=tuple(mesh.vertices[v].tolist()),
                          value=float(psi[v]), kind=str(k), alternations=int(alt[v]),
                          farthest_distance=float(admissible.far[v]))
            for v, k in zip(crit, kinds)]


def _link_signs(psi: np.ndarray, tie: float, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sign of psi(u) - psi(v), ties within `tie` broken by vertex index."""
    diffs = psi[u] - psi[v]
    return np.where(np.abs(diffs) <= tie, np.where(u > v, 1.0, -1.0), np.sign(diffs))


def theorem_check(points: list[CriticalPoint],
                  rule: AdmissibleSet) -> tuple[CriticalPoint, ...]:
    """The violations: critical points deeper inside the exclusion region than
    the tolerance.  The claim passes when there are none."""
    return tuple(p for p in points if p.farthest_distance <= rule.threshold - rule.tolerance)


def mu2_eigenvectors(mesh: TriMesh, spectrum: Spectrum,
                     admissible: AdmissibleSet) -> list[np.ndarray]:
    """psi2; for a degenerate pair psi2, psi3 and, if some triangle is
    admissible, their unit combination of least gradient on such a triangle.  P1
    gradients are constant per triangle, so there min |grad(a psi2 + b psi3)| over
    a^2 + b^2 = 1 is the smaller singular value of [grad psi2, grad psi3]."""
    vals, vecs = spectrum.eigenvalues, spectrum.eigenvectors
    if len(vals) < 3 or (vals[2] - vals[1]) / vals[1] > DEGENERACY_FLAG_REL_GAP:
        return [vecs[:, 1]]
    out = [vecs[:, 1], vecs[:, 2]]
    grads = gradients(mesh, vecs[:, 1:3])[admissible.triangles]
    if len(grads):
        _, sigma, vt = np.linalg.svd(grads)  # the least sigma's right singular vector
        out.append(fix_signs(vecs[:, 1:3] @ vt[np.argmin(sigma[:, 1]), 1, :, None])[:, 0])
    return out


# --- comparison field -----------------------------------------------------------

def build_comparison(
    mesh: TriMesh, psi: np.ndarray, mu2: float, anchor_index: int
) -> ComparisonField:
    """Radial Helmholtz comparison field anchored at mesh vertex anchor_index."""
    d = mesh.vertices - mesh.vertices[anchor_index]
    dist = np.hypot(d[:, 0], d[:, 1])
    psi = np.asarray(psi, dtype=float)
    if psi[anchor_index] < 0.0:
        psi = -psi
    root_mu = math.sqrt(mu2)
    w = psi[anchor_index] * j0_array(root_mu * dist) - psi
    return ComparisonField(
        anchor_index=anchor_index,
        mu2=mu2,
        psi_at_anchor=float(psi[anchor_index]),
        values=w,
    )


def branch_count(mesh: TriMesh, anchor_index: int, segments: np.ndarray,
                 radius: float) -> int:
    """Nodal branches of a P1 field crossing the circle of `radius` about
    vertex `anchor_index`: the circle's crossings of the field's zero-crossing
    `segments` (nodal_decomposition), which are its sign changes around it.

    On P + t d, t in [0, 1], |P + t d - x0|^2 - r^2 is convex in t: the
    segment crosses once if its ends lie on opposite sides of the circle,
    and twice if both ends lie outside and its nearest point, at
    t = -(P - x0).d / |d|^2 in (0, 1), lies inside.
    """
    if radius < 3.0 * mesh.h_max:
        raise ValueError(f"radius {radius:g} < 3*h_max = {3.0 * mesh.h_max:g}")
    if radius >= mesh.boundary_clearance[anchor_index]:
        raise CircleOutsideDomain(f"circle of radius {radius:g} leaves the domain")
    p = segments[:, 0] - mesh.vertices[anchor_index]
    d = segments[:, 1] - segments[:, 0]
    r2 = radius * radius
    in0 = np.einsum("ij,ij->i", p, p) < r2
    in1 = np.einsum("ij,ij->i", p + d, p + d) < r2
    dd, pd = np.einsum("ij,ij->i", d, d), -np.einsum("ij,ij->i", p, d)
    cross = p[:, 0] * d[:, 1] - p[:, 1] * d[:, 0]
    # the nearest point, at t = pd/dd in (0, 1), is inside iff cross^2 < r^2 dd;
    # a zero-length segment (w = 0 at a vertex) has dd = 0 and never dips
    dips = ~in0 & ~in1 & (0.0 < pd) & (pd < dd) & (cross * cross < r2 * dd)
    return int(np.sum(in0 != in1) + 2 * np.sum(dips))


# --- nodal structure -------------------------------------------------------------

def nodal_decomposition(mesh: TriMesh, w: np.ndarray) -> NodalDecomposition:
    """Zero-crossing segments of the P1 interpolant plus signed components.

    Components are numbered in order of their lowest vertex index. A
    component touches the boundary iff it owns a boundary vertex or any
    vertex within h_max of the boundary; components failing that are the
    interior nodal domains the decomposition exists to detect.
    """
    w = np.asarray(w, dtype=float)
    n = mesh.vertex_count
    tie = TIE_REL * float(np.abs(w).max()) if np.any(w) else 0.0
    signed = np.where(np.abs(w) <= tie, 0, np.where(w > 0.0, 1, -1))

    a, b = mesh.edges.T
    same = (signed[a] != 0) & (signed[a] == signed[b])
    graph = coo_matrix((np.ones(int(same.sum())), (a[same], b[same])), shape=(n, n))
    _, raw = connected_components(graph, directed=False)
    # Renumber by each component's lowest vertex, not scipy's label order.
    kept = np.flatnonzero(signed)
    _, first, comp = np.unique(raw[kept], return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    labels = np.full(n, -1)
    labels[kept] = rank[comp]
    n_comp = len(first)

    comp_signs = np.zeros(n_comp, dtype=int)
    comp_signs[labels[kept]] = signed[kept]
    touches = np.zeros(n_comp, dtype=bool)
    near = ~mesh.interior_mask | (mesh.boundary_clearance <= mesh.h_max)
    touches[labels[kept[near[kept]]]] = True

    # Per mixed-sign triangle, cut the two edges leaving its odd-signed
    # vertex ("solo"), the other two ("duo") taken in triangle order.
    tris = mesh.triangles
    pos = w[tris] > 0.0
    n_pos = pos.sum(axis=1)
    mixed = (n_pos == 1) | (n_pos == 2)
    tris, pos = tris[mixed], pos[mixed]
    solo_col = np.argmax(pos == (n_pos[mixed] == 1)[:, None], axis=1)
    rows = np.arange(len(tris))
    solo = tris[rows, solo_col]
    duo = tris[rows[:, None], _DUO_COLUMNS[solo_col]]
    t = w[solo][:, None] / (w[solo][:, None] - w[duo])
    verts = mesh.vertices
    seg_arr = verts[solo][:, None, :] + t[:, :, None] * (verts[duo] - verts[solo][:, None, :])

    return NodalDecomposition(
        segments=seg_arr,
        labels=labels,
        component_signs=comp_signs,
        touches_boundary=touches,
        positive_component_count=int(np.sum(comp_signs > 0)),
    )


# --- boundary flux ------------------------------------------------------------------

def boundary_flux(field: ComparisonField, mesh: TriMesh) -> np.ndarray:
    """Analytic normal derivative of the radial part at boundary-edge midpoints:
    psi(x0) sqrt(mu2) J0'(sqrt(mu2) r) (x - x0).nu / r.

    Uses the closed form rather than a discrete gradient, isolating the sign
    argument from discretization noise.
    """
    if not mesh.interior_mask[field.anchor_index]:
        raise AnchorOnBoundary("comparison anchor lies on the boundary")
    x0 = mesh.vertices[field.anchor_index]
    mids = 0.5 * (
        mesh.vertices[mesh.boundary_edges[:, 0]]
        + mesh.vertices[mesh.boundary_edges[:, 1]]
    )
    rel = mids - x0
    r = np.hypot(rel[:, 0], rel[:, 1])
    root_mu = math.sqrt(field.mu2)
    deriv = -j1_array(root_mu * r)
    dots = np.einsum("ij,ij->i", rel, mesh.boundary_normals)
    return field.psi_at_anchor * root_mu * deriv * dots / r


# --- Rayleigh defect ------------------------------------------------------------------

def rayleigh_defect(
    mesh: TriMesh,
    k_mat,
    m_mat,
    field: ComparisonField,
    decomposition: NodalDecomposition,
    component_id: int,
    flux: np.ndarray,
) -> RayleighDefect:
    """Energies of w restricted to a positive nodal component.

    dirichlet_energy <= mass_energy (+ discretization slack) realizes the
    one-sided Rayleigh bound whenever boundary_term <= 0; combo_rayleigh is
    the quotient of the zero-mean combination of this component with the
    largest-mass other positive component, when one exists.
    """
    w = field.values
    labels = decomposition.labels
    if (
        component_id < 0
        or component_id >= len(decomposition.component_signs)
        or decomposition.component_signs[component_id] <= 0
        or not np.any((labels == component_id) & (w > 0.0))
    ):
        raise NotPositiveComponent(f"component {component_id} is not positive")

    phi = np.where(labels == component_id, w, 0.0)
    dirichlet = float(phi @ (k_mat @ phi))
    mass = field.mu2 * float(phi @ (m_mat @ phi))

    e0 = labels[mesh.boundary_edges[:, 0]] == component_id
    e1 = labels[mesh.boundary_edges[:, 1]] == component_id
    both = e0 & e1
    term = 0.0
    if np.any(both):
        a = mesh.vertices[mesh.boundary_edges[both, 0]]
        b = mesh.vertices[mesh.boundary_edges[both, 1]]
        lengths = np.hypot(*(b - a).T)
        w_mid = 0.5 * (
            w[mesh.boundary_edges[both, 0]] + w[mesh.boundary_edges[both, 1]]
        )
        term = float(np.sum(w_mid * flux[both] * lengths))

    combo = None
    others = [
        c
        for c in range(len(decomposition.component_signs))
        if c != component_id and decomposition.component_signs[c] > 0
    ]
    if others:
        masses = []
        for c in others:
            phi_c = np.where(labels == c, w, 0.0)
            masses.append(float(phi_c @ (m_mat @ phi_c)))
        other = others[int(np.argmax(masses))]
        phi2 = np.where(labels == other, w, 0.0)
        ones = np.ones(mesh.vertex_count)
        m1 = float(ones @ (m_mat @ phi))
        m2 = float(ones @ (m_mat @ phi2))
        u = m2 * phi - m1 * phi2 if (m1 or m2) else phi + phi2
        if np.any(u):
            combo = rayleigh(k_mat, m_mat, u)

    return RayleighDefect(
        dirichlet_energy=dirichlet,
        mass_energy=mass,
        boundary_term=term,
        combo_rayleigh=combo,
    )


# --- inequality suite ---------------------------------------------------------------------

def inequality_checks(
    mu2: float, lambda1: float, poly: ConvexPolygon, constants: SpectralConstants
) -> InequalityReport:
    """Margins of the diameter- and area-based spectral bounds.

    Every margin is dimensionless: eigenvalues enter times diam^2 or times
    the area, so the diameter-based lower bound is used in its squared form
    mu2 * diam^2 >= pi^2.
    """
    d, _ = poly.diameter
    mu_d2 = float(mu2) * d * d
    return InequalityReport(
        kroger_margin=float(4.0 * constants.j0 ** 2 - mu_d2),
        payne_weinberger_margin=float(mu_d2 - math.pi ** 2),
        strong_kroger_holds=bool(mu_d2 <= constants.j1 ** 2),
        szego_weinberger_margin=float(math.pi * constants.jp11 ** 2 - mu2 * poly.area),
        polya_margin=float((lambda1 - mu2) * d * d),
    )


# --- diagnostic --------------------------------------------------------------------------

def steinerberger_diagnostic(mesh: TriMesh, psi: np.ndarray) -> float:
    """Distance from the argmax set of psi to the diameter endpoints, in units
    of the inradius.  Reported only; no pass/fail attaches to it."""
    psi = np.asarray(psi, dtype=float)
    spread = float(psi.max() - psi.min())
    max_set = mesh.vertices[psi >= psi.max() - 1e-9 * spread]
    poly = mesh.polygon
    dmin = min(
        float(np.hypot(*(max_set - e).T).min()) for e in np.array(poly.diameter[1])
    )
    return dmin / poly.inradius[0]
