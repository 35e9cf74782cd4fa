"""P1 finite-element assembly and generalized eigensolves.

Stiffness uses the exact edge-vector (cotangent) formula, mass the exact
consistent element matrix (A/12)[[2,1,1],[1,2,1],[1,1,2]]; both are assembled
with a deterministic COO->CSR reduction, and the same edge vectors give each
triangle's constant P1 gradient (``gradients``).  Eigenpairs of K v = mu M v come
from Lanczos (ARPACK) on the inverse of the sigma-shifted matrix
A = K + sigma*M (K_II for Dirichlet), which LAPACK's banded Cholesky factors
in reverse Cuthill-McKee order (George & Liu, 1981), or SuperLU when that
band would be too large.  The Dirichlet factor takes the Neumann order
restricted to the interior vertices: deleting rows and columns from a band
ordering cannot widen its band.  On the banded path the Lanczos runs in
standard mode on the whitened operator U^-T M U^-1 of the factor A = U'U, so
a step is two triangular half-solves and one M product; the SuperLU path
runs shift-invert mode 3.  Every pair's relative residual must be within
RESIDUAL_GATE; ARPACK stops at 1e-4 of it, with a Krylov basis of 2k + 4
vectors, and sees M times a power of 4 near 1/area, so that its Ritz values
are of order one on a domain of any size.  The Neumann start is a fixed
seeded random vector and the Dirichlet start the all-ones vector (its ground
state has one sign), so repeated runs are bit-identical; small problems fall
back to a dense solve.  The contract is the residual bound checked at the
end, not the iteration internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, cholesky_banded, eigh
from scipy.linalg.blas import dtbmv, dtbsv
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .bessel import find_constants
from .errors import ConvergenceFailure, NoInteriorVertices, ZeroVector
from .meshing import TriMesh, element_edges

SIGMA_SHIFT_REL = 1e-3  # Neumann shift, relative to the Szego-Weinberger bound on mu2
CONSTANT_MODE_ULPS = 4  # |K 1| may reach CONSTANT_MODE_ULPS * n * eps * max|K_ij|
DENSE_CUTOFF = 400
RESIDUAL_GATE = 1e-8  # bound on every reported pair's relative residual
# (kd+1)*n band entries above which the shift-invert factor is SuperLU's: past
# about 12M entries (96 MiB) the banded factor's storage and solves cost more
BAND_MAX_ENTRIES = 12_000_000


@dataclass(frozen=True)
class SolveStats:
    """How one eigensolve ran (the metrics.json sidecar)."""

    path: str             # 'dense' | 'banded' | 'superlu'
    n: int
    kd: int | None        # band half-width in RCM order; None on the dense path
    operator_solves: int
    converged_pairs: int


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with M-orthonormal vertex-valued eigenvectors."""

    eigenvalues: np.ndarray   # (k,)
    eigenvectors: np.ndarray  # (n, k)
    residuals: np.ndarray     # (k,) ||K v - mu M v|| / (mu ||M v||); Neumann mu_1 = 0
                              # reports ||K 1||_inf / max|K_ij| instead
    stats: SolveStats
    order: np.ndarray | None = None  # Neumann: the RCM vertex order both factors take


def _scatter(mesh: TriMesh, entry) -> sp.csr_matrix:
    """Sum entry(e, area, i, j), the (m,) element values at local vertices
    (i, j), into an n x n matrix by a COO->CSR reduction."""
    e, area = element_edges(mesh.vertices, mesh.triangles)
    ij = [(i, j) for i in range(3) for j in range(3)]
    rows = np.concatenate([mesh.triangles[:, i] for i, _ in ij])
    cols = np.concatenate([mesh.triangles[:, j] for _, j in ij])
    vals = np.concatenate([entry(e, area, i, j) for i, j in ij])
    n = mesh.vertex_count
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """K_ij = sum_elements integral grad(phi_i).grad(phi_j); exact for P1."""
    return _scatter(mesh, lambda e, area, i, j: np.einsum("kd,kd->k", e[i], e[j]) / (4.0 * area))


def assemble_mass(mesh: TriMesh) -> sp.csr_matrix:
    return _scatter(mesh, lambda e, area, i, j: area * ((2.0 if i == j else 1.0) / 12.0))


def gradients(mesh: TriMesh, values: np.ndarray) -> np.ndarray:
    """(m, 2, c) P1 gradients of the (n, c) values' columns: grad phi_i = rot90(e[i]) / 2A."""
    e, area = element_edges(mesh.vertices, mesh.triangles)
    g = sum(e[i][:, :, None] * values[mesh.triangles[:, i], None, :] for i in range(3))
    return np.stack([-g[:, 1], g[:, 0]], axis=1) / (2.0 * area)[:, None, None]


def rayleigh(k_mat, m_mat, v: np.ndarray) -> float:
    """v'Kv / v'Mv."""
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ZeroVector("Rayleigh quotient of the zero vector")
    return float(v @ (k_mat @ v)) / float(v @ (m_mat @ v))


def fix_signs(vecs: np.ndarray) -> np.ndarray:
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return np.where(peak < 0.0, -vecs, vecs)


def _m_orthonormalize(vecs: np.ndarray, m_mat) -> np.ndarray:
    out = vecs.copy()
    for j in range(out.shape[1]):
        for i in range(j):
            out[:, j] -= (out[:, i] @ (m_mat @ out[:, j])) * out[:, i]
        out[:, j] /= np.sqrt(out[:, j] @ (m_mat @ out[:, j]))
    return out


def _residuals(k_mat, m_mat, vals, vecs) -> np.ndarray:
    """||K v - mu M v|| / (|mu| ||M v||) per pair: scale-free for mu != 0."""
    res = np.empty(len(vals))
    for i, mu in enumerate(vals):
        v = vecs[:, i]
        mv = m_mat @ v
        res[i] = np.linalg.norm(k_mat @ v - mu * mv) / (abs(mu) * np.linalg.norm(mv))
    return res


def neumann_shift(m_mat) -> float:
    """SIGMA_SHIFT_REL times pi j'_{1,1}^2 / area, the Szego-Weinberger bound
    on mu2, with area = 1'M1: the shift scales with the spectrum."""
    return SIGMA_SHIFT_REL * math.pi * find_constants().jp11 ** 2 / float(m_mat.sum())


class SpdInverse(spla.LinearOperator):
    """The factor of a sparse symmetric positive definite A, counting solves.

    A is ordered by ``perm`` and its upper triangle scattered from the COO
    entries, through the inverse permutation, into a Fortran (kd+1, n) band
    that LAPACK factors in place, P A P' = U'U with P that permutation; that
    factor is used through `whitened`, `whiten` and `unwhiten`.  When the band would hold
    more than BAND_MAX_ENTRIES entries, SuperLU factors A instead, and the
    operator is x = A^-1 b.  A factor that fails, or has a pivot within
    rounding (n * eps) of zero, raises ConvergenceFailure naming the problem.
    """

    def __init__(self, mat, problem: str, perm: np.ndarray):
        n = mat.shape[0]
        super().__init__(np.dtype(float), (n, n))
        self.solves = 0
        self.perm = perm
        inv = np.empty(n, dtype=np.intp)
        inv[self.perm] = np.arange(n)
        coo = mat.tocoo()
        rows, cols = inv[coo.row], inv[coo.col]
        upper = rows <= cols
        rows, cols = rows[upper], cols[upper]
        self.kd = int((cols - rows).max())
        if (self.kd + 1) * n > BAND_MAX_ENTRIES:
            self.path = "superlu"
            try:
                self._lu = spla.splu(mat.tocsc())
            except RuntimeError as exc:
                raise ConvergenceFailure(f"{problem} matrix is singular: {exc}") from exc
            return
        self.path = "banded"
        band = np.zeros((self.kd + 1, n), order="F")
        band[self.kd + rows - cols, cols] = coo.data[upper]
        diag = band[self.kd].copy()
        try:
            self._factor = cholesky_banded(band, overwrite_ab=True, check_finite=False)
        except LinAlgError as exc:
            raise ConvergenceFailure(
                f"{problem} matrix is not positive definite: {exc}"
            ) from exc
        tiny = np.flatnonzero(self._factor[self.kd] ** 2 <= n * np.finfo(float).eps * diag)
        if len(tiny):
            raise ConvergenceFailure(
                f"{problem} matrix is numerically singular: pivot {tiny[0] + 1} of {n} "
                "is within rounding of zero"
            )

    def _matvec(self, b):
        """A^-1 b, SuperLU path only: the banded path is used whitened."""
        self.solves += 1
        return self._lu.solve(np.ravel(b))

    # In whitened coordinates y = U P v the pencil M v = theta A v is the
    # standard symmetric problem C y = theta y, C = U^-T (P M P') U^-1, whose
    # Lanczos steps need no M inner products.  Banded path only.

    def whitened(self, m_mat, scale: float) -> spla.LinearOperator:
        """scale * C as an operator; each product is two half-solves and one
        M product, and counts as one solve."""
        m_rcm = m_mat.tocsr()[self.perm][:, self.perm]
        m_rcm.data *= scale

        def matvec(y):
            self.solves += 1
            return self._half(m_rcm @ self._half(np.ravel(y), "N"), "T")

        return spla.LinearOperator(self.shape, matvec=matvec, dtype=float)

    def whiten(self, v: np.ndarray) -> np.ndarray:
        """y = U P v."""
        return dtbmv(self.kd, self._factor, v[self.perm])

    def unwhiten(self, y: np.ndarray) -> np.ndarray:
        """v = P' U^-1 y for each column y."""
        v = np.empty_like(y)
        v[self.perm] = np.column_stack([self._half(col, "N") for col in y.T])
        return v

    def _half(self, b: np.ndarray, trans: str) -> np.ndarray:
        """U^-1 b ('N') or U^-T b ('T')."""
        return dtbsv(self.kd, self._factor, b, trans=int(trans == "T"))


def _smallest_pairs(k_mat, m_mat, k: int, sigma: float, v0: np.ndarray, problem: str,
                    order: np.ndarray):
    """Smallest k pairs of K v = mu M v, ascending, from Lanczos started at v0
    on the inverse of K + sigma M factored in ``order``.

    ARPACK stops at 1e-4 * RESIDUAL_GATE, inside the gate, with a Krylov
    basis of 2k + 4 vectors.  On the banded path it runs in standard mode on
    the whitened operator (SpdInverse.whitened), on the SuperLU path in
    shift-invert mode 3 with M inner products.
    """
    n = k_mat.shape[0]
    if n <= DENSE_CUTOFF or k >= n - 1:
        vals, vecs = eigh(k_mat.toarray(), m_mat.toarray())
        return vals[:k], vecs[:, :k], SolveStats("dense", n, None, 0, k)
    shifted = k_mat + sigma * m_mat
    inverse = SpdInverse(shifted, problem, order)
    lanczos = {"k": k, "ncv": 2 * k + 4, "tol": 1e-4 * RESIDUAL_GATE, "maxiter": 500}
    # ARPACK's stopping test turns absolute for Ritz values below eps^(2/3).
    # M times a power of 4 near 1/area keeps them, c/(mu + sigma), of order
    # one on a domain of any size, and scales every step exactly.
    c = math.ldexp(1.0, -2 * round(math.log(float(m_mat.sum()), 4)))
    try:
        if inverse.path == "banded":
            theta, y = spla.eigsh(inverse.whitened(m_mat, c), which="LA",
                                  v0=inverse.whiten(v0), **lanczos)
            vals, vecs = c / theta, inverse.unwhiten(y)
        else:
            vals, vecs = spla.eigsh(shifted, M=c * m_mat, sigma=0.0, which="LM", v0=v0,
                                    OPinv=inverse, **lanczos)
            vals = c * vals
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceFailure(
            f"ARPACK: {len(exc.eigenvalues)} of {k} pairs converged in 500 iterations"
        ) from exc
    rank = np.argsort(vals)
    stats = SolveStats(inverse.path, n, inverse.kd, inverse.solves, len(vals))
    return vals[rank] - sigma, vecs[:, rank], stats


def solve_neumann(k_mat, m_mat, k: int, seed: int = 0) -> Spectrum:
    """Smallest k Neumann pairs of K v = mu M v.

    mu_1 = 0 is reported exactly, with the M-normalized constant vector; the
    remaining vectors are M-orthonormalized against it.  The constant mode
    is checked as an assembly invariant, ||K 1||_inf within
    CONSTANT_MODE_ULPS * n * eps of max|K_ij|, and that ratio is its residual.
    """
    if k < 2:
        raise ValueError("need k >= 2 for the Neumann problem")
    n = k_mat.shape[0]
    v0 = np.random.default_rng(seed).standard_normal(n)
    order = reverse_cuthill_mckee(k_mat.tocsr(), symmetric_mode=True)
    vals, vecs, stats = _smallest_pairs(k_mat, m_mat, k, neumann_shift(m_mat), v0, "Neumann",
                                        order)

    const = np.ones(n)
    const /= np.sqrt(const @ (m_mat @ const))
    vecs = np.column_stack([const, vecs[:, 1:]])
    vals = np.concatenate([[0.0], vals[1:]])
    vecs = fix_signs(_m_orthonormalize(vecs, m_mat))

    constant = np.abs(k_mat @ np.ones(n)).max() / np.abs(k_mat.data).max()
    if constant > CONSTANT_MODE_ULPS * n * np.finfo(float).eps:
        raise ConvergenceFailure(f"stiffness matrix does not annihilate constants: "
                                 f"||K 1||_inf / max|K_ij| = {constant:.3g}")
    res = np.concatenate([[constant], _residuals(k_mat, m_mat, vals[1:], vecs[:, 1:])])
    if np.any(res[1:] > RESIDUAL_GATE):
        raise ConvergenceFailure(f"residuals {res} exceed {RESIDUAL_GATE:g}")
    return Spectrum(vals, vecs, res, stats, order)


def solve_dirichlet(mesh: TriMesh, k_mat, m_mat, k: int, order: np.ndarray) -> Spectrum:
    """Smallest k Dirichlet pairs of the mesh's assembled K and M; boundary
    rows/columns eliminated, vectors reported with zeros on boundary vertices.
    The factor takes the Neumann spectrum's vertex ``order`` restricted to
    the interior vertices.

    The ground state has one sign, so Lanczos starts from the all-ones
    vector.  Sign-changing pairs orthogonal to it (on a symmetric mesh) are
    still found for k > 1: rounding seeds them.
    """
    interior = mesh.interior_mask
    if not np.any(interior):
        raise NoInteriorVertices("Dirichlet problem needs interior vertices")
    idx = np.nonzero(interior)[0]
    k_red = k_mat[np.ix_(idx, idx)].tocsr()
    m_red = m_mat[np.ix_(idx, idx)].tocsr()
    k_eff = min(k, len(idx))
    block_order = (np.cumsum(interior) - 1)[order[interior[order]]]
    vals, vecs_red, stats = _smallest_pairs(k_red, m_red, k_eff, 0.0, np.ones(len(idx)),
                                            "Dirichlet", block_order)
    vecs_red = fix_signs(_m_orthonormalize(vecs_red, m_red))
    res = _residuals(k_red, m_red, vals, vecs_red)
    if np.any(res > RESIDUAL_GATE):
        raise ConvergenceFailure(f"residuals {res} exceed {RESIDUAL_GATE:g}")
    vecs = np.zeros((mesh.vertex_count, k_eff))
    vecs[idx] = vecs_red
    return Spectrum(vals, vecs, res, stats)
