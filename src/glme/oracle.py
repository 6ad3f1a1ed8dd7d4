"""Dense brute-force reference engines in truncated Hilbert spaces.

Everything here validates covariance-level results against direct density
matrix algebra in small dense spaces, without assuming Gaussianity or
trusting the moment machinery under test. Each engine applies its generator
in operator form, L(rho) = G rho + rho G' + sum_j F_j rho B_j with
G = -iH - K/2, G' = iH - K/2 and B_j = sum_k gamma[j, k] F_k^dag (the double
sum over the decoherence matrix grouped by its rows), in ``liouvillian`` and
the Heisenberg ``liouvillian_adjoint``. The engines are built from the
exact parts ``model.require_valid`` returns, the decoherence matrix's
Hermitian part and the Hamiltonian matrix's (anti)symmetric part, so the
generator maps Hermitian operators to Hermitian operators: its sparse
superoperator S on row-major vectorized states is fixed by its rows m <= n
(S[pi j, pi k] = conj S[j, k] for the transposition pi: |m><n| -> |n><m|),
and on an orthonormal basis of Hermitian matrices it is a real matrix R
(Gorini, Kossakowski & Sudarshan, J. Math. Phys. 17:821, 1976). S is
block diagonal up to a permutation (a quadratic Hamiltonian with linear
channels never changes the parity of m + n in |m><n|; the Jordan-Wigner
parities for fermions). Evolution finds the unions of its invariant sectors,
closed under pi, from the Kronecker factors of S, assembles only the rows
m <= n of those that the initial state occupies, straight into CSR order,
and propagates there by Arnoldi steps on R in operator form, with Expokit's
error estimate (Sidje, ACM TOMS 24:130, 1998), at any dimension. Weight
below the rounding floor dim * eps * ||rho0||, in a union or in the
anti-Hermitian part of rho0, stays exactly zero. Moments are read as traces
Tr(a rho) = sum_ij a_ij rho_ji over the stored entries of a, kept once per
engine, in O(nnz(a)), with no matrix product formed.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from . import lyapunov
from ._util import exact_part, max_abs, require_finite, slack
from .errors import DomainError, NumericalError, StructuralError, TruncationError
from .model import BOSONIC, FERMIONIC, GeneralizedLindbladModel, require_valid

_DENSE_CUTOFF = 64          # below this dimension plain ndarrays beat sparse
_MAX_DENSE_DIM = 4096
_TRUNCATION_THRESHOLD = 1e-8  # largest top-two Fock level population check_truncation allows
_CHECK_SAMPLES = 4          # random states per preservation check
# Arnoldi basis vectors per step. On 18 two-mode fock_dim 16 cooling models
# over t = 0.5, 28 took one step (29 products) on every one, while 20 took two
# on all and 22-25 on some (42-52 products); over t = 5, 20-30 took 203-252
# products and the same time to within run-to-run noise, 40-60 fewer
# products but more time, as the orthogonalization grows as the square of the
# size.
_KRYLOV_DIM = 28
_KRYLOV_TOL = 1e-15         # local error per unit time, relative to ||rho0||
# Largest step times ||H||_1 tried: accepted steps reach 7-28 at 20-28
# vectors, and exp(100) is far from overflow.
_STEP_REACH = 100.0
_MAX_REJECTIONS = 10


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def _embed(op: np.ndarray, mode: int, dims: list[int], sparse: bool):
    """Kronecker embedding of a single-mode operator at position ``mode``."""
    if sparse:
        out = sp.identity(1, format="csr", dtype=complex)
        for i, d in enumerate(dims):
            factor = sp.csr_matrix(op) if i == mode else sp.identity(d, format="csr", dtype=complex)
            out = sp.kron(out, factor, format="csr")
        return out
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(dims):
        factor = op if i == mode else np.eye(d, dtype=complex)
        out = np.kron(out, factor)
    return out


def _dense(op) -> np.ndarray:
    """``op`` as an ndarray: sparse storage, as ``x_ops`` has above _DENSE_CUTOFF, is densified."""
    return op.toarray() if sp.issparse(op) else op


def _dagger(op):
    if sp.issparse(op):
        return op.conj().T.tocsr()
    return op.conj().T


def _combine(coeffs, ops, zero):
    """Sum of c * op over the nonzero coefficients c; ``zero`` when there are none."""
    out = zero
    for c, op in zip(coeffs, ops):
        if c != 0:
            out = out + c * op
    return out


def _quadratic(m, left, right, zero):
    """Sum of m[j, k] * left[j] @ right[k] over the nonzero m[j, k]; ``zero`` when there are none."""
    out = zero
    for (j, k), c in np.ndenumerate(m):
        if c != 0:
            out = out + c * (left[j] @ right[k])
    return out


def _triplets(op) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and values of the stored entries of an operator."""
    if sp.issparse(op):
        op = op.tocoo()
        return op.row.astype(np.intp), op.col.astype(np.intp), op.data
    row, col = np.nonzero(op)
    return row, col, op[row, col]


def _kron_sum(terms, d: int, rows: np.ndarray, local: np.ndarray | None = None) -> sp.csr_matrix:
    """CSR matrix of the rows ``rows`` of the sum of ``kron(a, b)`` over pairs of d x d CSR factors.

    Output row i is the vectorized index rows[i] = m * d + n, and row m * d + n
    of kron(a, b) is a[m, :] kron b[n, :]. So every row is a run of segments,
    one per term, whose lengths are products of the factors' row lengths: the
    row pointers are counted in advance and the entries generated in CSR
    order, with no coordinate sort. An entry that two terms share is stored
    twice; products and ``toarray`` sum it. ``local``, when given, maps the
    columns into a set that holds every column of these rows (-1 elsewhere).
    Indices are int32: d * d <= _MAX_DENSE_DIM ** 2 < 2 ** 31.
    """
    m, n = np.divmod(rows, d)
    # row pointers of every term's factors into their concatenated entries, one row per index
    left, right = zip(*terms)
    a_ptr = np.array([a.indptr for a in left], dtype=np.intp)
    b_ptr = np.array([b.indptr for b in right], dtype=np.intp)
    a_ptr = (a_ptr + np.cumsum([0] + [a.nnz for a in left[:-1]])[:, None]).T
    b_ptr = (b_ptr + np.cumsum([0] + [b.nnz for b in right[:-1]])[:, None]).T
    # the segments, row by row and term by term
    a_first, b_first = a_ptr[m].ravel(), b_ptr[n].ravel()
    b_len = b_ptr[n + 1].ravel() - b_first
    counts = (a_ptr[m + 1].ravel() - a_first) * b_len
    indptr = np.zeros(rows.size + 1, dtype=np.int32)
    np.cumsum(counts.reshape(rows.size, len(terms)).sum(axis=1), out=indptr[1:])
    full = np.flatnonzero(counts)
    starts = np.cumsum(counts[full]) - counts[full]
    # the segment and the offset in it of every entry
    seg = np.zeros(indptr[-1], dtype=np.intp)
    seg[starts[1:]] = 1
    np.cumsum(seg, out=seg)
    a_idx, b_idx = np.divmod(np.arange(indptr[-1]) - starts[seg], b_len[full][seg])
    a_idx += a_first[full][seg]
    b_idx += b_first[full][seg]
    cols = np.take(np.concatenate([a.indices for a in left]) * d, a_idx)
    cols += np.take(np.concatenate([b.indices for b in right]), b_idx)
    data = np.take(np.concatenate([a.data for a in left]), a_idx)
    data *= np.take(np.concatenate([b.data for b in right]), b_idx)
    width = d * d
    if local is not None:
        cols, width = local[cols], int(local.max()) + 1
    return sp.csr_matrix((data, cols.astype(np.int32, copy=False), indptr),
                         shape=(rows.size, width))


def _components(size: int, rows: np.ndarray, cols: np.ndarray) -> tuple[int, np.ndarray]:
    """Count and labels of the weakly connected components of the edges rows[i] -> cols[i]."""
    # imported here: loading csgraph costs every `import glme` about 25 ms and 1 MB
    from scipy.sparse.csgraph import connected_components

    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(size, size))
    return connected_components(graph, directed=True, connection="weak")


def _pattern(op: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(op.shape[0]), np.diff(op.indptr)), op.indices


def _union_labels(terms, d: int) -> np.ndarray:
    """Label of each index |m><n|: its smallest union of sectors closed under transposition.

    ``terms`` are the factors of S (``_DenseEngine._superoperator_terms``),
    the Kronecker sum G kron I + I kron G'^T first. The sectors are the
    weakly connected components of the pattern of S, every stored entry an
    edge whatever its value, so S has no entry between two of them and its
    exponential is the direct sum of theirs. Within one component of G's
    pattern for m and one of G'^T's for n, the Kronecker sum alone joins
    every |m><n| (a Cartesian product of connected graphs is connected), so
    the graph reduces to one node per pair of components. Each other term
    a kron b joins the pairs that the entries of a and of b join, and the
    transposition joins (component of m, of n) to (component of n, of m).
    """
    (g, _), (_, g_prime_t) = terms[:2]
    n_left, left = _components(d, *_pattern(g))
    n_right, right = _components(d, *_pattern(g_prime_t))
    pairs = np.unique(left * n_right + right)
    pl, pr = np.divmod(pairs, n_right)
    src, dst = [np.add.outer(pl * n_right, pr).ravel()], [np.add.outer(pr, pl * n_right).ravel()]
    for a, b in terms[2:]:
        rows, cols = _pattern(a)
        a_from, a_to = np.divmod(np.unique(left[rows] * n_left + left[cols]), n_left)
        rows, cols = _pattern(b)
        b_from, b_to = np.divmod(np.unique(right[rows] * n_right + right[cols]), n_right)
        src.append(np.add.outer(a_from * n_right, b_from).ravel())
        dst.append(np.add.outer(a_to * n_right, b_to).ravel())
    _, coarse = _components(n_left * n_right, np.concatenate(src), np.concatenate(dst))
    return coarse[np.add.outer(left * n_right, right).ravel()]


_SQRT_HALF = 1.0 / math.sqrt(2.0)


class _RealGenerator:
    """A generator that preserves Hermiticity, as a real matrix R on a transposition-closed set.

    The set of indices |m><n| is a union of invariant sectors closed under
    |m><n| -> |n><m|, ordered as its diagonal |m><m|, its |m><n| with m < n,
    and their transposes. A Hermitian rho has the real coordinates
    z = rho_mm, x = sqrt(2) Re rho_mn and y = sqrt(2) Im rho_mn, in that
    order: U^dag vec(rho) for a unitary U that pairs only |m><n| with
    |n><m|, whose columns are an orthonormal basis of Hermitian matrices.
    There the generator is the real matrix R = U^dag S U (Gorini, Kossakowski
    & Sudarshan, J. Math. Phys. 17:821, 1976), fixed by the rows m <= n of S,
    since S[pi j, pi k] = conj S[j, k] for the transposition pi. Only those
    rows are assembled, as H' = D_r H D_c in the coordinate order, with D_r
    sqrt(2) on the rows m < n and D_c 1/sqrt(2) on the columns m != n (1
    elsewhere), so that R c = Re(Q H' W c) with W c = [z, x + iy, x - iy]
    and Q reading the real part of every row and the imaginary part of the
    rows m < n: slices around one complex CSR product.
    """

    def __init__(self, terms, dim: int, idx: np.ndarray):
        m, n = np.divmod(idx, dim)
        self.diag, self.upper, self.lower = idx[m == n], idx[m < n], (n * dim + m)[m < n]
        self.n_diag = self.diag.size
        self.n_rows = self.n_diag + self.upper.size     # the rows m <= n
        self.size = idx.size
        local = np.full(dim * dim, -1, dtype=np.int32)
        local[np.concatenate([self.diag, self.upper, self.lower])] = np.arange(self.size)
        rows = _kron_sum(terms, dim, np.concatenate([self.diag, self.upper]), local)
        split = rows.indptr[self.n_diag]
        diag_rows, upper_rows = rows.data[:split], rows.data[split:]
        diag_rows[rows.indices[:split] >= self.n_diag] *= _SQRT_HALF
        upper_rows[rows.indices[split:] < self.n_diag] *= math.sqrt(2.0)
        self.rows = rows

    def coords(self, vec: np.ndarray) -> np.ndarray:
        """U^dag vec(rho).

        Its real and imaginary parts are the coordinates of (rho + rho^dag) / 2
        and of (rho - rho^dag) / 2i.
        """
        up, low = vec[self.upper], vec[self.lower]
        return np.concatenate([vec[self.diag], _SQRT_HALF * (up + low),
                               -1j * _SQRT_HALF * (up - low)])

    def place(self, coords: np.ndarray, vec: np.ndarray):
        """Write U coords into ``vec``; real coords give an exactly Hermitian state.

        Two real columns are the real and imaginary parts of the coordinates.
        """
        if coords.ndim == 2:
            coords = coords[:, 0] + 1j * coords[:, 1]
        x, y = coords[self.n_diag:self.n_rows], coords[self.n_rows:]
        vec[self.diag] = coords[:self.n_diag]
        vec[self.upper] = _SQRT_HALF * (x + 1j * y)
        vec[self.lower] = _SQRT_HALF * (x - 1j * y)

    def product(self, c: np.ndarray) -> np.ndarray:
        """R c for a real vector c, or for each real column of c: one complex CSR product."""
        nd, nr = self.n_diag, self.n_rows
        w = np.empty(c.shape, dtype=complex)
        w[:nd] = c[:nd]
        w.real[nd:nr] = w.real[nr:] = c[nd:nr]
        w.imag[nd:nr] = c[nr:]
        np.negative(c[nr:], out=w.imag[nr:])
        out = self.rows @ w
        return np.concatenate([out.real, out[nd:].imag])


def _trace_product(a: tuple, rho: np.ndarray) -> complex:
    """Tr(a rho) = sum_ij a_ij rho_ji over the stored entries of ``a``, given as its triplets."""
    row, col, val = a
    return complex(val @ rho[col, row])


class _DenseEngine:
    """Shared Liouvillian application, adjoint, superoperator, and exponentials.

    Subclasses set the zero operator ``_zero`` of their storage, the channel
    operators ``f_ops``, and also express the channels in a basis:
    ``f_ops[l] = sum_mu basis_rows[l, mu] * basis_ops[mu]``. The
    superoperator is assembled from that basis, so its dissipator has one
    Kronecker term per basis pair however many channels there are.
    """

    dim: int
    hamiltonian_op: object
    f_ops: list
    gamma: np.ndarray
    basis_ops: list
    basis_rows: np.ndarray

    def _finalize(self):
        f_dags = [_dagger(f) for f in self.f_ops]
        # K = sum_jk gamma[j, k] f_k^dag f_j
        k_op = _quadratic(self.gamma.T, f_dags, self.f_ops, self._zero)
        h = self.hamiltonian_op
        self._g = -1j * h - 0.5 * k_op
        self._g_prime = 1j * h - 0.5 * k_op
        self._sandwiches = self._build_sandwiches(f_dags)
        self._superop = None

    def _build_sandwiches(self, f_dags: list) -> list:
        """(F_j, B_j) pairs whose sandwich sum sum_j F_j rho B_j is the jump part of the dissipator.

        Grouping the double sum sum_jk gamma[j, k] F_j rho F_k^dag along the
        rows of the decoherence matrix gives B_j = sum_k gamma[j, k] F_k^dag:
        one pair per nonzero row, so M sandwiches however the channels are
        coupled, without diagonalizing the decoherence matrix.
        """
        return [(f, _combine(row, f_dags, self._zero))
                for f, row in zip(self.f_ops, self.gamma) if np.any(row != 0)]

    def liouvillian(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side of the master equation, G rho + rho G' + sum_j F_j rho B_j."""
        rho = _dense(rho)
        out = self._g @ rho + rho @ self._g_prime
        for op, right in self._sandwiches:
            out += (op @ rho) @ right
        return np.asarray(out)

    def liouvillian_adjoint(self, obs: np.ndarray) -> np.ndarray:
        """Adjoint generator on an observable (Heisenberg picture), G' O + O G + sum_j B_j O F_j."""
        obs = _dense(obs)
        out = self._g_prime @ obs + obs @ self._g
        for op, right in self._sandwiches:
            out += (right @ obs) @ op
        return np.asarray(out)

    def superoperator(self) -> sp.csr_matrix:
        """CSR matrix of the generator on row-major vectorized states, built once.

        An entry that two Kronecker terms share is stored twice (``_kron_sum``).
        """
        if self._superop is None:
            d = self.dim
            self._superop = _kron_sum(self._superoperator_terms(), d, np.arange(d * d))
        return self._superop

    def _superoperator_terms(self) -> list:
        """CSR factors (a, b) of S = sum kron(a, b), the Kronecker sum first.

        S = G kron I + I kron G'^T + sum_mu b_mu kron D_mu with
        D_mu = sum_nu C[mu, nu] conj(b_nu) is vec(A rho B) = (A kron B^T) vec(rho)
        applied to the master equation, with G = -iH - K/2, G' = iH - K/2, the
        basis operators b, and C = E^T Gamma conj(E) for E = ``basis_rows``.
        The factors are d x d.
        """
        ident = sp.identity(self.dim, dtype=complex, format="csr")
        terms = [(sp.csr_matrix(self._g), ident), (ident, sp.csr_matrix(self._g_prime.T))]
        conj = [b.conj() for b in self.basis_ops]
        coeffs = self.basis_rows.T @ self.gamma @ self.basis_rows.conj()
        for b_mu, row in zip(self.basis_ops, coeffs):
            if np.any(row != 0):
                terms.append((sp.csr_matrix(b_mu), sp.csr_matrix(_combine(row, conj, self._zero))))
        return terms

    def evolve(self, rho0: np.ndarray, times, method: str = "krylov") -> list[np.ndarray]:
        """Propagate the master equation through the grid; first time is rho0.

        Only the unions of invariant sectors of the superoperator S, closed
        under |m><n| -> |n><m| (``_union_labels``), that rho0 occupies are
        evolved. A union where the 2-norm of rho0 is at most the rounding
        floor dim * eps * ||rho0||, below the rounding error of forming such
        a state by matrix products, counts as empty and is zero in every
        returned state. On the occupied unions together only the rows m <= n
        of S are assembled, as the real matrix R of ``_RealGenerator``, and
        rho0 is two real columns of coordinates: its Hermitian part and its
        anti-Hermitian part (rho0 - rho0^dag) / 2i. The second column is
        evolved only when its norm is above the same floor and is otherwise
        exactly zero, so a Hermitian rho0 gives exactly Hermitian states.
        Each column takes Arnoldi steps (``_expv``), one complex sparse
        product with the rows per basis vector. ``method`` names that one
        path, as "krylov" or "expm"; any other name raises. Every returned
        state is its own array; the first is rho0.
        """
        times = lyapunov.validate_times(times)
        rho0 = require_finite(np.asarray(rho0, dtype=complex), "rho0")
        if rho0.shape != (self.dim, self.dim):
            raise StructuralError(f"state must be {self.dim}x{self.dim}, got {rho0.shape}")
        # "expm" is an alias of the one path, kept for perfbench/workloads.py
        if method not in ("krylov", "expm"):
            raise StructuralError(f"unknown dense integration method {method!r}")
        # The assembled rows live for this call only: at two modes and fock_dim
        # 16 they take about 10 MB per parity, which callers holding engines
        # and their density matrices would otherwise keep as well.
        terms = self._superoperator_terms()
        labels = _union_labels(terms, self.dim)
        vec = rho0.reshape(-1)
        floor = self.dim * np.finfo(float).eps * np.linalg.norm(vec)
        scale = max_abs(vec) or 1.0     # the 2-norm of each union, with no square underflowing
        occupied = scale * np.sqrt(np.bincount(labels, weights=np.abs(vec / scale) ** 2)) > floor
        out = [rho0]
        if not occupied.any():
            return out + [np.zeros_like(rho0) for _ in range(times.size - 1)]
        gen = _RealGenerator(terms, self.dim, np.flatnonzero(occupied[labels]))
        coords = gen.coords(vec)
        anti = np.linalg.norm(coords.imag) > floor
        for c in _krylov_path(gen, np.column_stack([coords.real, coords.imag]) if anti
                              else coords.real, times):
            state = np.zeros(self.dim * self.dim, dtype=complex)
            gen.place(c, state)
            out.append(state.reshape(self.dim, self.dim))
        return out


def _krylov_path(gen: _RealGenerator, coords: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    """Coordinates at times[1:], by ``_expv`` on each real column."""
    if coords.ndim == 1:
        return _expv(gen.product, coords, times)
    columns = [_expv(gen.product, c, times) for c in coords.T]
    return [np.column_stack(states) for states in zip(*columns)]


def _expv(product, vec: np.ndarray, times: np.ndarray) -> list[np.ndarray]:
    """exp((t - times[0]) R) vec at times[1:], where ``product(c)`` is R c: Arnoldi steps.

    Sidje's Expokit expv (ACM TOMS 24:130, 1998). A step from the vector w
    builds an orthonormal basis V of the Krylov space of R and w, by
    classical Gram-Schmidt with one reorthogonalization as products with the
    stored basis, and the Hessenberg matrix H of R on it. With H augmented
    for the corrected scheme, w(t + tau) = ||w|| V exp(tau H) e_1, and
    Expokit's estimate of its local error must stay within
    1.2 tau _KRYLOV_TOL ||vec||; a rejected step shrinks and costs no
    product. Every grid time inside an accepted step is read from that step's
    basis, so the steps do not depend on the grid between its ends. A next
    basis vector of norm at most _KRYLOV_TOL is a breakdown: the space is
    invariant to within the tolerance, and its exponential is taken to the end.
    """
    grid = times[1:] - times[0]
    t_end = times[-1] - times[0]
    beta = float(np.linalg.norm(vec))
    tol = _KRYLOV_TOL * beta
    m = min(_KRYLOV_DIM, vec.size)
    basis = np.empty((m + 1, vec.size))
    out = []
    t_now, t_new = 0.0, math.inf
    while len(out) < grid.size:
        if beta == 0.0:
            out += [np.zeros_like(vec) for _ in range(grid.size - len(out))]
            break
        hess = np.zeros((m + 2, m + 2))
        basis[0] = vec / beta
        for j in range(m):
            p = product(basis[j])
            for _ in range(2):
                h = basis[:j + 1] @ p
                p -= h @ basis[:j + 1]
                hess[:j + 1, j] += h
            s = np.linalg.norm(p)
            if s <= _KRYLOV_TOL:
                hess, keep, step = hess[:j + 1, :j + 1], j + 1, t_end - t_now
                break
            hess[j + 1, j] = s
            basis[j + 1] = p / s
        else:
            hess[m + 1, m] = 1.0
            keep = m + 1
            av_norm = np.linalg.norm(product(basis[m]))
            step = min(t_end - t_now, t_new, _STEP_REACH / np.linalg.norm(hess, 1))
            for rejected in range(_MAX_REJECTIONS + 1):
                flow = expm(step * hess)
                phi1, phi2 = abs(beta * flow[m, 0]), abs(beta * flow[m + 1, 0] * av_norm)
                if phi1 > 10.0 * phi2:
                    err, xm = phi2, 1.0 / m
                elif phi1 > phi2:
                    err, xm = phi1 * phi2 / (phi1 - phi2), 1.0 / m
                else:
                    err, xm = phi1, 1.0 / (m - 1)
                if err <= 1.2 * step * tol:
                    break
                if not math.isfinite(err) or rejected == _MAX_REJECTIONS:
                    raise NumericalError(
                        f"Krylov step {step:.3e} has error estimate {err:.3e} above "
                        f"{1.2 * step * tol:.3e} after {rejected} rejections", residual=err)
                step *= 0.9 * (step * tol / err) ** xm
            t_new = 0.9 * step * (step * tol / max(err, np.finfo(float).tiny)) ** xm
        last = step == t_end - t_now
        end = t_end if last else t_now + step
        while len(out) < grid.size and grid[len(out)] <= end:
            out.append(beta * (expm((grid[len(out)] - t_now) * hess)[:keep, 0] @ basis[:keep]))
        if not last:
            vec = beta * (flow[:keep, 0] @ basis[:keep])
            beta, t_now = float(np.linalg.norm(vec)), end
    return out


class DenseBosonicEngine(_DenseEngine):
    """Truncated Fock-space realization of a bosonic model."""

    def __init__(self, model: GeneralizedLindbladModel, fock_dim: int = 30,
                 mix_channels: bool = False):  # inert, kept for perfbench/workloads.py
        if model.flavor != BOSONIC:
            raise StructuralError(f"expected a bosonic model, got {model.flavor!r}")
        if fock_dim < 2:
            raise StructuralError("fock_dim must be at least 2")
        ham, self.gamma = require_valid(model)
        n = model.n_modes
        dim = fock_dim ** n
        if dim > _MAX_DENSE_DIM:
            raise StructuralError(
                f"dense dimension {dim} exceeds the limit {_MAX_DENSE_DIM}; "
                "reduce fock_dim or the mode count"
            )
        self.model = model
        self.fock_dim = fock_dim
        self.n_modes = n
        self.dim = dim
        sparse = dim > _DENSE_CUTOFF
        self._zero = (sp.csr_matrix((dim, dim), dtype=complex) if sparse
                      else np.zeros((dim, dim), complex))
        dims = [fock_dim] * n

        a_local = _destroy(fock_dim)
        sqrt_half = 1.0 / np.sqrt(2.0)
        self.x_ops = []
        lowering = [_embed(a_local, j, dims, sparse) for j in range(n)]
        raising = [_dagger(a_j) for a_j in lowering]
        for a_j, a_dag in zip(lowering, raising):
            self.x_ops.append(sqrt_half * (a_dag + a_j))            # q_j
            self.x_ops.append(1j * sqrt_half * (a_dag - a_j))       # p_j
        # Ladder basis: single-band operators whose Kronecker pairs have
        # disjoint patterns. F q + F' p = (F - iF') a / sqrt 2 + (F + iF') a^dag / sqrt 2.
        self.basis_ops = lowering + raising
        f_q, f_p = model.f[:, 0::2], model.f[:, 1::2]
        self.basis_rows = np.hstack([sqrt_half * (f_q - 1j * f_p), sqrt_half * (f_q + 1j * f_p)])

        self.hamiltonian_op = _quadratic(0.5 * ham, self.x_ops, self.x_ops, self._zero)
        self.f_ops = [_combine(row, self.x_ops, self._zero) for row in model.f]
        self._finalize()

    def vacuum(self) -> np.ndarray:
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    @cached_property
    def _x_triplets(self) -> list:
        """Triplets of the x_j."""
        return [_triplets(x) for x in self.x_ops]

    @cached_property
    def _anticommutators(self) -> dict:
        """Triplets of {x_j, x_k} for j <= k, keyed by (j, k)."""
        x = self.x_ops
        return {(j, k): _triplets(x[j] @ x[k] + x[k] @ x[j])
                for j in range(len(x)) for k in range(j, len(x))}

    def _moments(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tr(x_j rho) and Tr({x_j, x_k} rho), the parts of the moments linear in rho."""
        n2 = 2 * self.n_modes
        first = np.array([_trace_product(x, rho).real for x in self._x_triplets])
        second = np.zeros((n2, n2))
        for (j, k), anti in self._anticommutators.items():
            second[j, k] = second[k, j] = _trace_product(anti, rho).real
        return first, second

    def extract_mean_and_v(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First moments and anticommutator covariance from a density matrix."""
        mean, second = self._moments(rho)
        return mean, second - 2.0 * np.outer(mean, mean)

    def truncation_diagnostic(self, rho: np.ndarray) -> float:
        """Largest per-mode population of the top two Fock levels."""
        pops = np.real(np.diag(rho)).reshape([self.fock_dim] * self.n_modes)
        worst = 0.0
        for mode in range(self.n_modes):
            moved = np.moveaxis(pops, mode, 0)
            worst = max(worst, float(np.sum(moved[-2:])))
        return worst

    def check_truncation(self, rho: np.ndarray):
        diag = self.truncation_diagnostic(rho)
        if diag > _TRUNCATION_THRESHOLD:
            raise TruncationError(
                f"top-two Fock level population {diag:.3e} exceeds "
                f"{_TRUNCATION_THRESHOLD:.1e}; increase fock_dim"
            )


def jordan_wigner_majoranas(n_modes: int) -> list[np.ndarray]:
    """Majorana operators on 2^n dimensions with anticommutator delta_jk."""
    if n_modes < 1:
        raise StructuralError("n_modes must be at least 1")
    z = np.diag([1.0, -1.0]).astype(complex)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    ident = np.eye(2, dtype=complex)
    sqrt_half = 1.0 / np.sqrt(2.0)
    out = []
    for j in range(n_modes):
        c = np.eye(1, dtype=complex)
        for site in range(n_modes):
            if site < j:
                c = np.kron(c, z)
            elif site == j:
                c = np.kron(c, lower)
            else:
                c = np.kron(c, ident)
        c_dag = c.conj().T
        out.append(sqrt_half * (c_dag + c))
        out.append(-1j * sqrt_half * (c_dag - c))
    return out


class DenseFermionicEngine(_DenseEngine):
    """Jordan-Wigner realization of a fermionic model on 2^N dimensions."""

    def __init__(self, model: GeneralizedLindbladModel):
        if model.flavor != FERMIONIC:
            raise StructuralError(f"expected a fermionic model, got {model.flavor!r}")
        n = model.n_modes
        if n > 5:
            raise StructuralError("dense fermionic engine is limited to 5 modes")
        ham, self.gamma = require_valid(model)
        self.model = model
        self.n_modes = n
        self.dim = 2 ** n
        self.w_ops = jordan_wigner_majoranas(n)
        self._zero = np.zeros((self.dim, self.dim), dtype=complex)
        self.hamiltonian_op = _quadratic(0.5j * ham, self.w_ops, self.w_ops, self._zero)
        self.f_ops = [_combine(row, self.w_ops, self._zero) for row in model.f]
        self.basis_ops = self.w_ops
        self.basis_rows = model.f
        self._finalize()

    def maximally_mixed(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex) / self.dim

    @cached_property
    def _commutators(self) -> dict:
        """Triplets of [w_j, w_k] for j < k, keyed by (j, k)."""
        w = self.w_ops
        return {(j, k): _triplets(w[j] @ w[k] - w[k] @ w[j])
                for j in range(len(w)) for k in range(j + 1, len(w))}

    def extract_sigma(self, rho: np.ndarray) -> np.ndarray:
        """Majorana commutator covariance sigma[j, k] = Re(i Tr([w_j, w_k] rho))."""
        n2 = 2 * self.n_modes
        sigma = np.zeros((n2, n2))
        for (j, k), comm in self._commutators.items():
            val = (1j * _trace_product(comm, rho)).real
            sigma[j, k] = val
            sigma[k, j] = -val
        return sigma


def _density_basis(dim: int) -> list[np.ndarray]:
    """A spanning set of density matrices for linearity checks."""
    out = []
    for m in range(dim):
        e_mm = np.zeros((dim, dim), complex)
        e_mm[m, m] = 1.0
        out.append(e_mm)
    for m in range(dim):
        for n_ in range(m + 1, dim):
            plus = np.zeros((dim, dim), complex)
            plus[m, m] = plus[n_, n_] = 0.5
            plus[m, n_] = plus[n_, m] = 0.5
            out.append(plus)
            phase = np.zeros((dim, dim), complex)
            phase[m, m] = phase[n_, n_] = 0.5
            phase[m, n_] = -0.5j
            phase[n_, m] = 0.5j
            out.append(phase)
    return out


def _standard_dissipator(l_op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    l_dag = l_op.conj().T
    return l_op @ rho @ l_dag - 0.5 * (l_dag @ l_op @ rho + rho @ l_dag @ l_op)


def _pair_dissipator(a: np.ndarray, b: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Cross dissipator: a rho b^dag minus half the anticommutator of b^dag a."""
    b_dag = b.conj().T
    return a @ rho @ b_dag - 0.5 * (b_dag @ a @ rho + rho @ b_dag @ a)


def dissipator_linearity_check(l_j: np.ndarray, l_k: np.ndarray,
                               alpha: complex, beta: complex) -> float:
    """Expand a dissipator of a linear combination into pair dissipators.

    The printed dagger on the second argument of the cross terms is
    notational: the pair dissipator definition already applies it, and that
    reading is the one that makes the identity exact.
    """
    l_j = np.asarray(l_j, dtype=complex)
    l_k = np.asarray(l_k, dtype=complex)
    if l_j.shape != l_k.shape or l_j.ndim != 2 or l_j.shape[0] != l_j.shape[1]:
        raise StructuralError("operators must be square with matching shapes")
    combined = alpha * l_j + beta * l_k
    worst = 0.0
    for rho in _density_basis(l_j.shape[0]):
        lhs = _standard_dissipator(combined, rho)
        rhs = (abs(alpha) ** 2 * _standard_dissipator(l_j, rho)
               + abs(beta) ** 2 * _standard_dissipator(l_k, rho))
        rhs += alpha * np.conj(beta) * _pair_dissipator(l_j, l_k, rho)
        rhs += np.conj(alpha) * beta * _pair_dissipator(l_k, l_j, rho)
        worst = max(worst, max_abs(lhs - rhs))
    return worst


def adjoint_consistency_check(engine: _DenseEngine, observable: np.ndarray,
                              state: np.ndarray) -> float:
    """|Tr(O L rho) - Tr((L^dag O) rho)| for the engine's generator.

    Each trace is the elementwise sum Tr(A B) = sum_ij a_ij b_ji, with no
    matrix product formed.
    """
    observable, state = _dense(observable), _dense(state)
    forward = np.sum(observable * engine.liouvillian(state).T)
    backward = np.sum(engine.liouvillian_adjoint(observable) * state.T)
    return float(abs(forward - backward))


def _generator_images(engine: _DenseEngine, seed: int) -> list[np.ndarray]:
    """L(rho) for a fixed set of seeded random density matrices."""
    rng = np.random.default_rng(seed)
    return [engine.liouvillian(random_density(rng, engine.dim)) for _ in range(_CHECK_SAMPLES)]


def trace_preservation_check(engine: _DenseEngine) -> float:
    return max(abs(complex(np.trace(out))) for out in _generator_images(engine, 3))


def hermiticity_preservation_check(engine: _DenseEngine) -> float:
    return max(max_abs(out - out.conj().T) for out in _generator_images(engine, 4))


def moment_closure_check(model: GeneralizedLindbladModel, fock_dim: int = 20) -> dict[str, float]:
    """Compare dense moment derivatives at t = 0 with the drift/diffusion form.

    The test state is a random density matrix supported away from the Fock
    truncation edge (bosonic) or fully generic (fermionic), so the dense side
    never trusts the covariance machinery being validated. The moments are
    read from L(rho) with the same traces that read them from rho.
    """
    from . import bosonic as _bosonic
    from . import fermionic as _fermionic

    rng = np.random.default_rng(7)
    if model.flavor == BOSONIC:
        engine = DenseBosonicEngine(model, fock_dim)
        rho = _supported_density(rng, engine, max(2, fock_dim // 2 - 2))
        mean, v = engine.extract_mean_and_v(rho)
        dmean, dsecond = engine._moments(engine.liouvillian(rho))
        dv = dsecond - 2.0 * (np.outer(dmean, mean) + np.outer(mean, dmean))
        dd = _bosonic.build_drift_diffusion(model)
        return {
            "mean": max_abs(dmean - dd.a @ mean),
            "covariance": max_abs(dv - (dd.a @ v + v @ dd.a.T + dd.d)),
        }

    engine = DenseFermionicEngine(model)
    rho = random_density(rng, engine.dim)
    rho = 0.5 * (rho + _parity_reflect(rho, model.n_modes))   # keep the state parity even
    rho /= np.trace(rho).real
    sigma = engine.extract_sigma(rho)
    dsigma = engine.extract_sigma(engine.liouvillian(rho))
    dd = _fermionic.build_drift_diffusion(model)
    return {"covariance": max_abs(dsigma - (dd.x @ sigma + sigma @ dd.x.T + dd.y))}


def _parity_reflect(rho: np.ndarray, n_modes: int) -> np.ndarray:
    parity = np.ones(1)
    for _ in range(n_modes):
        parity = np.kron(parity, np.array([1.0, -1.0]))
    p = np.diag(parity).astype(complex)
    return p @ rho @ p


def _supported_density(rng, engine: DenseBosonicEngine, support: int) -> np.ndarray:
    idx = [i for i in range(engine.dim)
           if all(n < support for n in np.unravel_index(i, [engine.fock_dim] * engine.n_modes))]
    block = rng.standard_normal((len(idx), len(idx))) + 1j * rng.standard_normal((len(idx), len(idx)))
    block = block @ block.conj().T
    rho = np.zeros((engine.dim, engine.dim), dtype=complex)
    rho[np.ix_(idx, idx)] = block / np.trace(block).real
    return rho


def random_density(rng, dim: int) -> np.ndarray:
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def dense_negativity_bosonic(rho: np.ndarray, dims: tuple[int, int]) -> float:
    """ln of the trace norm of the partial transpose over the second mode."""
    rho = np.asarray(rho, dtype=complex)
    d1, d2 = dims
    if rho.shape != (d1 * d2, d1 * d2):
        raise StructuralError(f"state must be {(d1 * d2, d1 * d2)}, got {rho.shape}")
    rho = exact_part(rho, "state")
    pt = rho.reshape(d1, d2, d1, d2).transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)
    eigs = np.linalg.eigvalsh(pt)
    return float(np.log(np.sum(np.abs(eigs))))


def dense_negativity_fermionic(rho: np.ndarray) -> float:
    """ln of the trace norm of the partial time-reversal over the second mode.

    The density matrix is expanded in ordered Majorana monomials; partial
    time-reversal multiplies every second-mode Majorana factor by i. Works
    for any parity-even two-mode state, Gaussian or not.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise StructuralError(f"expected a two-mode (4x4) state, got shape {rho.shape}")
    rho = exact_part(rho, "state")
    w = jordan_wigner_majoranas(2)
    transformed = np.zeros((4, 4), dtype=complex)
    odd_weight = 0.0
    for eps in range(16):
        bits = [(eps >> b) & 1 for b in range(4)]
        monomial = np.eye(4, dtype=complex)
        for b in range(4):
            if bits[b]:
                monomial = monomial @ w[b]
        weight = sum(bits)
        coeff = complex(np.trace(monomial.conj().T @ rho)) * (2.0 ** weight) / 4.0
        if weight % 2 == 1:
            odd_weight = max(odd_weight, abs(coeff))
            continue
        phase = 1j ** (bits[2] + bits[3])
        transformed += coeff * phase * monomial
    if odd_weight > slack(rho):
        raise DomainError(
            f"state is not parity even (odd Majorana weight {odd_weight:.3e})"
        )
    singular = np.linalg.svd(transformed, compute_uv=False)
    return float(np.log(np.sum(singular)))


def fock_thermal(nbar: float, dim: int) -> np.ndarray:
    """Truncated single-mode thermal state, renormalized on the truncation."""
    if nbar < 0:
        raise StructuralError("nbar must be nonnegative")
    if nbar == 0:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    x = nbar / (nbar + 1.0)
    p = x ** np.arange(dim)
    p /= p.sum()
    return np.diag(p).astype(complex)


def fock_squeezed_vacuum(r: float, dim: int) -> np.ndarray:
    """Truncated single-mode squeezed vacuum with quadrature variances e^{-2r}, e^{2r}."""
    a = _destroy(dim)
    squeeze = expm(0.5 * r * (a @ a - a.conj().T @ a.conj().T))
    psi = squeeze[:, 0]
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def fock_tmsv(r: float, dim: int) -> np.ndarray:
    """Truncated two-mode squeezed vacuum, renormalized on the truncation."""
    amps = np.tanh(r) ** np.arange(dim)
    psi = np.zeros(dim * dim, dtype=complex)
    for n in range(dim):
        psi[n * dim + n] = amps[n]
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def fermionic_gibbs_state(kernel, n_modes: int) -> np.ndarray:
    """Dense thermal state of an antisymmetric Majorana kernel.

    Sign convention matches the covariance mapping: the measured covariance
    of the returned state is blockwise tanh(kappa / 2) of the kernel.
    """
    from .fermionic import GibbsKernel

    k = (kernel if isinstance(kernel, GibbsKernel) else GibbsKernel(kernel)).k
    if k.shape != (2 * n_modes, 2 * n_modes):
        raise StructuralError(f"kernel must be {2 * n_modes}x{2 * n_modes}, got {k.shape}")
    w = jordan_wigner_majoranas(n_modes)
    rho = expm(_quadratic(0.5j * k, w, w, np.zeros((2 ** n_modes, 2 ** n_modes), dtype=complex)))
    return rho / np.trace(rho).real
