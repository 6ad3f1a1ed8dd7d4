"""Dense brute-force reference engines in truncated Hilbert spaces.

Everything here validates covariance-level results against direct density
matrix algebra in small dense spaces, without assuming Gaussianity or
trusting the moment machinery under test. Each engine applies its generator
in operator form (``liouvillian`` and the Heisenberg ``liouvillian_adjoint``)
and also assembles it once, on demand, as a sparse CSR superoperator on
row-major vectorized states. That matrix is block diagonal up to a
permutation: a quadratic Hamiltonian with linear channels never changes the
parity of m + n in |m><n| (the Jordan-Wigner parities for fermions).
Evolution touches only the invariant sectors the initial state occupies,
with ``scipy.sparse.linalg.expm_multiply`` at any dimension or, for small
dimensions, one dense exponential per sector. A sector whose part of the
state is below the rounding floor dim * eps * ||rho0|| stays exactly zero.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import LinearOperator, expm_multiply

from . import lyapunov
from ._util import max_abs, require_finite
from .errors import DomainError, StructuralError, TruncationError
from .model import BOSONIC, FERMIONIC, GeneralizedLindbladModel

_DENSE_CUTOFF = 64          # below this dimension plain ndarrays beat sparse
_SUPEROP_CUTOFF = 32        # largest dimension for dense superoperator exponentials
_MAX_DENSE_DIM = 4096
_TRUNCATION_THRESHOLD = 1e-8  # largest top-two Fock level population check_truncation allows
_CHECK_SAMPLES = 4          # random states per preservation check


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
    """Row indices, column indices and values of the nonzeros of an operator."""
    coo = sp.coo_matrix(op)
    return coo.row.astype(np.int32, copy=False), coo.col.astype(np.int32, copy=False), coo.data


def _kron_sum(terms, d: int) -> sp.csr_matrix:
    """CSR matrix of the sum of ``w * kron(a, b)`` over d x d factors given as triplets.

    Every term writes its nnz(a) * nnz(b) entries into one coordinate buffer
    sized in advance, and a single CSR conversion sums the duplicates, so
    terms with disjoint sparsity patterns cost their own entries and no
    intermediate sums.
    """
    total = sum(a[2].size * b[2].size for _, a, b in terms)
    rows = np.empty(total, dtype=np.int32)     # d * d <= _MAX_DENSE_DIM ** 2 < 2 ** 31
    cols = np.empty(total, dtype=np.int32)
    data = np.empty(total, dtype=complex)
    start = 0
    for w, (a_row, a_col, a_val), (b_row, b_col, b_val) in terms:
        shape = (a_val.size, b_val.size)
        stop = start + a_val.size * b_val.size
        np.add.outer(a_row * d, b_row, out=rows[start:stop].reshape(shape))
        np.add.outer(a_col * d, b_col, out=cols[start:stop].reshape(shape))
        np.multiply.outer(w * a_val, b_val, out=data[start:stop].reshape(shape))
        start = stop
    return sp.coo_matrix((data, (rows, cols)), shape=(d * d, d * d)).tocsr()


def _lazy_operator(mat: sp.csr_matrix) -> LinearOperator:
    """``mat`` as a LinearOperator whose adjoint products use the transpose view.

    ``expm_multiply`` shifts and scales a LinearOperator lazily where it would
    copy a sparse matrix, and scipy's own wrapper would make a conjugate copy
    for the adjoint products of its norm estimates.
    """
    def adjoint(x):
        return mat.T.dot(x.conj()).conj()

    return LinearOperator(mat.shape, matvec=mat.dot, rmatvec=adjoint,
                          matmat=mat.dot, rmatmat=adjoint, dtype=mat.dtype)


def _sectors(mat: sp.csr_matrix) -> list[np.ndarray]:
    """Sorted index arrays of the weakly connected components of the pattern of ``mat``.

    The graph is built from ``indptr``/``indices`` with unit weights, so no
    stored entry is lost whatever its value. ``mat`` has no entry between two
    components, so its exponential is the direct sum of theirs.
    """
    # imported here: loading csgraph costs every `import glme` about 25 ms and 1 MB
    from scipy.sparse.csgraph import connected_components

    pattern = sp.csr_matrix((np.ones(mat.indices.size), mat.indices, mat.indptr), shape=mat.shape)
    count, labels = connected_components(pattern, directed=True, connection="weak")
    return [np.flatnonzero(labels == c) for c in range(count)]


def _occupied_sectors(mat: sp.csr_matrix, vec: np.ndarray, dim: int) -> list[np.ndarray]:
    """The sectors of ``mat`` (see ``_sectors``) that carry weight of ``vec``.

    ``vec`` is a vectorized dim x dim state. A sector whose part of it has a
    2-norm of at most dim * eps * ||vec||, below the rounding error of forming
    such a state by matrix products, counts as empty: the evolution takes
    that part as exactly zero, and it stays zero.
    """
    floor = dim * np.finfo(float).eps * np.linalg.norm(vec)
    return [idx for idx in _sectors(mat) if np.linalg.norm(vec[idx]) > floor]


def _trace_product(a, rho: np.ndarray) -> complex:
    """Tr(a rho) for sparse or dense ``a``."""
    if sp.issparse(a):
        return complex((a @ rho).trace())
    return complex(np.trace(a @ rho))


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
    mix_channels: bool = False

    def _finalize(self):
        self._f_dags = [_dagger(f) for f in self.f_ops]
        # K = sum_jk gamma[j, k] f_k^dag f_j
        self._k_op = _quadratic(self.gamma.T, self._f_dags, self.f_ops, self._zero)
        self._sandwiches = self._build_sandwiches()
        self._superop = None

    def _build_sandwiches(self):
        """Weighted (op, op_dag) pairs whose sandwich sum forms the dissipator.

        Default is the direct double sum over the decoherence matrix. With
        ``mix_channels`` the Hermitian decoherence matrix is eigendecomposed
        and one channel per nonzero rate is used instead: the count drops
        from M^2 to M, which makes each operator-form application cheaper.
        The two applications are the same linear map (pinned by a test); the
        superoperator does not depend on the choice.
        """
        if self.mix_channels:
            defect = max_abs(self.gamma - self.gamma.conj().T)
            if defect > 1e-12 * max(1.0, max_abs(self.gamma)):
                raise StructuralError(
                    "mix_channels requires a Hermitian decoherence matrix "
                    f"(defect {defect:.3e})"
                )
            evals, vecs = np.linalg.eigh(0.5 * (self.gamma + self.gamma.conj().T))
            pairs = []
            for rate, vec in zip(evals, vecs.T):
                if abs(rate) >= 1e-14:
                    op = _combine(vec, self.f_ops, self._zero)
                    pairs.append((float(rate), op, _dagger(op)))
            return pairs
        return [(g, self.f_ops[j], self._f_dags[k])
                for (j, k), g in np.ndenumerate(self.gamma) if g != 0]

    def liouvillian(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side of the master equation applied to a density matrix."""
        h = self.hamiltonian_op
        out = -1j * (h @ rho - rho @ h)
        for weight, op, op_dag in self._sandwiches:
            out = out + weight * ((op @ rho) @ op_dag)
        out = out - 0.5 * (self._k_op @ rho + rho @ self._k_op)
        return np.asarray(out)

    def liouvillian_adjoint(self, obs: np.ndarray) -> np.ndarray:
        """Adjoint generator acting on an observable (Heisenberg picture)."""
        h = self.hamiltonian_op
        out = 1j * (h @ obs - obs @ h)
        for weight, op, op_dag in self._sandwiches:
            out = out + weight * ((op_dag @ obs) @ op)
        out = out - 0.5 * (self._k_op @ obs + obs @ self._k_op)
        return np.asarray(out)

    def superoperator(self) -> sp.csr_matrix:
        """CSR matrix of the generator on row-major vectorized states, built once."""
        if self._superop is None:
            self._superop = self._assemble_superoperator()
        return self._superop

    def _assemble_superoperator(self) -> sp.csr_matrix:
        """S = G kron I + I kron G'^T + sum_{mu nu} C[mu, nu] b_mu kron conj(b_nu).

        This is vec(A rho B) = (A kron B^T) vec(rho) applied to the master
        equation, with G = -iH - K/2, G' = iH - K/2, the basis operators b,
        and C = E^T Gamma conj(E) for E = ``basis_rows``.
        """
        h, k_op = self.hamiltonian_op, self._k_op
        ident = _triplets(sp.identity(self.dim, dtype=complex))
        terms = [(1.0, _triplets(-1j * h - 0.5 * k_op), ident),
                 (1.0, ident, _triplets((1j * h - 0.5 * k_op).T))]
        basis = [_triplets(b) for b in self.basis_ops]
        coeffs = self.basis_rows.T @ self.gamma @ self.basis_rows.conj()
        for mu, b_mu in enumerate(basis):
            for nu, (row, col, val) in enumerate(basis):
                if coeffs[mu, nu] != 0:
                    terms.append((coeffs[mu, nu], b_mu, (row, col, val.conj())))
        return _kron_sum(terms, self.dim)

    def evolve(self, rho0: np.ndarray, times, method: str = "krylov") -> list[np.ndarray]:
        """Propagate the master equation through the grid; first time is rho0.

        Both methods evolve only the invariant sectors of the superoperator
        that rho0 occupies (see ``_occupied_sectors``); a sector where rho0 is
        below the rounding floor dim * eps * ||rho0|| is zero in every returned
        state. "krylov" applies ``expm_multiply`` to the superoperator
        restricted to the occupied sectors, at any dimension. "expm", up to
        dimension 32, takes the dense exponential of each occupied sector once
        per distinct step and advances that sector's part of the state with it.
        Every returned state is its own array; the first is rho0.
        """
        times = lyapunov.validate_times(times)
        rho0 = require_finite(np.asarray(rho0, dtype=complex), "rho0")
        if rho0.shape != (self.dim, self.dim):
            raise StructuralError(f"state must be {self.dim}x{self.dim}, got {rho0.shape}")
        if method == "expm":
            return self._evolve_expm(rho0, times)
        if method == "krylov":
            return self._evolve_krylov(rho0, times)
        raise StructuralError(f"unknown dense integration method {method!r}")

    def _evolve_expm(self, rho0, times) -> list[np.ndarray]:
        if self.dim > _SUPEROP_CUTOFF:
            raise StructuralError(
                f"dense superoperator exponential limited to dimension {_SUPEROP_CUTOFF}, "
                f"got {self.dim}"
            )
        sup = self.superoperator()
        out = [rho0]
        vec = rho0.reshape(-1)
        sectors = _occupied_sectors(sup, vec, self.dim)
        blocks = [sup[idx][:, idx].toarray() for idx in sectors]
        flows = {}
        for dt in lyapunov.grid_steps(times).tolist():
            if dt not in flows:
                flows[dt] = [expm(block * dt) for block in blocks]
            step = np.zeros_like(vec)
            for idx, flow in zip(sectors, flows[dt]):
                step[idx] = flow @ vec[idx]
            vec = step
            out.append(vec.reshape(self.dim, self.dim))
        return out

    def _evolve_krylov(self, rho0, times) -> list[np.ndarray]:
        # A matrix assembled here lives for this call only: at two modes and
        # fock_dim 16 it takes 38 MB, which callers holding engines and their
        # density matrices would otherwise keep as well.
        sup = self._superop if self._superop is not None else self._assemble_superoperator()
        v0 = rho0.reshape(-1)
        keep = np.zeros(v0.size, dtype=bool)
        for sector in _occupied_sectors(sup, v0, self.dim):
            keep[sector] = True
        if keep.any() and not keep.all():
            idx = np.flatnonzero(keep)
            sup = sup[idx][:, idx]
        else:   # nothing to drop, or rho0 = 0, which S itself keeps at zero
            idx = slice(None)
        op = _lazy_operator(sup)
        trace_a = complex(sup.trace())
        steps = lyapunov.grid_steps(times)
        if steps.size > 1 and np.all(steps == steps[0]):
            span = float(times[-1] - times[0])
            rows = expm_multiply(op, v0[idx], start=0.0, stop=span, num=times.size,
                                 endpoint=True, traceA=trace_a)[1:]
        else:
            rows, vec = [], v0[idx]
            for dt in steps:
                vec = expm_multiply(op, vec, start=0.0, stop=float(dt), num=2,
                                    endpoint=True, traceA=trace_a)[-1]
                rows.append(vec)
        out = [rho0]
        for row in rows:
            vec = np.zeros_like(v0)
            vec[idx] = row
            out.append(vec.reshape(self.dim, self.dim))
        return out


class DenseBosonicEngine(_DenseEngine):
    """Truncated Fock-space realization of a bosonic model."""

    def __init__(self, model: GeneralizedLindbladModel, fock_dim: int = 30,
                 mix_channels: bool = False):
        if model.flavor != BOSONIC:
            raise StructuralError(f"expected a bosonic model, got {model.flavor!r}")
        if fock_dim < 2:
            raise StructuralError("fock_dim must be at least 2")
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
        self.mix_channels = mix_channels
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

        self.hamiltonian_op = _quadratic(0.5 * model.hamiltonian, self.x_ops, self.x_ops, self._zero)
        self.f_ops = [_combine(row, self.x_ops, self._zero) for row in model.f]
        self.gamma = model.gamma
        self._finalize()

    def vacuum(self) -> np.ndarray:
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    def _moments(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tr(x_j rho) and Tr(x_k {x_j, rho}), the parts of the moments linear in rho."""
        n2 = 2 * self.n_modes
        first = np.array([_trace_product(x, rho).real for x in self.x_ops])
        second = np.zeros((n2, n2))
        for j in range(n2):
            anti = np.asarray(self.x_ops[j] @ rho + rho @ self.x_ops[j])
            for k in range(j, n2):
                second[j, k] = second[k, j] = _trace_product(self.x_ops[k], anti).real
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
        self.model = model
        self.n_modes = n
        self.dim = 2 ** n
        self.w_ops = jordan_wigner_majoranas(n)
        self._self_test()

        self._zero = np.zeros((self.dim, self.dim), dtype=complex)
        self.hamiltonian_op = _quadratic(0.5j * model.hamiltonian, self.w_ops, self.w_ops, self._zero)
        self.f_ops = [_combine(row, self.w_ops, self._zero) for row in model.f]
        self.basis_ops = self.w_ops
        self.basis_rows = model.f
        self.gamma = model.gamma
        self._finalize()

    def _self_test(self):
        ident = np.eye(self.dim)
        worst = 0.0
        for j, wj in enumerate(self.w_ops):
            for k, wk in enumerate(self.w_ops):
                delta = 1.0 if j == k else 0.0
                worst = max(worst, max_abs(wj @ wk + wk @ wj - delta * ident))
        if worst > 1e-13:
            raise StructuralError(
                f"Majorana construction failed its anticommutator self-test ({worst:.3e})"
            )

    def maximally_mixed(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex) / self.dim

    def extract_sigma(self, rho: np.ndarray) -> np.ndarray:
        """Majorana commutator covariance from a density matrix."""
        n2 = 2 * self.n_modes
        sigma = np.zeros((n2, n2))
        for j in range(n2):
            for k in range(j + 1, n2):
                comm = self.w_ops[j] @ self.w_ops[k] - self.w_ops[k] @ self.w_ops[j]
                val = 1j * _trace_product(comm, rho)
                sigma[j, k] = val.real
                sigma[k, j] = -val.real
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
    """|Tr(O L rho) - Tr((L^dag O) rho)| for the engine's generator."""
    forward = np.trace(observable @ engine.liouvillian(state))
    backward = np.trace(engine.liouvillian_adjoint(observable) @ state)
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
    if max_abs(rho - rho.conj().T) > 1e-10 * max(1.0, max_abs(rho)):
        raise StructuralError("state must be Hermitian")
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
    if odd_weight > 1e-10 * max(1.0, max_abs(rho)):
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

    k = kernel.k if isinstance(kernel, GibbsKernel) else np.asarray(kernel, dtype=float)
    if k.shape != (2 * n_modes, 2 * n_modes):
        raise StructuralError(f"kernel must be {2 * n_modes}x{2 * n_modes}, got {k.shape}")
    w = jordan_wigner_majoranas(n_modes)
    rho = expm(_quadratic(0.5j * k, w, w, np.zeros((2 ** n_modes, 2 ** n_modes), dtype=complex)))
    return rho / np.trace(rho).real
