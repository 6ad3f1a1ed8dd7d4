"""The one exact-part rule at every public reader of a raw matrix.

A matrix that should be symmetric, antisymmetric or Hermitian may miss by
``_util.slack``, SYMMETRY_TOL times its largest entry floored at 1. Just under
the slack a reader reads the exact part, bit for bit as when it is given that
part; just over it the reader raises its typed error with the measured defect
in the message.
"""

import dataclasses

import numpy as np
import pytest

from glme import _util, bosonic, entanglement, fermionic, model, oracle
from glme.errors import PositivityError, StructuralError

from conftest import bell_pair_sigma, collective_decay_model, fermionic_decay_model, tmsv_cov

V = tmsv_cov(0.4) + 0.5 * np.eye(4)
SIGMA = 0.6 * bell_pair_sigma()
KERNEL = 1.2 * bell_pair_sigma() + 0.3 * np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_([0, 3], [0, 3])] = 0.5
RHO_FERMIONIC = 0.5 * BELL + 0.125 * np.eye(4)
RHO_BOSONIC = oracle.fock_tmsv(0.3, 3)
BOSONIC_MODEL = collective_decay_model(omega=0.7)
FERMIONIC_MODEL = fermionic_decay_model(omega=0.7)

# The exact part of each invariant and its defect, written out here so the
# check does not share code with the library.
PARTS = {
    "symmetric": (lambda m: 0.5 * (m + np.swapaxes(m, -1, -2)),
                  lambda m: np.max(np.abs(m - np.swapaxes(m, -1, -2)))),
    "antisymmetric": (lambda m: 0.5 * (m - np.swapaxes(m, -1, -2)),
                      lambda m: np.max(np.abs(m + np.swapaxes(m, -1, -2)))),
    "hermitian": (lambda m: 0.5 * (m + m.conj().T), lambda m: np.max(np.abs(m - m.conj().T))),
}


def _with(m, **arrays):
    return model.GeneralizedLindbladModel(m.flavor, m.n_modes, arrays.get("hamiltonian", m.hamiltonian),
                                          m.f, arrays.get("gamma", m.gamma))


# reader -> (invariant, exact input, call, error type)
READERS = {
    "bosonic.check_physicality": ("symmetric", V, bosonic.check_physicality, StructuralError),
    "bosonic.purity": ("symmetric", V, bosonic.purity, StructuralError),
    "fermionic.check_physicality": ("antisymmetric", SIGMA, fermionic.check_physicality, StructuralError),
    "fermionic.purity": ("antisymmetric", SIGMA, fermionic.purity, StructuralError),
    "fermionic.mode_spectrum": ("antisymmetric", SIGMA, fermionic.mode_spectrum, StructuralError),
    "fermionic.covariance_to_gibbs": ("antisymmetric", SIGMA, fermionic.covariance_to_gibbs,
                                      StructuralError),
    "fermionic.gibbs_to_covariance": ("antisymmetric", KERNEL, fermionic.gibbs_to_covariance,
                                      StructuralError),
    "entanglement.duan_bosonic": ("symmetric", V, entanglement.duan_bosonic, StructuralError),
    "entanglement.log_negativity_bosonic": ("symmetric", V, entanglement.log_negativity_bosonic,
                                            StructuralError),
    "entanglement.duan_fermionic": ("antisymmetric", SIGMA, entanglement.duan_fermionic, StructuralError),
    "entanglement.log_negativity_fermionic": ("antisymmetric", SIGMA, entanglement.log_negativity_fermionic,
                                              StructuralError),
    "entanglement.sigma_cross": ("antisymmetric", SIGMA, entanglement.sigma_cross, StructuralError),
    "oracle.fermionic_gibbs_state": ("antisymmetric", KERNEL, lambda k: oracle.fermionic_gibbs_state(k, 2),
                                     StructuralError),
    "oracle.dense_negativity_bosonic": ("hermitian", RHO_BOSONIC,
                                        lambda rho: oracle.dense_negativity_bosonic(rho, (3, 3)),
                                        StructuralError),
    "oracle.dense_negativity_fermionic": ("hermitian", RHO_FERMIONIC, oracle.dense_negativity_fermionic,
                                          StructuralError),
    "model.require_valid[Gamma]": ("hermitian", BOSONIC_MODEL.gamma,
                                   lambda g: model.require_valid(_with(BOSONIC_MODEL, gamma=g)),
                                   PositivityError),
    "model.require_valid[H bosonic]": ("symmetric", BOSONIC_MODEL.hamiltonian,
                                       lambda h: model.require_valid(_with(BOSONIC_MODEL, hamiltonian=h)),
                                       StructuralError),
    "model.require_valid[H fermionic]": ("antisymmetric", FERMIONIC_MODEL.hamiltonian,
                                         lambda h: model.require_valid(_with(FERMIONIC_MODEL, hamiltonian=h)),
                                         StructuralError),
    "model.to_standard_form": ("hermitian", BOSONIC_MODEL.gamma,
                               lambda g: model.to_standard_form(g, BOSONIC_MODEL.f), PositivityError),
}


def _bits(x):
    """Dtype, shape and bytes of every array in a result, for bit-for-bit comparison."""
    if dataclasses.is_dataclass(x):
        return _bits([getattr(x, f.name) for f in dataclasses.fields(x)])
    if isinstance(x, (tuple, list)):
        return [_bits(v) for v in x]
    arr = np.asarray(x)
    return arr.dtype.str, arr.shape, arr.tobytes()


def _perturbed(exact: np.ndarray, fraction: float, member=None) -> np.ndarray:
    """``exact`` with its strict lower triangle moved by ``fraction`` of the slack of ``exact``.

    The defect is the move itself, and the lower triangle is what ``eigvalsh``
    and ``cholesky`` read of a raw matrix.
    """
    raw = np.array(exact)
    target = raw if member is None else raw[member]
    target += np.tril(np.full(target.shape, fraction * _util.slack(exact)), -1)
    return raw


@pytest.mark.parametrize("reader", list(READERS))
def test_under_the_slack_reads_the_exact_part(reader):
    kind, exact, call, _ = READERS[reader]
    raw = _perturbed(exact, 0.5)
    part, defect = PARTS[kind]
    assert 0.0 < defect(raw) < _util.slack(raw)
    assert _bits(call(raw)) == _bits(call(part(raw)))


@pytest.mark.parametrize("reader", list(READERS))
def test_over_the_slack_raises_with_the_defect(reader):
    kind, exact, call, error = READERS[reader]
    raw = _perturbed(exact, 2.0)
    defect = PARTS[kind][1](raw)
    assert defect > _util.slack(raw)
    with pytest.raises(error, match=f"defect {defect:.3e}".replace("+", r"\+")):
        call(raw)


@pytest.mark.parametrize("fraction", [0.5, 2.0])
def test_validate_model_reports_the_measured_defect(fraction):
    gamma = _perturbed(BOSONIC_MODEL.gamma, fraction)
    part, defect = PARTS["hermitian"]
    report = model.validate_model(_with(BOSONIC_MODEL, gamma=gamma))
    assert report.hermitian_defect == defect(gamma)
    assert report.is_valid == (fraction < 1.0)
    exact = model.validate_model(_with(BOSONIC_MODEL, gamma=part(gamma)))
    assert report.min_gamma_eigenvalue == exact.min_gamma_eigenvalue


@pytest.mark.parametrize("flavor", ["bosonic", "fermionic"])
def test_stack_with_one_bad_member(flavor):
    kind, exact, check = (("symmetric", V, bosonic.check_physicality) if flavor == "bosonic"
                          else ("antisymmetric", SIGMA, fermionic.check_physicality))
    part, defect = PARTS[kind]
    stack = np.stack([exact, 0.9 * exact, exact])
    under = _perturbed(stack, 0.5, member=1)
    assert _bits(check(under)) == _bits(check(part(under)))
    over = _perturbed(stack, 2.0, member=1)
    with pytest.raises(StructuralError, match=f"defect {defect(over):.3e}".replace("+", r"\+")):
        check(over)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_part_at_the_overflow_limit():
    # at max|m| = DBL_MAX / 2 the exact part keeps every bit; one ulp over, 0.5 (m + mT) could
    # overflow, and stored inf with only a RuntimeWarning before
    limit = np.finfo(float).max / 2
    assert limit == _util.PART_LIMIT
    v = np.array([[limit, 0.0], [0.0, 1.0]])
    assert bosonic.GaussianState(np.zeros(2), v).v.tobytes() == v.tobytes()
    over = np.nextafter(limit, np.inf)
    with pytest.raises(StructuralError, match="max\\|m\\| 8.988e\\+307") as err:
        bosonic.GaussianState(np.zeros(2), [[over, 0.0], [0.0, 1.0]])
    assert err.value.max_abs == over


class TestReproducers:
    """Raw inputs that read as valid before the rule covered them."""

    def test_one_sided_covariance_is_not_read_as_its_lower_triangle(self):
        # eigvalsh of the lower triangle read this as the identity: physical, margin 0.0
        with pytest.raises(StructuralError, match=r"V must be symmetric \(defect 5\.000e\+00\)"):
            bosonic.check_physicality([[1.0, 5.0], [0.0, 1.0]])

    def test_gibbs_state_of_a_symmetric_kernel(self):
        # exponentiated, this kernel gave a "state" of trace 1 + 1.557i
        with pytest.raises(StructuralError, match="antisymmetric"):
            oracle.fermionic_gibbs_state(np.eye(4), 2)

    def test_dense_fermionic_negativity_of_a_non_hermitian_state(self):
        rho = np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex)
        rho[0, 3] = 0.5     # read as a negativity of 0.29 before
        with pytest.raises(StructuralError, match=r"state must be Hermitian \(defect 5\.000e-01\)"):
            oracle.dense_negativity_fermionic(rho)
