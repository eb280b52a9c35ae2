"""State and operator checks: PSD verdict near its bound, the one-qubit
density screen against the rule it stands in for, NaN rejection, unchecked
to_density."""

import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeport.fock import (
    HERM_ATOL,
    MIN_EIGVAL,
    NORM_ATOL,
    PROB_FLOOR,
    TRACE_ATOL,
    LinearOperator,
    PhaseGrid,
    QuantumState,
    _qubit_density_passes,
    build_register,
)
from modeport.gates import hopping_gate, number_rotation_gate, phase_gate

NAN = float("nan")
GRIDS = (PhaseGrid("phi", 16), PhaseGrid("theta", 16))


def densities_with_min_eigenvalue(rng, dim, lead, lam_min):
    """Unit-trace Hermitian matrices of shape ``(*lead, dim, dim)``, smallest eigenvalue ``lam_min``."""
    z = rng.standard_normal(lead + (dim, dim)) + 1j * rng.standard_normal(lead + (dim, dim))
    v, _ = np.linalg.qr(z)
    rest = rng.uniform(0.1, 1.0, lead + (dim - 1,))
    rest *= ((1.0 - lam_min) / rest.sum(axis=-1))[..., None]
    w = np.concatenate([np.full(lead + (1,), lam_min), rest], axis=-1)
    rho = np.einsum("...ij,...j,...kj->...ik", v, w, v.conj())
    return 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())


SHIFT = 0.5 * abs(MIN_EIGVAL)  # the screen's shift s
QUBIT = build_register([("A", 2)])


def qubit_density(lam_min, theta=0.7, phi=0.3, im_a=0.0, im_e=0.0, dev=0.0):
    """Unit-trace 2x2 matrix with eigenvalues ``lam_min`` and ``1 - lam_min``,
    the first on (cos theta, e^{i phi} sin theta); ``im_a`` and ``im_e`` are
    the diagonal's imaginary parts and ``dev`` is rho01 - conj(rho10)."""
    big = 1.0 - lam_min
    gap = lam_min - big
    cos, sin = math.cos(theta), math.sin(theta)
    c = gap * cos * sin * cmath.exp(1j * phi)
    return np.array(
        [
            [complex(big + gap * cos * cos, im_a), c.conjugate() + dev],
            [c, complex(big + gap * sin * sin, im_e)],
        ]
    )


class TestToDensity:
    def test_pure_state_at_the_norm_bound_has_its_trace_past_the_trace_bound(self):
        # Why to_density skips validation: |psi| = 1 + 9e-13 passes the norm
        # check, but tr |psi><psi| = |psi|^2 = 1 + 1.8e-12 would fail the trace check.
        reg = build_register([("A", 2)])
        state = QuantumState(reg, np.array([1.0 + 9e-13, 0.0]))
        assert abs(state.norms() - 1.0) <= NORM_ATOL
        rho = state.to_density()
        assert abs(rho.norms() - 1.0) > TRACE_ATOL
        np.testing.assert_array_equal(rho.data, state.density_data())
        with pytest.raises(ValueError, match="trace"):
            QuantumState(reg, rho.data)


class TestPsdCheck:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("gridded", [False, True])
    @pytest.mark.parametrize("delta", [1e-11, -1e-11, 1e-12, -1e-12, 1e-13, -1e-13, 0.0])
    def test_verdict_matches_eigenvalue_rule(self, dim, gridded, delta):
        rng = np.random.default_rng([dim, gridded, int(delta * 1e13) + 100])
        reg = build_register([("A", dim)])
        grids = GRIDS if gridded else ()
        lead = tuple(g.n_points for g in grids)
        rho = densities_with_min_eigenvalue(rng, dim, lead, MIN_EIGVAL + delta)
        accepted = np.linalg.eigvalsh(rho).min() >= MIN_EIGVAL
        if accepted:
            QuantumState(reg, rho, grids=grids, fourier_order=(0,) * len(grids))
        else:
            with pytest.raises(ValueError, match="min eigenvalue"):
                QuantumState(reg, rho, grids=grids, fourier_order=(0,) * len(grids))

    # One-qubit densities at the closed-form screen's edges (shift s, Hermiticity
    # margins HERM_ATOL/4 and HERM_ATOL/2, first pivot 0) and at the rule's.
    @pytest.mark.parametrize("gridded", [False, True])
    @pytest.mark.parametrize(
        "rho, screened, message",
        [
            (qubit_density(-SHIFT * (1 - 1e-2)), True, None),
            (qubit_density(-SHIFT * (1 + 1e-2)), False, None),
            (qubit_density(MIN_EIGVAL * (1 - 1e-3)), False, None),
            (qubit_density(MIN_EIGVAL * (1 + 1e-3)), False, "min eigenvalue -1.001e-10"),
            (qubit_density(0.25, im_a=HERM_ATOL / 4), True, None),
            (qubit_density(0.25, im_a=-HERM_ATOL / 4 * (1 + 1e-3)), False, None),
            (qubit_density(0.25, im_e=HERM_ATOL / 2 * 1.01), False, "Hermitian: deviation 1.010e-12"),
            (qubit_density(0.25, dev=HERM_ATOL / 2 * (1 - 1e-3)), True, None),
            (qubit_density(0.25, dev=HERM_ATOL / 2 * (1 + 1e-3)), False, None),
            (qubit_density(0.25, dev=1j * HERM_ATOL * 1.01), False, "Hermitian: deviation 1.010e-12"),
            (np.diag([-SHIFT, 1.0 + SHIFT]).astype(complex), False, None),
            (np.diag([1.0, 0.0]).astype(complex), True, None),
        ],
        ids=[
            "lam-s-inside", "lam-s-outside", "lam-rule-inside", "lam-rule-outside",
            "im-a-at-margin", "im-a-past-margin", "im-e-past-rule",
            "dev-inside-margin", "dev-past-margin", "dev-past-rule",
            "first-pivot-zero", "basis-state",
        ],
    )
    def test_qubit_screen_edges(self, rho, screened, message, gridded):
        lead = tuple(g.n_points for g in GRIDS) if gridded else ()
        data = np.broadcast_to(rho, lead + (2, 2)).copy()
        assert bool(_qubit_density_passes(data)) is screened
        grids = GRIDS if gridded else ()
        got = verdict(lambda: QuantumState(QUBIT, data, grids=grids, fourier_order=(0,) * len(grids)))
        assert got == reference_density_verdict(data)
        if message is None:
            assert got is None
        else:
            assert message in got

    def test_one_bad_grid_point_rejected(self):
        rng = np.random.default_rng(11)
        reg = build_register([("A", 4)])
        rho = densities_with_min_eigenvalue(rng, 4, (16, 16), 0.0)
        QuantumState(reg, rho, grids=GRIDS, fourier_order=(0, 0))
        rho[9, 4] = densities_with_min_eigenvalue(rng, 4, (), 2 * MIN_EIGVAL)
        with pytest.raises(ValueError, match="min eigenvalue -2.000e-10"):
            QuantumState(reg, rho, grids=GRIDS, fourier_order=(0, 0))

    def test_screen_retains_nothing(self):
        # The screen's shifted copy is freed with the check: no dim x dim identity stays.
        reg = build_register([(f"q{i}", 2) for i in range(10)])
        rho = np.eye(reg.dim, dtype=np.complex128) / reg.dim
        tracemalloc.start()
        try:
            QuantumState(reg, rho)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000


class TestNanRejected:
    def test_pure_state(self):
        reg = build_register([("A", 2)])
        with pytest.raises(ValueError, match="norm"):
            QuantumState(reg, np.array([NAN, 0.0]))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_density_matrix(self, entry):
        reg = build_register([("A", 2)])
        rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        rho[entry] = NAN
        with pytest.raises(ValueError):
            QuantumState(reg, rho)

    @pytest.mark.parametrize("kind", ["unitary", "hermitian"])
    def test_operator(self, kind):
        reg = build_register([("A", 2)])
        with pytest.raises(ValueError, match="not unitary" if kind == "unitary" else "Hermitian"):
            LinearOperator(reg, np.full((2, 2), NAN, dtype=complex), kind=kind)

    @pytest.mark.parametrize(
        "build",
        [
            lambda reg: phase_gate(reg, "a", NAN),
            lambda reg: number_rotation_gate(reg, "a", NAN, PhaseGrid("phi", 16)),
            lambda reg: hopping_gate(reg, "a", "b", NAN),
        ],
        ids=["phase", "number_rotation", "hopping"],
    )
    def test_gate_angle(self, build):
        reg = build_register([("a", 2), ("b", 2)])
        with pytest.raises(ValueError, match="not unitary"):
            build(reg)


def verdict(build):
    """None if ``build()`` passes, else its ValueError message."""
    try:
        build()
    except ValueError as err:
        return str(err)
    return None


class TestGridFreeMatchesGridded:
    """A grid-free state's norm/trace test, run on Python floats, gives the
    verdict and message of the same data tiled on a 2-point grid."""

    INF = float("inf")
    CASES = [
        (1.0, None),
        (1.0 + 2e-12, "worst deviation"),
        (NAN, "worst deviation nan"),
        (INF, "worst deviation inf"),
        (-0.5, "worst deviation 5.000e-01"),
        (0.0, "0 at every grid point"),
        (PROB_FLOOR * (1.0 - 1e-3), "0 at every grid point"),
        (PROB_FLOOR * (1.0 + 1e-3), None),
    ]

    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("value, message", CASES)
    def test_same_verdict_and_message(self, pure, value, message):
        reg = build_register([("A", 2)])
        data = np.array([value, 0.0]) if pure else np.diag([value, 0.0])
        grid_free = verdict(lambda: QuantumState(reg, data))
        gridded = verdict(
            lambda: QuantumState(
                reg, np.stack([data, data]), grids=(PhaseGrid("phi", 2),), fourier_order=(0,)
            )
        )
        assert grid_free == gridded
        if message is None:
            assert grid_free is None
        else:
            assert message in grid_free


def reference_density_verdict(rho):
    """The density check every larger density runs, as ``QuantumState`` ran
    it on one qubit too before the closed-form screen: trace, Hermiticity,
    then the shifted Cholesky with eigvalsh deciding.  None if it accepts,
    else the message."""
    values = rho.trace(axis1=-2, axis2=-1).real
    if values.ndim:
        top = values.max()
        off = 0.0
        if not (top - 1.0 <= TRACE_ATOL and 1.0 - values.min() <= TRACE_ATOL):
            off = np.minimum(np.abs(values - 1.0), np.abs(values)).max()
    else:
        top = float(values)
        off = min(abs(top - 1.0), abs(top))
    if not off <= TRACE_ATOL:
        return (
            "state trace must be 1 (or 0 on an impossible branch) per grid point; "
            f"worst deviation {off:.3e}"
        )
    if top < PROB_FLOOR:
        return "state trace is 0 at every grid point"
    herm = np.abs(rho - rho.swapaxes(-1, -2).conj()).max()
    if not herm <= HERM_ATOL:
        return f"density matrix not Hermitian: deviation {herm:.3e}"
    shifted = rho.copy()
    shifted[..., [0, 1], [0, 1]] += SHIFT
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(rho)
        if not eigs.min() >= MIN_EIGVAL:
            return f"density matrix not positive semidefinite: min eigenvalue {eigs.min():.3e}"
    return None


def exact_screen(rho):
    """The screen's rule in rational arithmetic on the stored floats: True or
    False, or None when some point lies within rounding of an edge or holds
    an infinity.  A NaN point fails, since every comparison with NaN does."""
    verdicts = [exact_screen_point(*point.tolist()) for point in rho.reshape(-1, 4)]
    if False in verdicts:
        return False
    return None if None in verdicts else True


def exact_screen_point(a, b, c, e):
    """One point of :func:`exact_screen`: each of the screen's tests decided
    exactly, or None within a band wider than the screen's own rounding."""
    parts = [z.real for z in (a, b, c, e)] + [z.imag for z in (a, b, c, e)]
    if any(math.isnan(x) for x in parts):
        return False
    if not all(math.isfinite(x) for x in parts):
        return None

    def at_least(x, floor, band):
        return None if abs(x - floor) <= band else x >= floor

    s, floor = Fraction(SHIFT), Fraction(1e-13)
    bound2 = Fraction(HERM_ATOL / 2) ** 2
    dev2 = (Fraction(b.real) - Fraction(c.real)) ** 2 + (Fraction(b.imag) + Fraction(c.imag)) ** 2
    p1 = Fraction(a.real) + s
    tests = [
        abs(a.imag) <= HERM_ATOL / 4 and abs(e.imag) <= HERM_ATOL / 4,
        at_least(bound2, dev2, bound2 * Fraction(1e-12)),
        at_least(p1, floor, abs(p1) * Fraction(1e-12)),
    ]
    if False in tests:
        return False
    if None in tests:
        return None
    t = Fraction(e.real) + s
    q = (Fraction(c.real) ** 2 + Fraction(c.imag) ** 2) / p1
    return at_least(t - q, floor, (abs(t) + abs(q)) * Fraction(1e-14))


def near(edge):
    """Floats at ``edge``, one ulp to either side, or within 10% of it, either sign."""
    at = st.sampled_from([edge, float(np.nextafter(edge, 1.0)), float(np.nextafter(edge, -1.0))])
    size = at | st.floats(0.9, 1.1).map(lambda f: edge * f)
    return st.tuples(size, st.sampled_from([1.0, -1.0])).map(lambda pair: pair[0] * pair[1])


@st.composite
def qubit_matrices(draw):
    """2x2 matrices at the screen's edges and the rule's: smallest eigenvalue
    near -s, MIN_EIGVAL or 0; |Im a| near HERM_ATOL/4 and HERM_ATOL/2;
    |b - conj(c)| near HERM_ATOL/2 and HERM_ATOL, often along conj(c), where
    it moves |b| most.  Also the shifted pivots at or near their floors, exact zeros,
    NaN entries, traces just off 1, unstructured entries and entries whose
    squares overflow."""
    kinds = ["edge"] * 6 + ["second pivot"] * 2 + ["first pivot", "zero", "basis", "wild", "huge"]
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return np.zeros((2, 2), dtype=complex)
    if kind == "basis":
        return np.diag(draw(st.sampled_from([[1.0, 0.0], [0.0, 1.0]]))).astype(complex)
    if kind == "wild":
        entries = st.complex_numbers(max_magnitude=2.0) | st.complex_numbers(allow_nan=True)
        return np.array(draw(st.lists(entries, min_size=4, max_size=4))).reshape(2, 2)
    if kind == "huge":
        # Unit trace, Hermitian, far from PSD: |c|^2 overflows, and so does
        # Python's complex abs of the last c.
        c = draw(st.sampled_from([1e200, 1e200j, complex(1.5e308, 1.5e308)]))
        return np.array([[2.0**52, c.conjugate()], [c, 1.0 - 2.0**52]])
    if kind == "second pivot":
        # Hermitian within the screen's margin, the deviation along +-conj(c),
        # and the second pivot (about (lam + s) / sin^2 theta) as far from its
        # floor as the deviation moves it: the upper triangle's pivot lands on
        # the other side of the floor about half the time.
        theta, phi = draw(st.floats(0.3, 1.2)), draw(st.floats(-math.pi, math.pi))
        size = HERM_ATOL / 2 * draw(st.floats(0.5, 1.0) | st.floats(-1.0, -0.5))
        cos, sin = math.cos(theta), math.sin(theta)
        reach = 2 * cos * sin * abs(size)
        lam = -SHIFT + 1e-13 * sin * sin + draw(st.floats(-1.0, 1.0)) * reach
        c = qubit_density(lam, theta, phi)[1, 0]
        return qubit_density(lam, theta, phi, dev=size * cmath.exp(-1j * cmath.phase(c)))
    if kind == "first pivot":
        # a = -s makes the shifted first pivot 0: the screen must not divide by it.
        a = -SHIFT + draw(st.sampled_from([0.0, 1e-13, 2e-13]) | st.floats(-1e-12, 1e-12))
        c = draw(st.sampled_from([0.0, 1e-13, 1e-7]))
        return np.array([[a, c], [c, 1.0 - a]], dtype=complex)
    lam = draw(st.sampled_from([0.0, -SHIFT, MIN_EIGVAL]))
    lam += draw(st.floats(-2e-12, 2e-12) | st.floats(-3e-13, 3e-13))
    theta = draw(st.floats(0.0, math.pi / 2))
    phi = draw(st.floats(-math.pi, math.pi))
    im_a = draw(st.just(0.0) | near(HERM_ATOL / 4) | near(HERM_ATOL / 2))
    im_e = draw(st.just(0.0) | near(HERM_ATOL / 4) | near(HERM_ATOL / 2))
    size = draw(st.just(0.0) | near(HERM_ATOL / 2) | near(HERM_ATOL))
    turn = draw(st.sampled_from([0.0, math.pi]) | st.floats(-math.pi, math.pi))
    c = qubit_density(lam, theta, phi)[1, 0]
    dev = size * cmath.exp(1j * (turn - cmath.phase(c)))
    rho = qubit_density(lam, theta, phi, im_a, im_e, dev)
    rho *= draw(st.sampled_from([1.0] * 6 + [1.0 + 2e-12, 1.0 - 9e-13]))
    if draw(st.integers(0, 9)) == 0:
        i, j = draw(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
        rho[i, j] = draw(st.sampled_from([complex(NAN, 0.0), complex(rho[i, j].real, NAN)]))
    return rho


@st.composite
def qubit_inputs(draw):
    """A grid-free 2x2 matrix, or a stack of them on one or two 2-point grids."""
    symbols = ("phi", "theta")[: draw(st.integers(0, 2))]
    grids = tuple(PhaseGrid(symbol, 2) for symbol in symbols)
    shape = tuple(g.n_points for g in grids)
    points = draw(st.lists(qubit_matrices(), min_size=math.prod(shape), max_size=math.prod(shape)))
    return grids, np.array(points).reshape(shape + (2, 2))


@settings(max_examples=300, deadline=None)
@given(case=qubit_inputs())
def test_qubit_screen_keeps_every_verdict_and_message(case):
    # Soundness: with the screen, a one-qubit density gets the reference
    # rule's verdict and whole message.  Precision: the screen decides by its
    # stated rule, so a missing shift or the upper triangle in place of the
    # lower shows here, where the fallback's verdict would hide it.
    grids, rho = case
    got = verdict(lambda: QuantumState(QUBIT, rho, grids=grids, fourier_order=(0,) * len(grids)))
    assert got == reference_density_verdict(rho)
    want = exact_screen(rho)
    if want is not None:
        assert bool(_qubit_density_passes(rho)) is want
