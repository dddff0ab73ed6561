"""One-spin-versus-rest entanglement: E = (1 - |<sigma>|) / 2.

For the graph states produced by ``evolve_graph_exact`` the transverse means
vanish and <sigma_z> for spin l is cos(phi)**degree(l), so E has the closed
form (1 - |cos(phi)|**k) / 2 with k the vertex degree. ``analytic_entanglement``
evaluates that form after folding phi into [0, pi/2] with exact float
remainders, which makes the symmetries phi -> -phi, phi + pi, pi - phi hold
bit-exactly whenever the shifted argument itself is exactly representable.
The closed form needs no numpy; ``exact_entanglement`` and ``bloch_vector``
load :mod:`graphent.statevector` on first use.
"""

from __future__ import annotations

import math

from .errors import (
    DEFAULT_MAX_QUBITS,
    ValidationError,
    _checked_integer,
    _checked_shots,
    _finite_angle,
    _is_real,
    _numpy_module,
    _Value,
)

TYPE_CHECKING = False  # typing's constant, without importing typing
if TYPE_CHECKING:
    import numpy as np

    from .statevector import StateVector

METHODS = ("analytic", "exact", "shots")

NORM_OVERSHOOT_LIMIT = 1e-9
# fold error at the limit: 2**14 / pi * (pi - float pi) < 1e-12
_FOLD_LIMIT = 2.0**14
_COMPONENT_LIMIT = 1.0 + 1e-9
_AXES = ("mx", "my", "mz")


def _component_error(name: str, v: float) -> ValidationError:
    return ValidationError(f"Bloch component {name}={v!r} outside [-1, 1]")


def _norm(mx: float, my: float, mz: float) -> float:
    # Python's x**2 (libm pow), not numpy's: they differ in the last bit for some x
    return math.sqrt(mx**2 + my**2 + mz**2)


def _check_components(means: np.ndarray):
    """``BlochVector``'s bound on every value of an array whose last axis is (mx, my, mz); the first bad one is named."""
    bad = ~(abs(means) <= _COMPONENT_LIMIT)  # NaN compares False, so it is bad too
    if bad.any():
        at = tuple(int(ix[0]) for ix in bad.nonzero())  # nonzero lists indices in C order
        raise _component_error(_AXES[at[-1]], float(means[at]))


class BlochVector(_Value):
    """Single-spin Pauli means (mx, my, mz)."""

    __slots__ = ("mx", "my", "mz")

    def __init__(self, mx: float, my: float, mz: float):
        for name, v in zip(_AXES, (mx, my, mz)):
            if type(v) is not float and not _is_real(v):  # floats, the common case, skip the call
                raise ValidationError(f"Bloch component {name} must be a real number, got {v!r}")
            if not abs(v) <= _COMPONENT_LIMIT:  # NaN compares False, so it fails too
                raise _component_error(name, v)
        object.__setattr__(self, "mx", mx)
        object.__setattr__(self, "my", my)
        object.__setattr__(self, "mz", mz)

    def norm(self) -> float:
        return _norm(self.mx, self.my, self.mz)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.mx, self.my, self.mz)


class EntanglementEstimate(_Value):
    """Per-spin result: E value, Bloch components, and how they were obtained."""

    __slots__ = ("spin", "value", "bloch", "method", "std_error", "shots")

    def __init__(
        self,
        spin: int,
        value: float,
        bloch: BlochVector,
        method: str,
        std_error: float | None = None,
        shots: int | None = None,
    ):
        if method not in METHODS:
            raise ValidationError(f"unknown method {method!r}")
        if type(value) is not float and not _is_real(value):  # floats, the common case, skip the call
            raise ValidationError(f"entanglement value must be a real number, got {value!r}")
        if not -1e-12 <= value <= 0.5 + 1e-12:
            raise ValidationError(f"entanglement value {value!r} outside [0, 1/2]")
        if not isinstance(bloch, BlochVector):
            raise ValidationError(f"bloch must be a BlochVector, got {bloch!r}")
        if type(spin) is not int:  # plain ints, the common case, skip the call
            spin = _checked_integer(spin, "spin")
        if spin < 0:
            raise ValidationError(f"spin must be non-negative, got {spin}")
        if (shots is not None) != (method == "shots"):
            raise ValidationError("shot count is present exactly for method='shots'")
        if shots is not None and (type(shots) is not int or not 1 <= shots < 1 << 63):
            shots = _checked_shots(shots)  # converts a numpy integer, or raises with the reason
        if (std_error is not None) != (method == "shots"):
            raise ValidationError("standard error is present exactly for method='shots'")
        if std_error is not None:
            if type(std_error) is not float and not _is_real(std_error):  # floats, the common case, skip the call
                raise ValidationError(f"standard error must be a real number, got {std_error!r}")
            if not 0.0 <= std_error < math.inf:  # NaN compares False, so it fails too
                raise ValidationError(f"standard error {std_error!r} is not finite and non-negative")
        object.__setattr__(self, "spin", spin)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "bloch", bloch)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "std_error", std_error)
        object.__setattr__(self, "shots", shots)


def _folded_cos(phi: float) -> float:
    """|cos(phi)| via reduction of phi to [0, pi/2].

    fmod and fabs are exact, and the reflection pi - r is exact for
    r in [pi/2, pi] (Sterbenz), so arguments related by sign flip, shift by
    pi, or reflection about pi/2 fold to the same float whenever they are
    themselves exact. fmod reduces by the float pi, which drifts from the
    true reduction by about |phi| * 4e-17; above ``_FOLD_LIMIT`` (where a
    shift by pi is never exact anyway) libm's exact reduction is used instead.
    """
    if math.fabs(phi) > _FOLD_LIMIT:
        return math.fabs(math.cos(phi))
    r = math.fabs(math.fmod(phi, math.pi))
    if r > 0.5 * math.pi:
        r = math.pi - r
    return math.cos(r)


def analytic_entanglement(k: int, phi: float) -> float:
    """Closed form (1 - |cos(phi)|**k) / 2 for a spin of degree ``k``."""
    if type(k) is not int:  # plain ints, the common case, skip the call
        k = _checked_integer(k, "degree")
    if k < 0:
        raise ValidationError(f"degree must be non-negative, got {k}")
    phi = _finite_angle(phi)
    return 0.5 * (1.0 - _folded_cos(phi) ** k)


def entanglement_from_bloch(
    b: BlochVector, *, norm_tol: float | None = NORM_OVERSHOOT_LIMIT
) -> float:
    """E = (1 - min(1, |b|)) / 2.

    ``norm_tol`` is the fraud line for exact computations; pass ``None`` for
    finite-shot estimates, where |b| legitimately overshoots 1 by sampling
    noise and is clamped.
    """
    return _entanglement_of_means(b.mx, b.my, b.mz, norm_tol)


def _entanglement_of_means(mx: float, my: float, mz: float, norm_tol: float | None = NORM_OVERSHOOT_LIMIT) -> float:
    """``entanglement_from_bloch`` of the means (mx, my, mz), in Python floats so every value has one formula's bits."""
    norm = _norm(mx, my, mz)
    if norm_tol is not None and norm > 1.0 + norm_tol:
        raise ValidationError(f"Bloch vector norm {norm!r} exceeds 1")
    return 0.5 * (1.0 - min(1.0, norm))


def bloch_vector(state: StateVector, l: int) -> BlochVector:
    """All three exact Pauli means of qubit ``l`` of a single state."""
    if state.rows is not None:
        raise ValidationError(f"expected a single state, got a batch of {state.rows} rows")
    return BlochVector(*_numpy_module("statevector").pauli_means(state, l))


def exact_entanglement(
    g, phi: float, l: int, max_qubits: int = DEFAULT_MAX_QUBITS
) -> EntanglementEstimate:
    """Measure spin ``l`` exactly by simulating its light cone.

    Edge terms not incident to ``l`` (edges between its neighbours included)
    commute with every Pauli on ``l`` and with the edge terms at ``l``, so
    ``<sigma_l>`` of the graph state equals ``<sigma_0>`` of the star state
    that ``l``'s ``k = degree(l)`` edge terms make from qubit 0 to qubits
    1..k (Hein, Eisert & Briegel, PRA 69, 062311 (2004)). Only that star is
    simulated, so ``max_qubits`` caps ``k + 1``, not the graph's size, and
    its k edges are applied by one call, which builds their unitary once.
    """
    phi = _finite_angle(phi)
    k = g.degree(l)
    sv = _numpy_module("statevector")
    state = sv.evolve_edges(sv.init_zero(k + 1, max_qubits), [(0, m) for m in range(1, k + 1)], phi)
    b = bloch_vector(state, 0)
    return EntanglementEstimate(
        spin=l, value=entanglement_from_bloch(b), bloch=b, method="exact"
    )


def analytic_estimate(g, phi: float, l: int) -> EntanglementEstimate:
    """Closed-form estimate for spin ``l``; Bloch vector is (0, 0, cos(phi)**k)."""
    k = g.degree(l)
    value = analytic_entanglement(k, phi)  # checks phi before math.cos can raise on inf
    return EntanglementEstimate(
        spin=l,
        value=value,
        bloch=BlochVector(0.0, 0.0, math.cos(phi) ** k),
        method="analytic",
    )
