"""Exact cohomological invariants from fixed-point restrictions.

All classes are represented by their restrictions to the six fixed points.
A degree-2m class restricts at vertex ``i`` to ``coeffs[i] * t**m`` for the
equivariant generator ``t``, so a class is a degree plus six rational
coefficients; products multiply coefficients and add degrees.  All
arithmetic is exact -- integrality failures are real obstructions, never
rounding noise.  Classes hold ``fractions.Fraction`` coefficients; the
Chern expansion runs in integers, with the basis scaled by ``a_5`` (every
``a_i`` divides it, by duality).  A coefficient that does not divide out is
kept as an exact fraction, so the row is still checked at every vertex and
raises the error it owes.  ``_sigmas`` is the one expansion of a vertex's
elementary symmetric sums: every Chern restriction sigma_m(weights at i) is
read from one run of its product recurrence.  Every function here that
takes a configuration reads its one cached weight system,
``Configuration.weight_system``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import DIM, N_POINTS, Configuration, WeightSystem


class CohomologyError(ValueError):
    """Base class for cohomological obstructions."""


class IntegralityError(CohomologyError):
    """A quantity that must be an integer is not."""


class DualityError(CohomologyError):
    """The ring multipliers fail the duality identity q_i q_{5-i} = q_5."""


class ConsistencyError(CohomologyError):
    """Restrictions are inconsistent with a basis expansion."""


@dataclass(frozen=True)
class EquivariantClass:
    """Degree-homogeneous class; restriction at vertex i is coeffs[i] t^(deg/2)."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree % 2 != 0 or self.degree < 0:
            raise ValueError(f"degree must be a nonnegative even integer: {self.degree}")
        if len(self.coeffs) != N_POINTS:
            raise ValueError("one restriction per fixed point required")
        object.__setattr__(
            self,
            "coeffs",
            tuple(x if type(x) is Fraction else Fraction(x) for x in self.coeffs),
        )

    def __mul__(self, other: "EquivariantClass") -> "EquivariantClass":
        return EquivariantClass(
            self.degree + other.degree,
            tuple(a * b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __pow__(self, n: int) -> "EquivariantClass":
        return EquivariantClass(self.degree * n, tuple(x**n for x in self.coeffs))


@dataclass(frozen=True)
class RingPresentation:
    """Rational multipliers q_i with alpha_i = q_i [omega]^i, and a_i = 1/q_i."""

    q: tuple[Fraction, ...]
    a: tuple[int, ...]


@dataclass(frozen=True)
class ChernReport:
    """Basis expansions of the equivariant Chern classes.

    ``equivariant[m-1]`` lists the integers d_{m,0..m} with
    c_m = sum_i d_{m,i} t^(m-i) basis_i; ``ordinary`` is the diagonal
    (d_{1,1}, ..., d_{5,5}) giving the ordinary Chern classes.
    """

    equivariant: tuple[tuple[int, ...], ...]
    ordinary: tuple[int, ...]


# ---------------------------------------------------------------------------


def u_tilde(c: Configuration) -> EquivariantClass:
    """Equivariant extension of the symplectic generator: restricts to -phi_i t."""
    return EquivariantClass(2, tuple(Fraction(-v) for v in c.profile.values))


def ring_presentation(c: Configuration) -> RingPresentation:
    """Multipliers of the integral generators in each even degree.

    q_i is the product of the negative weights at vertex i divided by the
    product of the moment gaps down from it.  Raises IntegralityError when
    some 1/q_i is not an integer, DualityError when q_i q_{5-i} != q_5.
    """
    phi = c.profile.values
    ws = c.weight_system
    q = []
    a = []
    for i in range(N_POINTS):
        denom = 1
        for j in range(i):
            denom *= phi[j] - phi[i]
        lam_minus = ws.lam_minus[i]
        if denom % lam_minus:
            raise IntegralityError(
                f"generator multiplier at vertex {i} is {Fraction(lam_minus, denom)}; "
                f"its inverse {Fraction(denom, lam_minus)} is not an integer"
            )
        ai = denom // lam_minus
        q.append(Fraction(1, ai))
        a.append(ai)
    for i in range(N_POINTS):
        # q_i = 1 / a_i, so q_i q_{5-i} = q_5 exactly when a_i a_{5-i} = a_5
        if a[i] * a[N_POINTS - 1 - i] != a[N_POINTS - 1]:
            raise DualityError(
                f"duality fails: q_{i} * q_{N_POINTS - 1 - i} = "
                f"{q[i] * q[N_POINTS - 1 - i]} != q_{N_POINTS - 1} = {q[N_POINTS - 1]}"
            )
    return RingPresentation(tuple(q), tuple(a))


def _scaled_basis(c: Configuration, rp: RingPresentation) -> list[list[int]]:
    """``a_5`` times the basis restrictions: ``rows[i][p]`` is
    ``(a_5 / a_i) prod_{j<i} (phi_j - phi_p)``, an integer because duality
    gives ``a_5 / a_i = a_{5-i}``."""
    phi = c.profile.values
    ws = c.weight_system
    a5 = rp.a[-1]
    rows = []
    for i in range(N_POINTS):
        row = []
        for p in range(N_POINTS):
            x = rp.a[N_POINTS - 1 - i]
            for j in range(i):
                x *= phi[j] - phi[p]
            row.append(x)
        assert all(row[p] == 0 for p in range(i))
        assert row[i] == a5 * ws.lam_minus[i]
        rows.append(row)
    return rows


def _sigmas(values, m: int = DIM) -> list[int]:
    """sigma_0..sigma_m of an integer multiset, from one run of the product
    recurrence prod (1 + v x)."""
    coeffs = [1] + [0] * m
    for v in values:
        for d in range(m, 0, -1):
            coeffs[d] += v * coeffs[d - 1]
    return coeffs


def elementary_symmetric(values, m: int) -> int:
    """sigma_m of an integer multiset."""
    return _sigmas(values, m)[m]


def chern_restrictions(ws: WeightSystem, m: int) -> EquivariantClass:
    """m-th equivariant Chern class: restriction sigma_m(weights at i) t^m."""
    if not 1 <= m <= DIM:
        raise ValueError(f"Chern degree must be in 1..{DIM}, got {m}")
    return EquivariantClass(
        2 * m,
        tuple(Fraction(elementary_symmetric(w, m)) for w in ws.weights),
    )


def total_chern(c: Configuration) -> ChernReport:
    """Expand every equivariant Chern class; the diagonal gives the ordinary ones."""
    rp = ring_presentation(c)
    return _total_chern(c, rp, [_sigmas(w) for w in c.weight_system.weights])


def _total_chern(c: Configuration, rp: RingPresentation, sigmas) -> ChernReport:
    """Each Chern class c_m = sum_i d_{m,i} t^(m-i) basis_i, in integers
    scaled by ``a_5``; ``sigmas[p][m]`` is c_m's restriction to vertex p,
    sigma_m of its weights (``_sigmas``).

    The d_{m,i} are solved triangularly from the restrictions at vertices
    0..m; one that does not divide out is kept as an exact ``Fraction``, so
    the later sums stay exact.  The row is then checked at the remaining
    vertices (ConsistencyError on a mismatch) and only after that for
    integrality (IntegralityError).
    """
    a5 = rp.a[-1]
    basis = _scaled_basis(c, rp)
    rows = []
    for m in range(1, DIM + 1):
        x = [a5 * s[m] for s in sigmas]
        d: list[int | Fraction] = []
        for p in range(N_POINTS):
            acc = sum([d[i] * basis[i][p] for i in range(min(p, m + 1))])
            if p <= m:
                rest = x[p] - acc
                q, r = divmod(rest, basis[p][p])
                d.append(Fraction(rest, basis[p][p]) if r else q)
            elif acc != x[p]:
                raise ConsistencyError(
                    f"expansion solved at vertices 0..{m} restricts to {Fraction(acc) / a5} "
                    f"at vertex {p}, but the class restricts to {x[p] // a5}"
                )
        bad = [i for i, v in enumerate(d) if isinstance(v, Fraction)]
        if bad:
            raise IntegralityError(
                f"expansion coefficients at positions {bad} are not integers: "
                f"{[str(d[i]) for i in bad]}"
            )
        rows.append(tuple(d))
    ordinary = tuple(rows[m - 1][m] for m in range(1, DIM + 1))
    if ordinary[-1] != N_POINTS:
        raise ConsistencyError(
            f"top Chern coefficient {ordinary[-1]} != number of fixed points {N_POINTS}"
        )
    return ChernReport(tuple(rows), ordinary)


def localize_integral(x: EquivariantClass, ws: WeightSystem) -> Fraction:
    """Fixed-point localization: sum of restrictions over full weight products.

    Returns sum_i coeffs[i] / Lambda_i.  For classes of cohomological degree
    below the manifold dimension this must come out to exactly 0.
    """
    if x.degree > 2 * DIM:
        raise ValueError(f"degree {x.degree} exceeds the manifold dimension")
    return sum(
        (x.coeffs[i] / ws.lam[i] for i in range(N_POINTS)), Fraction(0)
    )


def cohomology_report(c: Configuration) -> dict:
    """Ring, Chern and localization summary in the report JSON shape.

    The Euler integral localizes c_5, whose restriction sigma_5 at each
    vertex is the product Lambda_i of its weights, so it is
    sum_i Lambda_i / Lambda_i = 6 whenever the ring and Chern checks pass:
    a sanity read-out, not a test.
    """
    ws = c.weight_system
    rp = ring_presentation(c)
    sigmas = [_sigmas(w) for w in ws.weights]
    chern = _total_chern(c, rp, sigmas)
    omega5 = localize_integral(u_tilde(c) ** DIM, ws)
    euler = localize_integral(EquivariantClass(2 * DIM, tuple(s[DIM] for s in sigmas)), ws)
    return {
        "ring_q": [str(v) for v in rp.q],
        "a": list(rp.a),
        "chern_ordinary": list(chern.ordinary),
        "chern_equivariant": [list(row) for row in chern.equivariant],
        "integrals": {"omega5": str(omega5), "euler": str(euler)},
    }
