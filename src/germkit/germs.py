"""Local classification of polynomial germs with machine-checkable certificates.

The classifier is deliberately a partial decision procedure.  It is
decisive on units, smooth points, germs a*z_n^2 + b*z_n + c with a
nonzero constant a in any dimension, and bivariate germs caught by the
Newton polygon criteria; everything else comes back Undetermined with a
reason.  No verdict depends on the truncation order, the precision of
printed series.  Every decisive answer carries a certificate holding
exactly the data needed to re-verify it independently, and its class
names the verdict (its `verdict` attribute, which GermStatus.kind
reads):

  NonzeroValue          f(p) != 0, the germ is a unit
  SmoothPoint           gradient nonzero, the zero set is locally a graph
  OddVariableOrder      the discriminant has odd order in one variable, so
                        it is not a square (orders of squares are even)
  MonomialUnitSquare    the discriminant is monomial * unit with even
                        exponents; carries the square root when it is
                        rationally representable
  LowestFormNotASquare  the lowest homogeneous form of the discriminant is
                        not a square of a form (decided in any number of
                        variables)
  DistinguishedVarDivides  the distinguished variable divides the exact
                        germ, `multiplicity` times
  MultiEdgePolygon / BinomialCoprimeEdge / BinomialNoncoprimeEdge /
  EdgePolynomialSplits  Newton polygon criteria for bivariate germs

All certificates are statements over the complex numbers; rational
arithmetic is only the computation substrate.  The two questions over C
that these need, whether a form is a square and whether an edge
polynomial has a single distinct root, are each one exact Polynomial
identity over Q: a form F is a square exactly when F / lc(F) is the
square of a rational polynomial, and E of degree g has one root exactly
when E = lc * (x - c)^g with c = -E_(g-1) / (g * lc).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import ClassVar, Optional

from .algebra import Polynomial, _linear_factors, _monomial_multiple, as_point, as_rational
from .errors import (
    DimensionMismatchError,
    DistinguishedVarDividesError,
    NotRegularError,
    ZeroPolynomialError,
)
from .series import TruncatedSeries, ts_sqrt
from .weierstrass import MAX_ORDER, make_regular, weierstrass_prepare

# -- certificates -----------------------------------------------------------

UNIT = "Unit"
SMOOTH_IRREDUCIBLE = "SmoothIrreducible"
SINGULAR_IRREDUCIBLE = "SingularIrreducible"
SINGULAR_REDUCIBLE = "SingularReducible"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class NonzeroValue:
    """f(p) != 0: the germ is a unit in the local ring."""

    kind: ClassVar[str] = "NonzeroValue"
    verdict: ClassVar[str] = UNIT
    value: Fraction


@dataclass(frozen=True)
class SmoothPoint:
    """Nonzero gradient at the point: the zero set is locally smooth."""

    kind: ClassVar[str] = "SmoothPoint"
    verdict: ClassVar[str] = SMOOTH_IRREDUCIBLE
    gradient: tuple


@dataclass(frozen=True)
class OddVariableOrder:
    """variable_order(D, variable) = order, an odd number.

    In a power series domain the minimal exponent of any variable in a
    square is even (lowest slices cannot cancel), so D is not a square.
    """

    kind: ClassVar[str] = "OddVariableOrder"
    verdict: ClassVar[str] = SINGULAR_IRREDUCIBLE
    variable: int
    order: int


@dataclass(frozen=True)
class MonomialUnitSquare:
    """D = x^(2*half_exponents) * (unit_root)^2, certified square.

    `root` is the square root of D itself when one with rational
    coefficients exists (root = x^half * unit_root); otherwise the square
    root exists over the complex numbers but is not rationally
    representable, and both series fields are None (the symbolic case).
    """

    kind: ClassVar[str] = "MonomialUnitSquare"
    verdict: ClassVar[str] = SINGULAR_REDUCIBLE
    root: Optional[TruncatedSeries]
    half_exponents: Optional[tuple] = None
    unit_root: Optional[TruncatedSeries] = None

    @property
    def symbolic(self) -> bool:
        return self.root is None


@dataclass(frozen=True)
class LowestFormNotASquare:
    """The lowest homogeneous form of D is not the square of a form.

    Squares have square lowest forms (lowest forms multiply without
    cancellation), so D cannot be a square.  A checker re-verifies that
    form / lc(form) is not the square of a rational polynomial.
    """

    kind: ClassVar[str] = "LowestFormNotASquare"
    verdict: ClassVar[str] = SINGULAR_IRREDUCIBLE
    form: Polynomial
    degree: int


@dataclass(frozen=True)
class DistinguishedVarDivides:
    """z_variable^multiplicity is the highest power of z_variable dividing the germ."""

    kind: ClassVar[str] = "DistinguishedVarDivides"
    verdict: ClassVar[str] = SINGULAR_REDUCIBLE
    variable: int
    multiplicity: int


@dataclass(frozen=True)
class MultiEdgePolygon:
    """The Newton polygon has several edges; each carries its own branches."""

    kind: ClassVar[str] = "MultiEdgePolygon"
    verdict: ClassVar[str] = SINGULAR_REDUCIBLE
    edge_count: int


@dataclass(frozen=True)
class BinomialCoprimeEdge:
    """Single binomial edge (0,d)-(m,0) with gcd(d,m)=1: one branch, irreducible."""

    kind: ClassVar[str] = "BinomialCoprimeEdge"
    verdict: ClassVar[str] = SINGULAR_IRREDUCIBLE
    d: int
    m: int


@dataclass(frozen=True)
class BinomialNoncoprimeEdge:
    """Single binomial edge with gcd g > 1: the initial part splits into g branches."""

    kind: ClassVar[str] = "BinomialNoncoprimeEdge"
    verdict: ClassVar[str] = SINGULAR_REDUCIBLE
    gcd: int


@dataclass(frozen=True)
class EdgePolynomialSplits:
    """The single edge's polynomial has several distinct complex roots.

    Distinct edge roots belong to distinct factors, so the germ is
    reducible.  `edge_polynomial` E, of degree g = the edge's lattice
    length, is univariate in the edge parameter (printed as z1).  A checker
    re-verifies E != lc * (z1 - c)^g for c = -E_(g-1) / (g * lc), the only
    candidate for a single root.
    """

    kind: ClassVar[str] = "EdgePolynomialSplits"
    verdict: ClassVar[str] = SINGULAR_REDUCIBLE
    edge_polynomial: Polynomial


# -- status and query ---------------------------------------------------------


@dataclass(frozen=True)
class GermStatus:
    """Classification of a germ, with certificate and optional factor pair.

    The certificate is the decision: `kind` is its verdict, and Undetermined
    when there is none, in which case `reason` says why.  `factors`, when
    present, are TruncatedSeries in the shifted (and, if `applied_change`
    is set, sheared) coordinates; they multiply back to the Weierstrass
    polynomial modulo the truncation order and neither is a unit.
    Reducible verdicts from polygon certificates carry no factors
    (producing them would need Puiseux lifting), and neither does
    DistinguishedVarDivides when the regularity order is above the
    truncation order; the certificate alone is the deliverable.
    """

    certificate: object | None = None
    factors: tuple | None = None
    reason: str | None = None
    applied_change: tuple | None = None

    @property
    def kind(self) -> str:
        return UNDETERMINED if self.certificate is None else self.certificate.verdict

    def is_irreducible_verdict(self) -> bool:
        return self.kind in (SMOOTH_IRREDUCIBLE, SINGULAR_IRREDUCIBLE)


@dataclass(frozen=True)
class GermQuery:
    """A germ-classification request: which polynomial, where, how precisely."""

    f: Polynomial
    point: tuple
    order: int = 8

    def __post_init__(self):
        if self.f.is_zero():
            raise ZeroPolynomialError(
                "the germ of 0 is zero at every point, so it is neither a unit nor irreducible")
        object.__setattr__(self, "point", as_point(self.point, self.f.n))
        if not 2 <= self.order <= MAX_ORDER:
            raise ValueError(f"truncation order must be at least 2 and at most {MAX_ORDER}")


# -- local square test --------------------------------------------------------


def is_local_square(D: Polynomial, N: int) -> object | None:
    """Decide whether D, an exact polynomial, is a square germ at the origin (over C).

    The certificate is the decision: a MonomialUnitSquare means yes (its
    `root`, cut at order N, is None in the symbolic case), any other
    certificate means no, and None means undetermined.

    Decision cascade on alpha, the componentwise least exponent of D: (1)
    zero decides nothing (no certificate states it); (2) an odd variable
    order alpha_i rules a square out; (3) when x^alpha is a term of D, D is
    x^alpha times a unit U, a square with explicit root when U(0) is a
    rational square; (4) a lowest homogeneous form that is not the square of
    a form rules a square out; (5) otherwise undetermined.
    """
    if D.is_zero():
        return None
    alpha = tuple(D.variable_order(i) for i in range(1, D.n + 1))
    for i, a in enumerate(alpha, 1):
        if a % 2 == 1:
            return OddVariableOrder(variable=i, order=a)
    if D.coefficient(alpha) != 0:
        half = tuple(a // 2 for a in alpha)
        U = _monomial_multiple(D, tuple(-a for a in alpha))
        unit_root = ts_sqrt(TruncatedSeries(U, N))
        if unit_root is None:
            return MonomialUnitSquare(root=None, half_exponents=half)
        root = TruncatedSeries(_monomial_multiple(unit_root.body, half), N)
        return MonomialUnitSquare(root=root, half_exponents=half, unit_root=unit_root)
    form, degree = D.lowest_homogeneous_form()
    if not _is_square_form(form):
        return LowestFormNotASquare(form=form, degree=degree)
    return None


def _is_square_form(form: Polynomial) -> bool:
    """Whether a nonzero form is the square of a form over C.

    Over C, F is a square exactly when F / lc(F) is the square of a
    polynomial over Q: the Q-irreducible factors of F stay squarefree and
    pairwise coprime over C.  The root is found term by term from the
    graded-lex leading term, as in exact division; an odd leading exponent,
    or a remainder term that the first root term does not divide, rules a
    square out.  Every remainder term is below the leading term of F, so
    each new root term is below the first and the remainder's leading term
    falls strictly: the loop ends.
    """
    lead, lc = form.leading_term()
    if any(e % 2 for e in lead):
        return False
    top = tuple(e // 2 for e in lead)
    root = Polynomial.monomial(form.n, top)
    rem = form * (1 / lc) - root * root
    while not rem.is_zero():
        mono, c = rem.leading_term()
        step = tuple(a - b for a, b in zip(mono, top))
        if min(step) < 0:
            return False
        term = Polynomial.monomial(form.n, step, c / 2)
        rem = rem - term * (root + root + term)
        root = root + term
    return True


def quadratic_germ_test(f: Polynomial, j: int, N: int) -> GermStatus:
    """Classify the germ f = a*t^2 + b*t + c, t = z_j, by its exact discriminant.

    Requires a to be a nonzero rational constant and b(0) = c(0) = 0.  Then
    f / a = t^2 + e1*t + e2 is exactly the germ's Weierstrass polynomial,
    and it splits into two monic linear factors exactly when the polynomial
    D = e1^2 - 4*e2 is a square germ; the factors are then t + (e1 -+ r)/2
    for a square root r of D, cut at order N.  When the square exists over
    C but has no rational representation the verdict is still reducible,
    with factors omitted (the symbolic case).
    """
    coefficients = _monic_quadratic(f, j)
    if coefficients is None:
        raise ValueError(f"quadratic test needs a*z{j}^2 + b*z{j} + c, a constant, b(0) = c(0) = 0")
    return _quadratic_verdict(*coefficients, j, N)


def _quadratic_verdict(e1: Polynomial, e2: Polynomial, j: int, N: int) -> GermStatus:
    """quadratic_germ_test on the germ's coefficients (e1, e2) from _monic_quadratic."""
    D = e1 * e1 - 4 * e2
    cert = is_local_square(D, N)
    if cert is None:
        why = ("is zero: the germ is a constant times a square" if D.is_zero()
               else "has a square lowest form but no monomial-unit split")
        return GermStatus(reason="the discriminant " + why)
    if not isinstance(cert, MonomialUnitSquare) or cert.symbolic:
        return GermStatus(cert)
    lo, hi = _linear_factors(e1, cert.root.body, j)
    return GermStatus(cert, factors=(TruncatedSeries(lo, N), TruncatedSeries(hi, N)))


def _monic_quadratic(f: Polynomial, j: int) -> tuple | None:
    """(e1, e2), in the variables other than z_j, when f = a*(z_j^2 + e1*z_j + e2)
    with a a nonzero constant and e1(0) = e2(0) = 0; otherwise None."""
    coeffs = f.coefficients_in(j)
    if len(coeffs) == 3 and coeffs[2].total_degree() == 0:
        e2, e1 = (c.drop_variable(j) * (1 / coeffs[2].constant_term()) for c in coeffs[:2])
        if e1.constant_term() == e2.constant_term() == 0:
            return e1, e2


# -- Newton polygon -----------------------------------------------------------


@dataclass(frozen=True)
class PolygonEdge:
    """One edge of the lower hull, with its lattice data and edge polynomial.

    Coordinates are (i, j) = (exponent of the base variable, exponent of
    the distinguished variable).  The edge polynomial collects the
    coefficients at the gcd(di,dj)+1 lattice points along the edge, as a
    univariate polynomial in the edge parameter.
    """

    start: tuple
    end: tuple
    lattice_gcd: int
    edge_polynomial: Polynomial


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of a bivariate germ's support, from (0, degree) down."""

    support_points: frozenset
    edges: tuple
    degree: int


def newton_polygon(f: Polynomial, j: int) -> NewtonPolygon:
    """Newton polygon of a bivariate germ at the origin, regular in z_j.

    The hull is read from the exact polynomial.  By preparation f = u * w
    with u a unit, whose Newton polygon is the whole quadrant, so f and its
    Weierstrass polynomial w have the same edges, and f's edge polynomials
    are u(0) times w's.  Dividing them by the coefficient at (0, d), which
    is u(0) since w is monic, gives w's.  Requires f(0) = 0, f regular of
    order d in z_j, and f(z', 0) != 0 (otherwise z_j divides f and the
    polygon never reaches the base axis: DistinguishedVarDividesError).
    """
    if f.n != 2:
        raise DimensionMismatchError("Newton polygon is defined for bivariate germs")
    x = 1 if j == 2 else 2
    coeffs = {(m[x - 1], m[j - 1]): c for m, c in f.terms()}
    support = frozenset(coeffs)
    d = min((jj for (i, jj) in support if i == 0), default=0)
    if d == 0:
        raise NotRegularError(f"the germ is a unit or not regular in z{j}")
    m0 = min((i for (i, jj) in support if jj == 0), default=None)
    if m0 is None:
        raise DistinguishedVarDividesError(f"z{j} divides the germ")
    u0 = coeffs[(0, d)]

    best: dict[int, int] = {}
    for (i, jj) in support:
        if i <= m0 and (i not in best or jj < best[i]):
            best[i] = jj
    pts = sorted(best.items())
    hull: list[tuple[int, int]] = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)

    edges = []
    for (i0, j0), (i1, j1) in zip(hull, hull[1:]):
        di, dj = i1 - i0, j0 - j1
        g = math.gcd(di, dj)
        step_i, step_j = di // g, dj // g
        terms = {}
        for k in range(g + 1):
            c = coeffs.get((i0 + k * step_i, j0 - k * step_j))
            if c:
                terms[(k,)] = c / u0
        edges.append(
            PolygonEdge(
                start=(i0, j0),
                end=(i1, j1),
                lattice_gcd=g,
                edge_polynomial=Polynomial(1, terms),
            )
        )
    return NewtonPolygon(support_points=support, edges=tuple(edges), degree=d)


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polygon_verdict(polygon: NewtonPolygon) -> GermStatus:
    """Branch-structure verdict from the polygon's edge data.

    Several edges mean several branches.  A single binomial edge from
    (0,d) to (m,0) is one quasi-homogeneous branch when gcd(d,m)=1 and g
    conjugate branches when g = gcd(d,m) > 1.  A single non-binomial edge
    splits unless its edge polynomial E, of degree g, is a pure power
    lc * (x - c)^g; then c = -E_(g-1) / (g * lc) is rational, and that one
    repeated edge root is beyond this oracle: Undetermined.
    """
    edges = polygon.edges
    if len(edges) >= 2:
        return GermStatus(MultiEdgePolygon(edge_count=len(edges)))
    edge = edges[0]
    d, m = edge.start[1], edge.end[0]
    E, g = edge.edge_polynomial, edge.lattice_gcd  # g = gcd(d, m)
    if E.term_count() == 2:
        if g == 1:
            return GermStatus(BinomialCoprimeEdge(d=d, m=m))
        return GermStatus(BinomialNoncoprimeEdge(gcd=g))
    lc = E.coefficient((g,))
    c = -E.coefficient((g - 1,)) / (g * lc)
    if E != lc * (Polynomial.variable(1, 1) - c) ** g:
        return GermStatus(EdgePolynomialSplits(edge_polynomial=E))
    return GermStatus(
        reason="single Newton polygon edge with one repeated edge root; deeper expansion needed"
    )


# -- the classifier -----------------------------------------------------------


def analyze_germ(query: GermQuery) -> GermStatus:
    """Classify the germ of query.f at query.point.

    Cascade: one shift to the point, whose constant term is the value and
    whose linear part is the gradient: nonvanishing value -> Unit; nonzero
    gradient -> SmoothIrreducible; otherwise, with j = n (the last
    variable), regularize the shifted germ in z_j, to order d >= 2 (the germ
    and its gradient vanish, and a linear shear keeps the order), and
    dispatch once on the exact sheared germ: z_j divides it -> the
    distinguished variable splits off; a*z_j^2 + b*z_j + c with a nonzero
    constant a -> the square test on its exact discriminant; bivariate ->
    Newton polygon; anything else is outside the decidable fragment.  No
    verdict depends on the order N, the precision of the factors, which are
    in the shifted coordinates (plus the recorded shear, if any); only the
    first branch prepares, for its factors, when d is at most N.
    """
    f, p, N = query.f, query.point, query.order
    shifted = f.shift(p)
    # f(p) is the constant term of f(p + x), and the gradient its linear part
    value = shifted.constant_term()
    if value != 0:
        return GermStatus(NonzeroValue(value=value))
    n = f.n
    gradient = tuple(shifted.coefficient([int(i == k) for i in range(n)]) for k in range(n))
    if any(c != 0 for c in gradient):
        return GermStatus(SmoothPoint(gradient=gradient))
    j = n  # any other choice asks about the same germ with variables renamed
    sheared, report = make_regular(shifted, j)
    d, k = report.order, sheared.variable_order(j)
    if k > 0:
        factors = None
        if d <= N:
            t = Polynomial.variable(n, j)
            w = weierstrass_prepare(sheared, j, N).weierstrass_polynomial()
            factors = (TruncatedSeries(t, N), TruncatedSeries(w.exact_div(t), N))
        cert = DistinguishedVarDivides(variable=j, multiplicity=k)
        status = GermStatus(cert, factors=factors)
    elif (coefficients := _monic_quadratic(sheared, j)) is not None:
        status = _quadratic_verdict(*coefficients, j, N)
    elif n == 2:
        status = polygon_verdict(newton_polygon(sheared, j))
    else:
        shape = f"2 (but not a*z{j}^2 + b*z{j} + c, a constant)" if d == 2 else ">= 3"
        status = GermStatus(
            reason=f"Weierstrass degree {shape} in dimension >= 3 is outside the decidable fragment"
        )
    return replace(status, applied_change=report.applied_change)


# -- stability scanner --------------------------------------------------------


@dataclass(frozen=True)
class ScanSample:
    """One scanned point: parameter value, coordinates and status."""

    t: Fraction
    point: tuple
    status: GermStatus

    @property
    def on_locus(self) -> bool:
        # analyze_germ answers Unit exactly when f(point) != 0
        return self.status.kind != UNIT


@dataclass(frozen=True)
class ScanReport:
    """Per-sample classification along a parametric curve, plus a verdict.

    verdict, read from `reason` and `witness`, is "Unstable" (the base germ
    is irreducible but some on-locus sample with t != 0 is reducible;
    `witness` holds it), "Stable-evidence" (the base germ and every
    on-locus sample with t != 0 got an irreducible classification; finite
    evidence, not a proof), or "Inconclusive" (reason attached: no on-locus
    sample has t != 0, some classification is Undetermined, or the base
    germ is not irreducible, since stability of irreducibility is then not
    in question).  A sample at t = 0 is the base point again and never
    counts toward the verdict.
    """

    curve: tuple
    base_point: tuple
    base_status: GermStatus
    samples: tuple
    witness: ScanSample | None = None
    reason: str | None = None

    @property
    def verdict(self) -> str:
        if self.reason is not None:
            return "Inconclusive"
        return "Stable-evidence" if self.witness is None else "Unstable"


def scan_stability(
    f: Polynomial,
    p,
    curve,
    t_values,
    N: int = 8,
) -> ScanReport:
    """Classify f along a rational curve and judge stability of irreducibility.

    `curve` is one univariate coordinate polynomial per variable of f, in
    the parameter t, with curve(0) = p.  Every sample is classified (off-
    locus samples come back Unit); membership in the zero locus is exact
    rational equality.  Samples appear in input order and the report is a
    pure function of the inputs.
    """
    p = as_point(p, f.n)
    coords = tuple(curve)
    if len(coords) != f.n or any(not isinstance(c, Polynomial) or c.n != 1 for c in coords):
        raise DimensionMismatchError(
            f"curve must have {f.n} univariate coordinate polynomials"
        )
    t_values = tuple(as_rational(t) for t in t_values)
    if not t_values:
        raise ValueError("t_values must be non-empty")
    start = tuple(c.evaluate((Fraction(0),)) for c in coords)
    if start != p:
        raise ValueError(
            f"curve(0) = {_format_point(start)} does not pass through the base point "
            f"{_format_point(p)}"
        )

    base_status = analyze_germ(GermQuery(f, p, N))
    samples = []
    for t in t_values:
        q = tuple(c.evaluate((t,)) for c in coords)
        samples.append(ScanSample(t=t, point=q, status=analyze_germ(GermQuery(f, q, N))))
    samples = tuple(samples)

    on_locus = [s for s in samples if s.on_locus and s.t != 0]
    witness, reason = None, None
    if not on_locus:
        reason = "no sample with t != 0 lies on the zero locus"
    elif base_status.kind == UNDETERMINED or any(
        s.status.kind == UNDETERMINED for s in on_locus
    ):
        reason = "a germ classification came back undetermined"
    elif not base_status.is_irreducible_verdict():
        reason = f"the base germ is not irreducible ({base_status.kind})"
    else:
        # every other on-locus sample is irreducible: no Unit, no Undetermined
        witness = next((s for s in on_locus if s.status.kind == SINGULAR_REDUCIBLE), None)
    return ScanReport(
        curve=coords,
        base_point=p,
        base_status=base_status,
        samples=samples,
        witness=witness,
        reason=reason,
    )


def _format_point(p: tuple) -> str:
    return "(" + ", ".join(str(c) for c in p) + ")"
