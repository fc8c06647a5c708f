"""Local classification of polynomial germs with machine-checkable certificates.

The classifier is deliberately a partial decision procedure.  It is
decisive on units, smooth points, germs a*z_n^2 + b*z_n + c with a(0) != 0
in any dimension whose discriminant the square test decides, bivariate
germs caught by the Newton polygon criteria, and isolated singular points
in three or more variables; everything else comes back Undetermined with a
reason.  No verdict depends on the truncation order,
the precision of printed series.  Every decisive answer carries a certificate holding
exactly the data needed to re-verify it independently.  Its class line
names the verdict (its `verdict` attribute, which GermStatus.kind reads),
and its class name is its `kind`:

  NonzeroValue          f(p) != 0, the germ is a unit
  SmoothPoint           gradient nonzero, the zero set is locally a graph
  OddVariableOrder      the discriminant has odd order in one variable, so
                        it is not a square (orders of squares are even)
  MonomialUnitSquare    the discriminant is monomial * unit with even
                        exponents; carries the square root when it is
                        rationally representable
  PolynomialSquare      the discriminant is a constant times the square of
                        a polynomial, or zero
  LowestFormNotASquare  the lowest homogeneous form of the discriminant is
                        not a square of a form (decided in any number of
                        variables)
  DistinguishedVarDivides  the distinguished variable divides the exact
                        germ, `multiplicity` times
  MultiEdgePolygon / BinomialCoprimeEdge / EdgePolynomialSplits
                        Newton polygon criteria for bivariate germs
  IsolatedCriticalPoint the gradient has an isolated zero, so a germ in
                        n >= 3 variables is irreducible

All certificates are statements over the complex numbers; rational
arithmetic is only the computation substrate.  The two questions over C
that these need, whether a form is a square and whether an edge
polynomial E of degree g is lc * (x - c)^g (one distinct root), both ask
whether a polynomial is a k-th power over C, k = 2 or k = g.  A k-th root
with leading coefficient 1 is unique, so it is rational whenever it
exists, and `_exact_root` finds it, or its absence, exactly over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from ._record import Record
from .algebra import (Polynomial, _isolated_level, _jacobian_cut, _linear_factors, _linear_part,
                      _monomial_multiple, _quadratic_parts, as_point, as_rational, rational_sqrt)
from .errors import (
    DimensionMismatchError,
    DistinguishedVarDividesError,
    NotRegularError,
    ZeroPolynomialError,
)
from .parsing import _format_point
from .series import DEFAULT_ORDER, TruncatedSeries, _check_order, ts_sqrt
from .weierstrass import make_regular, weierstrass_prepare

# -- certificates -----------------------------------------------------------

UNIT = "Unit"
SMOOTH_IRREDUCIBLE = "SmoothIrreducible"
SINGULAR_IRREDUCIBLE = "SingularIrreducible"
SINGULAR_REDUCIBLE = "SingularReducible"
UNDETERMINED = "Undetermined"


class _Certificate(Record):
    """Gives each certificate its `verdict`, from its class line, and `kind`, its class name."""

    def __init_subclass__(cls, verdict: str, **kwargs):
        cls.kind = cls.__name__  # class attributes, so not record fields
        cls.verdict = verdict
        super().__init_subclass__(**kwargs)


class NonzeroValue(_Certificate, verdict=UNIT):
    """f(p) != 0: the germ is a unit in the local ring."""

    value: Fraction


class SmoothPoint(_Certificate, verdict=SMOOTH_IRREDUCIBLE):
    """Nonzero gradient at the point: the zero set is locally smooth."""

    gradient: tuple


class OddVariableOrder(_Certificate, verdict=SINGULAR_IRREDUCIBLE):
    """variable_order(D, variable) = order, an odd number.

    In a power series domain the minimal exponent of any variable in a
    square is even (lowest slices cannot cancel), so D is not a square.
    """

    variable: int
    order: int


class MonomialUnitSquare(_Certificate, verdict=SINGULAR_REDUCIBLE):
    """D = x^(2*half_exponents) * (unit_root)^2, certified square.

    `root` is the square root of D itself when one with rational
    coefficients exists (root = x^half * unit_root); otherwise the square
    root exists over the complex numbers but is not rationally
    representable, and both series fields are None (the symbolic case).
    """

    root: Optional[TruncatedSeries]
    half_exponents: Optional[tuple] = None
    unit_root: Optional[TruncatedSeries] = None

    @property
    def symbolic(self) -> bool:
        return self.root is None


class PolynomialSquare(_Certificate, verdict=SINGULAR_REDUCIBLE):
    """D = lc * root^2 exactly, for a polynomial root with leading coefficient 1.

    `lc` is D's leading coefficient and `root` its monic square root as
    `_exact_root` finds it; both are 0 when D = 0.  D(0) = 0, so root(0) = 0
    and sqrt(lc)*root is a square root of D over C.  A checker re-verifies
    D == lc * root^2 and root(0) = 0.  When lc is not a rational square the
    root is not rational (the symbolic case).
    """

    lc: Fraction
    root: Polynomial

    @property
    def symbolic(self) -> bool:
        return rational_sqrt(self.lc) is None


class LowestFormNotASquare(_Certificate, verdict=SINGULAR_IRREDUCIBLE):
    """The lowest homogeneous form of D is not the square of a form.

    Squares have square lowest forms (lowest forms multiply without
    cancellation), so D cannot be a square.  A checker re-verifies that
    form / lc(form) is not the square of a rational polynomial.
    """

    form: Polynomial
    degree: int


class DistinguishedVarDivides(_Certificate, verdict=SINGULAR_REDUCIBLE):
    """z_variable^multiplicity is the highest power of z_variable dividing the germ."""

    variable: int
    multiplicity: int


class MultiEdgePolygon(_Certificate, verdict=SINGULAR_REDUCIBLE):
    """The Newton polygon has several edges; each carries its own branches."""

    edge_count: int


class BinomialCoprimeEdge(_Certificate, verdict=SINGULAR_IRREDUCIBLE):
    """Single binomial edge (0,d)-(m,0) with gcd(d,m)=1: one branch, irreducible."""

    d: int
    m: int


class EdgePolynomialSplits(_Certificate, verdict=SINGULAR_REDUCIBLE):
    """The single edge's polynomial has several distinct complex roots.

    Distinct edge roots belong to distinct factors, so the germ is
    reducible.  `edge_polynomial` E, of degree g = the edge's lattice
    length, is univariate in the edge parameter (printed as z1).  A checker
    re-verifies E != lc * (z1 - c)^g for c = -E_(g-1) / (g * lc), the only
    candidate for a single root.
    """

    edge_polynomial: Polynomial


class IsolatedCriticalPoint(_Certificate, verdict=SINGULAR_IRREDUCIBLE):
    """m^level lies in J = (df/dz_1, ..., df/dz_n), whose colength `milnor` is the Milnor number.

    So the gradient's zero at the origin is isolated, while that of g*h, g(0) = h(0) = 0,
    contains V(g) and V(h)'s intersection, of dimension >= n - 2 >= 1: in n >= 3 variables
    the germ is irreducible.  A checker re-verifies that the z^b * df/dz_i span every
    monomial of degree `level` modulo m^(level+1), and counts `milnor` below that degree.
    """

    level: int
    milnor: int


# -- status and query ---------------------------------------------------------


class GermStatus(Record):
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


class GermQuery(Record):
    """A germ-classification request: which polynomial, where, how precisely."""

    f: Polynomial
    point: tuple
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        if self.f.is_zero():
            raise ZeroPolynomialError(
                "the germ of 0 is zero at every point, so it is neither a unit nor irreducible")
        object.__setattr__(self, "point", as_point(self.point, self.f.n))
        _check_order(self.order, low=2)


# -- local square test --------------------------------------------------------


def is_local_square(D: Polynomial, N: int) -> object | None:
    """Decide whether D, an exact polynomial, is a square germ at the origin (over C).

    The certificate is the decision: a SingularReducible one (MonomialUnitSquare,
    whose `root` is cut at order N, or PolynomialSquare) means yes, a
    SingularIrreducible one means no, and None means undetermined.

    Decision cascade on alpha, the componentwise least exponent of D: (1)
    zero is the square of zero; (2) an odd variable order alpha_i rules a
    square out; (3) when x^alpha is a term of D, D is x^alpha times a unit U,
    a square with explicit root when U(0) is a rational square; (4) a lowest
    homogeneous form that is not the square of a form rules a square out,
    and when it is one, D = lc * R^2 for a polynomial R (`_exact_root`) is a
    square; (5) otherwise undetermined.
    """
    _check_order(N)
    if D.is_zero():
        return PolynomialSquare(lc=Fraction(0), root=D)
    alpha = tuple(D.variable_order(i) for i in range(1, D.n + 1))
    for i, a in enumerate(alpha, 1):
        if a % 2 == 1:
            return OddVariableOrder(variable=i, order=a)
    if (u0 := D.coefficient(alpha)) != 0:
        half = tuple(a // 2 for a in alpha)
        if rational_sqrt(u0) is None:  # U(0) = u0: U has a square root, not a rational one
            return MonomialUnitSquare(root=None, half_exponents=half)
        U = _monomial_multiple(D, tuple(-a for a in alpha))
        unit_root = ts_sqrt(TruncatedSeries(U, N))
        root = TruncatedSeries(_monomial_multiple(unit_root.body, half), N)
        return MonomialUnitSquare(root=root, half_exponents=half, unit_root=unit_root)
    form, degree = D.lowest_homogeneous_form()
    if _exact_root(form, 2) is None:
        return LowestFormNotASquare(form=form, degree=degree)
    if (root := _exact_root(D, 2)) is not None:
        return PolynomialSquare(lc=D.leading_term()[1], root=root)
    return None


def _exact_root(F: Polynomial, k: int) -> Polynomial | None:
    """R with R^k = F / lc(F) and leading coefficient 1, or None; F is nonzero, k >= 2.

    Such an R is unique (two differ by a k-th root of unity, fixed by the
    leading coefficient), so it is Galois-fixed, hence rational, whenever F
    is a k-th power over C.  R is found term by term from its leading term
    top, as in exact division: the remainder F / lc(F) - R^k leads with
    k * top^(k-1) * t for the next root term t, so an exponent of F's
    leading term that k does not divide, or a remainder term that
    top^(k-1) does not divide, rules a power out.  Each t is below top, so
    the remainder's leading term falls strictly and the loop ends.  The
    powers R^0 .. R^(k-1) are kept, and the binomial theorem updates them
    and the remainder by products with single terms.
    """
    lead, lc = F.leading_term()
    if any(e % k for e in lead):
        return None
    top = tuple(e // k for e in lead)
    # R^0 .. R^(k-1)
    powers = [Polynomial.monomial(F.n, tuple(e * i for e in top)) for i in range(k)]
    rem = F * (1 / lc) - Polynomial.monomial(F.n, lead)
    while not rem.is_zero():
        mono, c = rem.leading_term()
        step = tuple(a - (k - 1) * b for a, b in zip(mono, top))
        if min(step) < 0:
            return None
        # t^i for t = (c / k) * x^step; (R + t)^m = R^m + sum_i C(m, i) * R^(m-i) * t^i
        t = [Polynomial.monomial(F.n, tuple(e * i for e in step), (c / k) ** i)
             for i in range(k + 1)]
        rem = rem - sum(powers[k - i] * (t[i] * math.comb(k, i)) for i in range(1, k + 1))
        powers = [p + sum(powers[m - i] * (t[i] * math.comb(m, i)) for i in range(1, m + 1))
                  for m, p in enumerate(powers)]
    return powers[1]


def quadratic_germ_test(f: Polynomial, N: int) -> GermStatus | None:
    """Classify the germ f = a*t^2 + b*t + c, t = z_n, by its exact discriminant D.

    None unless a(0) != 0 and b(0) = c(0) = 0.  Then f is the unit a times its
    Weierstrass polynomial t^2 + e1*t + e2 (e1 = b/a, e2 = c/a), which splits
    exactly when e1^2 - 4*e2 is a square germ, and `is_local_square` decides
    that on D (`_quadratic_parts`): D = e1^2 - 4*e2 = (b*b - 4*a*c)/a^2 when a is
    a constant, and D = b*b - 4*a*c, the unit square a^2 times it, otherwise.  A
    checker re-derives D from f by that rule.  When a is a constant and D has a
    rational square root r, the factors t + (e1 -+ r)/2, cut at order N, are
    built in one pass (`_linear_factors`); otherwise the certificate alone is
    the deliverable.
    """
    _check_order(N)
    if (parts := _quadratic_parts(f)) is None:
        return None
    e1, D = parts
    if (cert := is_local_square(D, N)) is None:
        return GermStatus(reason="the discriminant has a square lowest form but is neither "
                          "a monomial times a unit nor a constant times a square")
    if e1 is None or cert.verdict != SINGULAR_REDUCIBLE or cert.symbolic:
        return GermStatus(cert)
    r = (cert.root.body if isinstance(cert, MonomialUnitSquare)
         else cert.root * rational_sqrt(cert.lc))
    lo, hi = _linear_factors(e1, r, N)
    return GermStatus(cert, factors=(TruncatedSeries(lo, N), TruncatedSeries(hi, N)))


# -- Newton polygon -----------------------------------------------------------


class PolygonEdge(Record):
    """One edge of the lower hull, with its lattice data and edge polynomial.

    Coordinates are (i, j) = (exponent of z1, the base variable, exponent
    of z2, the distinguished variable).  The edge polynomial collects the
    coefficients at the gcd(di,dj)+1 lattice points along the edge, as a
    univariate polynomial in the edge parameter.
    """

    start: tuple
    end: tuple
    lattice_gcd: int
    edge_polynomial: Polynomial


def newton_polygon(f: Polynomial) -> tuple:
    """The edges of the Newton polygon of a bivariate germ at the origin, regular in z2.

    The polygon is the lower convex hull of the support; its PolygonEdges
    come in order from (0, d) down.  The hull is read from the exact
    polynomial.  By preparation f = u * w with u a unit, whose Newton
    polygon is the whole quadrant, so f and its Weierstrass polynomial w
    have the same edges, and f's edge polynomials are u(0) times w's.
    Dividing them by the coefficient at (0, d), which is u(0) since w is
    monic, gives w's.  Requires f(0) = 0, f regular of order d in z2, and
    f(z1, 0) != 0 (otherwise z2 divides f and the polygon never reaches
    the base axis: DistinguishedVarDividesError).
    """
    if f.n != 2:
        raise DimensionMismatchError("Newton polygon is defined for bivariate germs")
    coeffs = dict(f.terms())
    d = min((jj for (i, jj) in coeffs if i == 0), default=0)
    if d == 0:
        raise NotRegularError("the germ is a unit or not regular in z2")
    m0 = min((i for (i, jj) in coeffs if jj == 0), default=None)
    if m0 is None:
        raise DistinguishedVarDividesError("z2 divides the germ")
    u0 = coeffs[(0, d)]

    best: dict[int, int] = {}
    for (i, jj) in coeffs:
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
    return tuple(edges)


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polygon_verdict(edges: tuple) -> GermStatus:
    """Branch-structure verdict from the edges that `newton_polygon` returns.

    Several edges mean several branches.  A single edge from (0,d) to (m,0)
    of lattice length g = gcd(d,m) = 1 has only its two end points, so it is
    a binomial edge: one quasi-homogeneous branch.  Any other single edge
    splits unless its edge polynomial E, of degree g, is a g-th power
    lc * (x - c)^g (`_exact_root(E, g)` decides it; c is then rational), and
    that one repeated edge root is beyond this oracle: Undetermined.  A
    binomial c0 + c_g*x^g with g > 1 has g distinct roots, so it splits.
    """
    if len(edges) >= 2:
        return GermStatus(MultiEdgePolygon(edge_count=len(edges)))
    edge = edges[0]
    E, g = edge.edge_polynomial, edge.lattice_gcd
    if g == 1:
        return GermStatus(BinomialCoprimeEdge(d=edge.start[1], m=edge.end[0]))
    if _exact_root(E, g) is None:
        return GermStatus(EdgePolynomialSplits(edge_polynomial=E))
    return GermStatus(
        reason="single Newton polygon edge with one repeated edge root; deeper expansion needed"
    )


# -- the classifier -----------------------------------------------------------


def analyze_germ(query: GermQuery) -> GermStatus:
    """Classify the germ of query.f at query.point.

    The query has checked f, the point and the order; the germ is shifted
    to the point once and `_classify` decides it at the origin.
    """
    return _classify(query.f.shift(query.point), query.order)


def _classify(shifted: Polynomial, N: int) -> GermStatus:
    """Classify the germ at the origin of shifted, a nonzero polynomial, at a checked order N.

    The callers check f and N: `analyze_germ` through its GermQuery, and
    `scan_stability` once, through the base germ's query, for all samples.
    Cascade: the constant term is the value and the linear part the
    gradient: nonvanishing value -> Unit; nonzero gradient ->
    SmoothIrreducible; otherwise, with j = n (the last
    variable), regularize the shifted germ in z_j, to order d >= 2 (the germ
    and its gradient vanish, and a linear shear keeps the order), and
    dispatch once on the exact sheared germ: z_j divides it -> the
    distinguished variable splits off; a*z_j^2 + b*z_j + c with a(0) != 0
    -> the square test on its exact discriminant; bivariate ->
    Newton polygon; in n >= 3, an undecided germ whose gradient has an isolated
    zero is irreducible (`_isolated_level`), and the reason of one it leaves
    open names the degree K its rows are cut at; anything else is outside the
    decidable fragment.  No verdict depends on the order N, the precision of
    the factors, which are in the shifted coordinates (plus the recorded shear,
    if any); only the first branch prepares, for its factors, when d is at most N.
    """
    # f(p) is the constant term of f(p + x), and the gradient its linear part
    value = shifted.constant_term()
    if value != 0:
        return GermStatus(NonzeroValue(value=value))
    n = shifted.n
    if (gradient := _linear_part(shifted)) is not None:
        return GermStatus(SmoothPoint(gradient=gradient))
    j = n  # any other choice asks about the same germ with variables renamed
    sheared, report = make_regular(shifted, j)
    d, k = report.order, sheared.variable_order(j)
    if k > 0:
        factors = None
        if d <= N:
            t = Polynomial.variable(n, j)
            w = weierstrass_prepare(sheared, j, N).weierstrass_polynomial
            factors = (TruncatedSeries(t, N), TruncatedSeries(w.exact_div(t), N))
        cert = DistinguishedVarDivides(variable=j, multiplicity=k)
        status = GermStatus(cert, factors=factors)
    elif (status := quadratic_germ_test(sheared, N)) is None:
        if n == 2:
            status = polygon_verdict(newton_polygon(sheared))
        else:
            shape = f"2 (but z{j}-degree above 2)" if d == 2 else ">= 3"
            status = GermStatus(reason=f"Weierstrass degree {shape} in dimension >= 3 is "
                                "outside the decidable fragment")
    if n >= 3 and status.certificate is None:
        if found := _isolated_level(shifted):
            return GermStatus(IsolatedCriticalPoint(*found))
        status = status._replace(reason=f"{status.reason}; the Jacobian kernel found no level "
                                 f"up to K = {_jacobian_cut(n)}")
    if report.applied_change is None:
        return status
    return status._replace(applied_change=report.applied_change)


# -- stability scanner --------------------------------------------------------


class ScanSample(Record):
    """One scanned point: parameter value, coordinates and status."""

    t: Fraction
    point: tuple
    status: GermStatus

    @property
    def on_locus(self) -> bool:
        # analyze_germ answers Unit exactly when f(point) != 0
        return self.status.kind != UNIT


class ScanReport(Record):
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


def _coordinate_at(c: Polynomial, k: int, t: Fraction) -> Fraction:
    """Curve coordinate k (1-based) at t.  The budget error of its Horner evaluation
    names the coordinate's only variable z1; here it is t, and k says which one."""
    try:
        return c.evaluate((t,))
    except ValueError as err:
        raise ValueError(str(err).replace("in z1 ", f"in t (curve coordinate {k}) ", 1)) from err


def scan_stability(f: Polynomial, p, curve, t_values, N: int = DEFAULT_ORDER) -> ScanReport:
    """Classify f along a rational curve and judge stability of irreducibility.

    `curve` is one univariate coordinate polynomial per variable of f, in
    the parameter t, with curve(0) = p.  Every sample is classified (off-
    locus samples come back Unit); membership in the zero locus is exact
    rational equality.  Samples appear in input order and the report is a
    pure function of the inputs.

    f is shifted to p once; the base germ's query is the one check of f, p
    and N, and it is classified at the origin of that shifted polynomial.
    Each sample q is classified by `_classify`, with no query of its own, at
    the step q - p from it, which is the germ of f at q exactly.  A sample
    evaluates only the coordinates the curve moves (those of positive
    degree; a fixed one stays at p_i, a step of 0), each by Horner in t,
    and pays one Horner substitution per coordinate that moves at that t,
    on the shifted germ.  A moving coordinate of degree above 1024, the
    budget algebra.MAX_VARIABLE_DEGREE, raises ValueError at t != 0, and the
    message names t and the coordinate's 1-based index.
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
    start = tuple(c.constant_term() for c in coords)
    if start != p:
        raise ValueError(
            f"curve(0) = {_format_point(start)} does not pass through the base point "
            f"{_format_point(p)}"
        )

    base = f.shift(p)
    # the one check of f and N; every sample shifts the same base at the same order
    base_status = analyze_germ(GermQuery(base, (0,) * f.n, N))
    samples = []
    moves = [c.total_degree() > 0 for c in coords]
    zero = Fraction(0)
    for t in t_values:
        q = tuple(_coordinate_at(c, k, t) if m else x
                  for k, (c, x, m) in enumerate(zip(coords, p, moves), 1))
        step = [y - x if m else zero for y, x, m in zip(q, p, moves)]
        samples.append(ScanSample(t=t, point=q, status=_classify(base.shift(step), N)))
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
