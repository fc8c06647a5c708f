"""Seeded known-truth corpora for the four workloads.

Every case is plain data (dict polynomials from `checks`, Fraction points)
with its truth fixed by construction, never by running germkit.  The seed
picks points, coefficients and sample values; the number of cases in each
family and cost class is fixed, so every seed makes the same mix.

Corpus rules that keep the cases inside the fragment germkit decides
soundly (each rule excludes one known wrong answer, see CHANGES.md):

  * binomial exponents are at most the truncation order, so e_d is never
    truncated to zero;
  * every term of a quadratic germ's discriminant has total degree at most
    the order, so square tests never see a truncated lowest form;
  * planted common factors of coprime pairs always vanish at the point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checks import (
    compose,
    const,
    euclid_resultant,
    padd,
    peval,
    pmul,
    pscale,
    restrict_to_line,
    translate,
    var,
)

F = Fraction


@dataclass
class Case:
    name: str
    family: str
    n: int
    f: dict
    point: tuple
    truth: str = ""
    order: int = 8
    extra: dict = field(default_factory=dict)


# -- random pieces ----------------------------------------------------------------


def rq(rng, lo=-3, hi=3, dens=(1, 2, 3)):
    """Small nonzero rational."""
    while True:
        q = F(rng.randint(lo, hi), rng.choice(dens))
        if q:
            return q


def rpoint(rng, n):
    return tuple(F(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(n))


def rmono(rng, n, lo, hi):
    """Random monomial of total degree in [lo, hi]."""
    d = rng.randint(lo, hi)
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))


def rpoly(rng, n, terms, lo, hi, allowed=None):
    """Sum of `terms` random monomials of degree lo..hi over the allowed variables."""
    out = {}
    while len(out) < terms:
        e = rmono(rng, n, lo, hi)
        if allowed is not None and any(x and (i + 1) not in allowed for i, x in enumerate(e)):
            continue
        out[e] = rq(rng)
    return out


def unit(rng, n, terms, allowed=None):
    """1 + (terms random monomials of degree 1..2)."""
    return padd(const(n, 1), rpoly(rng, n, terms, 1, 2, allowed))


def mono(n, e, c=1):
    return {tuple(e): F(c)}


# -- classify ----------------------------------------------------------------------

# (family, n, count): the make-up of one classify corpus, by cost class.
# trivial (value or gradient decides, ~0.2 ms): 30%; light (2-3 variable
# preparation, ~1 ms): 40%, holding p50; medium (4-variable preparation or a
# shear, ~3 ms): 10%; heavy (a unit square root, ~5 ms): 20%, holding p90.
CLASSIFY_MIX = [
    ("unit", 2, 3), ("unit", 3, 3), ("unit", 4, 3),
    ("smooth", 2, 3), ("smooth", 3, 3), ("smooth", 4, 3),
    ("binomial", 2, 10), ("polygon", 2, 3), ("node", 2, 3), ("odd", 2, 2),
    ("cone", 3, 3), ("odd", 3, 3),
    ("odd", 4, 3), ("node", 3, 3),
    ("planted", 2, 2), ("planted", 3, 8), ("planted", 4, 2),
]


def classify_corpus(seed):
    rng = random.Random(f"classify:{seed}")
    cases = []
    for family, n, count in CLASSIFY_MIX:
        for k in range(count):
            g0, truth, extra = GERM_FAMILIES[family](rng, n, k)
            p = rpoint(rng, n)
            cases.append(Case(f"{family}{n}-{k}", family, n, translate(g0, p), p, truth, 8, extra))
    return cases


def _unit_germ(rng, n, k):
    return padd(const(n, rq(rng)), rpoly(rng, n, 3, 1, 3)), "unit", {}


def _smooth_germ(rng, n, k):
    lin = {}
    while not lin:
        lin = {e: c for e, c in rpoly(rng, n, 2, 1, 1).items()}
    return padd(lin, rpoly(rng, n, 3, 2, 3)), "smooth", {}


# (a, b) of z2^a - c*z1^b by case index: b <= 8 (the order), both gcd cases
BINOMIALS = [(2, 4), (3, 4), (2, 3), (4, 6), (2, 6), (5, 3), (2, 5), (3, 8), (2, 8), (4, 7)]


def _binomial_germ(rng, n, k):
    # gcd(a, b) decides; a == 2 goes through the quadratic square test
    a, b = BINOMIALS[k % len(BINOMIALS)]
    c = rq(rng)
    if a == 2 and b % 2 == 0 and k % 4 == 0:
        c = c * c  # a rational square: explicit factors
    g = padd(mono(2, (0, a)), mono(2, (b, 0), -c))
    truth = "irreducible" if math.gcd(a, b) == 1 else "reducible"
    extra = {"symbolic": None}
    if a == 2 and b % 2 == 0:
        extra["symbolic"] = _rational_sqrt(c) is None
    if a == 2 and k % 4 == 2:
        # z2 <- z2 + s*z1 leaves the discriminant unchanged
        g = _shift_distinguished(g, 2, 2, {(1, 0): rq(rng)})
    return g, truth, extra


def _odd_germ(rng, n, k):
    # n = 2: z2^2 - z1^3*u(z1); n >= 3: z_n^2 - z1*z2^2*u.  The discriminant
    # is 4 times the subtracted term, whose z1-order is odd
    if n == 2:
        rest = pmul(mono(2, (3, 0)), unit(rng, 2, 2, {1}))
    else:
        v = pmul(mono(n, (0, 2) + (0,) * (n - 2)), unit(rng, n, 2, set(range(1, n))))
        rest = pmul(mono(n, (1,) + (0,) * (n - 1)), v)
    g = padd(mono(n, (0,) * (n - 1) + (2,)), pscale(rest, -1))
    if k % 2:
        g = _shift_distinguished(g, n, n, {_e(n, 1): rq(rng)})
    return g, "irreducible", {}


def _planted_germ(rng, n, k):
    # (z_n - a)(z_n - b) with a - b = c * x * (1 + s): D = (a - b)^2 has degree <= 8
    x = 1 + k % (n - 1)  # a base variable
    y = n - 1  # the last base variable
    c = rq(rng)
    s = mono(n, _e(n, *([y] * (1 + k % 2))), rq(rng))
    diff = pscale(pmul(var(n, x), padd(const(n, 1), s)), c)
    a = padd(mono(n, _e(n, 1), rq(rng)), mono(n, _e(n, y, y), rq(rng)))
    b = padd(a, pscale(diff, -1))
    zn = var(n, n)
    g = pmul(padd(zn, pscale(a, -1)), padd(zn, pscale(b, -1)))
    return g, "reducible", {"symbolic": False}


def _polygon_germ(rng, n, k):
    # (z2^2 - c*z1^3) * (z2 - d*z1): two Newton polygon edges
    c, d = rq(rng), rq(rng)
    g = pmul(padd(mono(2, (0, 2)), mono(2, (3, 0), -c)), padd(mono(2, (0, 1)), mono(2, (1, 0), -d)))
    return g, "reducible", {}


def _cone_germ(rng, n, k):
    # z1*z3 + c*z2^2, a nondegenerate quadratic cone, not regular in z3
    c = rng.choice((F(2), F(3), F(-2), F(1, 2), F(-3), F(5)))
    return padd(mono(3, (1, 0, 1)), mono(3, (0, 2, 0), c)), "irreducible", {}


def _node_germ(rng, n, k):
    # z1*z_n times a unit: not regular in z_n, reducible
    u = unit(rng, n, 2)
    return pmul(mono(n, _e(n, 1, n)), u), "reducible", {}


GERM_FAMILIES = {
    "unit": _unit_germ,
    "smooth": _smooth_germ,
    "binomial": _binomial_germ,
    "odd": _odd_germ,
    "planted": _planted_germ,
    "polygon": _polygon_germ,
    "cone": _cone_germ,
    "node": _node_germ,
}


def _e(n, *vars_):
    e = [0] * n
    for i in vars_:
        e[i - 1] += 1
    return tuple(e)


def _shift_distinguished(g, n, j, shift):
    """g with z_j replaced by z_j + shift (shift free of z_j): a coordinate change."""
    forms = [var(n, i) for i in range(1, n + 1)]
    forms[j - 1] = padd(var(n, j), shift)
    return compose(g, forms, n)


def _rational_sqrt(q):
    q = F(q)
    if q < 0:
        return None
    a, b = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return F(a, b) if a * a == q.numerator and b * b == q.denominator else None


# -- scan ---------------------------------------------------------------------------

# (family, count): cusp curves are Stable-evidence; "symbolic" t-lists hold only
# non-square samples; "root8"/"root12" put one rational-square sample (explicit
# factors through ts_sqrt) among two non-square ones, at order 8 / 12.  The
# cheap classes (cusp, symbolic, ~2-12 ms) make 70% and hold p50; root12
# (~550-950 ms) makes the top 20% and holds p90.
SCAN_MIX = [
    ("cusp", 2),
    ("symbolic3", 10),
    ("symbolic4", 2),
    ("root8x4", 1),
    ("root8", 1),
    ("root12", 4),
]

SQUARE_T = (F(1), F(4), F(1, 4), F(9, 4), F(4, 9), F(1, 9))
NONSQUARE_T = (F(2), F(3), F(1, 2), F(-1), F(-1, 4), F(2, 9), F(3, 4), F(-2))


def scan_corpus(seed):
    rng = random.Random(f"scan:{seed}")
    cases = []
    for family, count in SCAN_MIX:
        for k in range(count):
            cases.append(_scan_case(rng, family, k))
    return cases


def _scan_case(rng, family, k):
    if family == "cusp":
        a, b = rng.choice(((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (3, 8)))
        s, r = rq(rng), rq(rng)
        c = r**a / s**b
        g0 = padd(mono(2, (0, a)), mono(2, (b, 0), -c))
        p = rpoint(rng, 2)
        curve = [{(a,): s, (0,): p[0]}, {(b,): r, (0,): p[1]}]
        ts = tuple(rng.sample(SQUARE_T + NONSQUARE_T, 3))
        return Case(f"cusp-{k}", family, 2, translate(g0, p), p, "Stable-evidence", 8,
                    {"curve": curve, "t": ts, "squares": ()})
    n = 4 if family in ("symbolic4", "root8x4") else 3
    order = 12 if family == "root12" else 8
    # z_n^2 - z1 * z2^2 * u with u(z1, 0, ...) = 1, so U(0) = 4t at (t, 0, ...)
    if n == 3:
        h = padd(const(3, rq(rng)), rpoly(rng, 3, 2, 1, 1, {1, 2}))
        u = padd(const(3, 1), pmul(mono(3, (0, 1, 0)), h))
    else:
        u = padd(const(4, 1), mono(4, (0, 1, 1, 0), rq(rng)))
    g0 = padd(mono(n, (0,) * (n - 1) + (2,)), pscale(pmul(mono(n, (1, 2) + (0,) * (n - 2)), u), -1))
    p = rpoint(rng, n)
    curve = [{(1,): F(1), (0,): p[0]}] + [{(0,): p[i]} for i in range(1, n)]
    if family.startswith("symbolic"):
        ts = tuple(rng.sample(NONSQUARE_T, 3))
        squares = ()
    else:
        sq = rng.choice(SQUARE_T)
        ts = [sq] + rng.sample(NONSQUARE_T, 2)
        rng.shuffle(ts)
        ts, squares = tuple(ts), (sq,)
    return Case(f"{family}-{k}", family, n, translate(g0, p), p, "Unstable", order,
                {"curve": curve, "t": ts, "squares": squares})


# -- eliminate ----------------------------------------------------------------------

# (operation, n, Sylvester size, count).  Below p50 (7, < 6 ms): sizes 3-5,
# the cofactor path, the 3-variable pairs and the coprime_at pairs.  The
# size-6 resultants (12, ~7 ms) span 27%-73% of the corpus, so p50 sits in
# their middle.  Above (7): size 9 (~45 ms), holding p90, and one size-11
# discriminant (~110 ms).
ELIMINATE_MIX = [
    ("resultant", 2, 3, 1), ("discriminant", 2, 3, 1), ("resultant", 3, 4, 1),
    ("coprime", 3, 4, 2), ("coprime", 2, 5, 2),
    ("resultant", 2, 6, 12),
    ("discriminant", 2, 9, 3), ("resultant", 2, 9, 3),
    ("discriminant", 2, 11, 1),
]


def eliminate_corpus(seed):
    rng = random.Random(f"eliminate:{seed}")
    cases = []
    for op, n, size, count in ELIMINATE_MIX:
        for k in range(count):
            cases.append(_elim_case(rng, op, n, size, k))
    return cases


def _with_lead(rng, n, j, d):
    """c * z_j^d plus, for each k < d, z_j^k times x^(d-k) and x^(d-1-k) for
    each base variable x: a fixed support with small integer coefficients, so
    the cost of eliminating z_j depends on the seed only through them."""
    out = {_e(n, *([j] * d)): F(rng.choice(SMALL_INTS))}
    for k in range(d):
        for m in (d - k, d - 1 - k):
            for x in range(1, n):
                out[_e(n, *([j] * k + [x] * m))] = F(rng.choice(SMALL_INTS))
    return out


SMALL_INTS = (1, -1, 2, -2, 3, -3)


def _elim_case(rng, op, n, size, k):
    j = n
    checkpoints = [rpoint(rng, n), tuple(rq(rng) for _ in range(n))]
    if op == "discriminant":
        d = (size + 1) // 2
        f = _with_lead(rng, n, j, d)
        return Case(f"disc{n}-{size}-{k}", op, n, f, (), "", 0,
                    {"j": j, "size": size, "points": checkpoints})
    d1 = (size + 1) // 2
    d2 = size - d1
    if op == "resultant":
        f = _with_lead(rng, n, j, d1)
        g = _with_lead(rng, n, j, d2)
        return Case(f"res{n}-{size}-{k}", op, n, f, (), "", 0,
                    {"g": g, "j": j, "size": size, "points": checkpoints})
    # coprime: a planted common factor vanishing at p, or a pair with nonzero resultant
    p = rpoint(rng, n)
    if k % 2 == 0:
        lin = padd(var(n, j), rpoly(rng, n, 1, 1, 1, set(range(1, n))))
        common = padd(lin, const(n, -peval(lin, p)))
        a = _with_lead(rng, n, j, d1 - 1)
        b = _with_lead(rng, n, j, d2 - 1) if d2 > 1 else const(n, rq(rng))
        g, h, truth = pmul(common, a), pmul(common, b), "not coprime"
    else:
        while True:
            g = _with_lead(rng, n, j, d1)
            h = _with_lead(rng, n, j, d2)
            if _reference_resultant(g, h, j, checkpoints[1]):
                break
        truth = "coprime"
    return Case(f"coprime{n}-{size}-{k}", op, n, g, p, truth, 0,
                {"g": h, "j": j, "size": size, "points": checkpoints})


# -- cli ------------------------------------------------------------------------------

CLI_COMMANDS = ("analyze", "scan", "prepare", "resultant", "discriminant", "coprime", "demo")


def cli_corpus(seed):
    """One case per subcommand; each runs once as text and once with --json."""
    rng = random.Random(f"cli:{seed}")
    odd = _scan_case(rng, "symbolic3", 0)  # z3^2 - z1*z2^2*u, moved to a point
    cases = [
        Case("analyze", "analyze", 3, odd.f, odd.point, "irreducible", 8),
        Case("scan", "scan", 3, odd.f, odd.point, "Unstable", 8, odd.extra),
    ]
    g0, _, _ = _odd_germ(rng, 3, 1)
    p = rpoint(rng, 3)
    cases.append(Case("prepare", "prepare", 3, translate(g0, p), p, "", 8))
    for name in ("resultant", "discriminant", "coprime"):
        c = _elim_case(rng, name, 2, 5, 0)
        cases.append(Case(name, name, 2, c.f, c.point, c.truth, 8, c.extra))
    cases.append(Case("demo", "demo", 3, {}, (), "Unstable", 8))
    return cases


def poly_text(p):
    """Expression-grammar text of a dict polynomial (coefficients parenthesised)."""
    if not p:
        return "0"
    parts = []
    for m, c in sorted(p.items()):
        factors = [f"({c})"] + [f"z{i + 1}^{e}" for i, e in enumerate(m) if e]
        parts.append("*".join(factors))
    return " + ".join(parts)


def point_text(p):
    return ",".join(str(x) for x in p)


def _reference_resultant(g, h, j, y):
    n = len(y)
    base = tuple(F(0) if i == j - 1 else y[i] for i in range(n))
    e_j = tuple(int(i == j - 1) for i in range(n))
    return euclid_resultant(restrict_to_line(g, base, e_j), restrict_to_line(h, base, e_j))


# -- generator self-test ----------------------------------------------------------------


def label_problems(case):
    """Truth labels against properties any germ with that label must have."""
    from checks import pderiv

    value = peval(case.f, case.point)
    grad = [peval(pderiv(case.f, i), case.point) for i in range(1, case.n + 1)]
    if case.truth == "unit":
        return [] if value else [f"{case.name}: labelled unit but f(p) = 0"]
    if value:
        return [f"{case.name}: labelled {case.truth} but f(p) != 0"]
    if (case.truth == "smooth") != any(grad):
        return [f"{case.name}: labelled {case.truth} but the gradient disagrees"]
    return []


def self_test_generators():
    failures = []
    for seed in (0, 1):
        for case in classify_corpus(seed):
            failures += label_problems(case)
    case = classify_corpus(0)[0]
    case.truth = "smooth"  # a unit relabelled: must be rejected
    if not label_problems(case):
        failures.append("label_problems accepted a unit labelled smooth")
    return failures


if __name__ == "__main__":
    # print one corpus: python3 bench/corpus.py <workload> <seed>
    import sys

    workload, seed = sys.argv[1], int(sys.argv[2])
    make = {"classify": classify_corpus, "scan": scan_corpus,
            "eliminate": eliminate_corpus, "cli": cli_corpus}[workload]
    for case in make(seed):
        print(case.name, case.truth or "-", point_text(case.point) or "-", case.order,
              poly_text(case.f), {k: v for k, v in case.extra.items() if k != "curve"}, sep="  ")
