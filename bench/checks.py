"""Independent reference arithmetic and output checkers for the benchmark.

Nothing here calls germkit's algebra: polynomials are plain dicts
{exponent tuple: Fraction}, univariate polynomials are ascending coefficient
lists, and every check recomputes its claim from the input polynomial and
point alone.  Program results enter only through `status_view`, which
copies a GermStatus into plain data, so the checkers (and their self-tests
in `self_test`) also run on hand-made answers.

Checks, each returning a list of problems (empty when the answer holds):

  check_status     verdict against the truth known by construction, the
                   certificate's data, and the factors: each factor vanishes
                   at the origin, the factors multiply back to a monic
                   Weierstrass polynomial of the right degree, and the root of
                   every linear factor annihilates the germ through order N
                   (which is f = unit * product mod order N, by Weierstrass
                   division);
  check_root       root^2 == D mod order N for MonomialUnitSquare roots, with
                   D recomputed from the shifted germ;
  check_resultant  resultant and discriminant specialised at seeded rational
                   points against a univariate Euclid resultant over Q.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)

# -- multivariate dict polynomials --------------------------------------------


def const(n, c):
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(n, i, c=1):
    """c * z_i (1-based)."""
    e = [0] * n
    e[i - 1] = 1
    return {tuple(e): Fraction(c)}


def padd(*polys):
    out = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def pscale(p, c):
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def pmul(a, b, order=None):
    """Product, dropping terms of total degree above `order` when given."""
    out = {}
    for ma, ca in a.items():
        da = sum(ma)
        for mb, cb in b.items():
            if order is not None and da + sum(mb) > order:
                continue
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, ZERO) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def ppow(p, k, n, order=None):
    out = const(n, 1)
    for _ in range(k):
        out = pmul(out, p, order)
    return out


def ptrunc(p, order):
    return {m: c for m, c in p.items() if sum(m) <= order}


def peval(p, pt):
    total = ZERO
    for m, c in p.items():
        t = c
        for e, x in zip(m, pt):
            if e:
                t *= Fraction(x) ** e
        total += t
    return total


def pderiv(p, i):
    out = {}
    for m, c in p.items():
        if m[i - 1]:
            lowered = m[: i - 1] + (m[i - 1] - 1,) + m[i:]
            out[lowered] = c * m[i - 1]
    return out


def compose(f, forms, n_out, order=None):
    """f(forms[0], ..., forms[n-1]); each form is a dict poly in n_out variables."""
    powers = [{0: const(n_out, 1)} for _ in forms]
    out = {}
    for m, c in f.items():
        term = const(n_out, c)
        for i, e in enumerate(m):
            if e:
                cache = powers[i]
                if e not in cache:
                    cache[e] = ppow(forms[i], e, n_out, order)
                term = pmul(term, cache[e], order)
        out = padd(out, term)
    return out


def translate(g, p):
    """f(z) = g(z - p): moves a germ given at the origin to the point p."""
    n = len(p)
    return compose(g, [padd(var(n, i + 1), const(n, -p[i])) for i in range(n)], n)


def localize(f, p, j, change=None, order=None):
    """f(p + z + change * z_j): the shifted, sheared germ the program works on."""
    n = len(p)
    forms = []
    for i in range(1, n + 1):
        form = padd(var(n, i), const(n, p[i - 1]))
        if change is not None and i != j and change[i - 1]:
            form = padd(form, var(n, j, change[i - 1]))
        forms.append(form)
    return compose(f, forms, n, order)


def coeffs_in(p, j):
    """{k: coefficient of z_j^k} with the z_j exponent zeroed."""
    rows = {}
    for m, c in p.items():
        rows.setdefault(m[j - 1], {})[m[: j - 1] + (0,) + m[j:]] = c
    return rows


# -- univariate lists -----------------------------------------------------------


def ustrip(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def umul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                out[i + k] += x * y
    return ustrip(out)


def umod(a, b):
    a = ustrip(a)
    inv = 1 / b[-1]
    while len(a) >= len(b):
        q = a[-1] * inv
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] -= q * y
        a = ustrip(a)
    return a


def euclid_resultant(a, b):
    """Res(a, b) over Q by the Euclidean algorithm (a, b ascending lists)."""
    a, b = ustrip(a), ustrip(b)
    if not a or not b:
        return ZERO
    m, n = len(a) - 1, len(b) - 1
    if n == 0:
        return b[0] ** m
    if m == 0:
        return a[0] ** n
    r = umod(a, b)
    if not r:
        return ZERO
    sign = -1 if (m * n) % 2 else 1
    return sign * b[-1] ** (m - (len(r) - 1)) * euclid_resultant(b, r)


def restrict_to_line(f, base, direction):
    """Univariate list of t -> f(base + t * direction)."""
    out = []
    for m, c in f.items():
        term = [c]
        for e, x, d in zip(m, base, direction):
            for _ in range(e):
                term = umul(term, [Fraction(x), Fraction(d)])
        out = _uadd(out, term)
    return ustrip(out)


def _uadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def reference_discriminant(u):
    """(-1)^(d(d-1)/2) Res(u, u') / lc(u), the program's normalisation."""
    d = len(u) - 1
    du = [k * c for k, c in enumerate(u)][1:]
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * euclid_resultant(u, du) / u[-1]


# -- program boundary -------------------------------------------------------------


def poly_dict(p):
    """Plain dict of a germkit Polynomial (or TruncatedSeries body)."""
    return {tuple(m): Fraction(c) for m, c in p.terms()}


def status_view(status):
    """Copy a GermStatus into plain data: the only place checks touch results."""
    cert = status.certificate
    view = {
        "kind": status.kind,
        "change": None if status.applied_change is None else tuple(status.applied_change),
        "factors": None,
        "value": None,
        "gradient": None,
        "root": None,
        "half": None,
        "unit_root": None,
    }
    if status.factors is not None:
        view["factors"] = [poly_dict(s.body) for s in status.factors]
    if cert is not None:
        if cert.kind == "NonzeroValue":
            view["value"] = cert.value
        elif cert.kind == "SmoothPoint":
            view["gradient"] = tuple(cert.gradient)
        elif cert.kind == "MonomialUnitSquare" and cert.root is not None:
            view["root"] = poly_dict(cert.root.body)
            view["half"] = tuple(cert.half_exponents)
            view["unit_root"] = poly_dict(cert.unit_root.body)
    return view


# -- checks ---------------------------------------------------------------------

KIND_OF_TRUTH = {
    "unit": "Unit",
    "smooth": "SmoothIrreducible",
    "irreducible": "SingularIrreducible",
    "reducible": "SingularReducible",
}


def check_status(f, p, j, order, truth, view, symbolic=None):
    """Problems with one analysis of the germ of f at p (distinguished var j).

    `symbolic` is True when the known discriminant has no rational square
    root (no factors may come back), False when it has one (factors must).
    """
    problems = []
    want = KIND_OF_TRUTH[truth]
    if view["kind"] != want:
        return [f"verdict {view['kind']}, truth {want}"]
    if truth == "unit":
        value = peval(f, p)
        if view["value"] != value or value == 0:
            problems.append(f"NonzeroValue {view['value']} but f(p) = {value}")
        return problems
    if truth == "smooth":
        grad = tuple(peval(pderiv(f, i), p) for i in range(1, len(p) + 1))
        if view["gradient"] != grad or not any(grad):
            problems.append(f"gradient {view['gradient']} but recomputed {grad}")
        return problems
    if truth == "reducible" and symbolic is not None:
        if symbolic != (view["factors"] is None):
            problems.append("factors present/absent against the known square class")
    if view["factors"] is not None or view["root"] is not None:
        local = localize(f, p, j, view["change"])
        if view["factors"] is not None:
            problems += check_factors(local, j, order, view["factors"])
        if view["root"] is not None:
            problems += check_root(local, j, order, view)
    return problems


def check_factors(local, j, order, factors):
    """Factors of the localized germ: vanish at 0, multiply back, annihilate."""
    problems = []
    n = len(next(iter(local)))
    origin = (0,) * n
    for k, fac in enumerate(factors):
        if fac.get(origin, ZERO) != 0:
            problems.append(f"factor {k} does not vanish at the origin")
    product = const(n, 1)
    for fac in factors:
        product = pmul(product, fac, order)
    rows = coeffs_in(product, j)
    d = max(rows, default=0)
    if d < 1 or rows[d] != const(n, 1):
        problems.append("product of factors is not monic in the distinguished variable")
    elif any(row.get(origin, ZERO) for k, row in rows.items() if k < d):
        problems.append("product of factors is not a Weierstrass polynomial")
    if d != sum(max(coeffs_in(fac, j), default=0) for fac in factors):
        problems.append("factor degrees do not add up to the product's degree")
    for k, fac in enumerate(factors):
        frows = coeffs_in(fac, j)
        if max(frows, default=0) != 1 or frows[1] != const(n, 1):
            continue
        # fac = z_j - alpha; f(z', alpha) must vanish through the order
        alpha = pscale(frows.get(0, {}), -1)
        forms = [var(n, i) for i in range(1, n + 1)]
        forms[j - 1] = alpha
        residue = ptrunc(compose(local, forms, n, order), order)
        if residue:
            problems.append(f"factor {k}: germ does not vanish on its root through order {order}")
    return problems


def check_root(local, j, order, view):
    """root^2 == D mod order, D = e1^2 - 4 e2 of the monic quadratic germ."""
    rows = coeffs_in(local, j)
    n = len(view["half"]) + 1
    origin = (0,) * n
    is_weierstrass = (
        max(rows) == 2
        and rows[2] == const(n, 1)
        and all(rows.get(k, {}).get(origin, ZERO) == 0 for k in (0, 1))
    )
    if not is_weierstrass:
        return []  # D is then known only through the factors, checked above
    e1, e2 = _drop(rows.get(1, {}), j), _drop(rows.get(0, {}), j)
    D = ptrunc(padd(pmul(e1, e1), pscale(e2, -4)), order)
    root = view["root"]
    problems = []
    if ptrunc(pmul(root, root, order), order) != D:
        problems.append("root^2 != D through the order")
    mono = {tuple(view["half"]): Fraction(1)}
    if ptrunc(pmul(mono, view["unit_root"], order), order) != root:
        problems.append("root != x^half * unit_root")
    if not view["unit_root"].get(origin[1:]):
        problems.append("unit_root is not a unit")
    return problems


def _drop(p, j):
    return {m[: j - 1] + m[j:]: c for m, c in p.items()}


def check_resultant(R, f, g, j, points, drop=False):
    """R(y) == Euclid Res(f|y, g|y) at each point y (z_j eliminated).

    f and g must keep their z_j degree at every point (the corpus makes
    their leading coefficients in z_j nonzero constants).  With drop=True R
    lives in the base variables only (coprime_at's convention).
    """
    problems = []
    n = len(points[0])
    e_j = tuple(1 if i == j - 1 else 0 for i in range(n))
    for y in points:
        base = tuple(ZERO if i == j - 1 else y[i] for i in range(n))
        want = euclid_resultant(restrict_to_line(f, base, e_j), restrict_to_line(g, base, e_j))
        at = base[: j - 1] + base[j:] if drop else base
        got = peval(R, at)
        if got != want:
            problems.append(f"resultant at {at} is {got}, Euclid reference {want}")
    if not drop and any(m[j - 1] for m in R):
        problems.append(f"resultant still contains z{j}")
    return problems


def check_discriminant(D, f, j, points):
    problems = []
    n = len(points[0])
    e_j = tuple(1 if i == j - 1 else 0 for i in range(n))
    for y in points:
        base = tuple(ZERO if i == j - 1 else y[i] for i in range(n))
        want = reference_discriminant(restrict_to_line(f, base, e_j))
        got = peval(D, base)
        if got != want:
            problems.append(f"discriminant at {base} is {got}, reference {want}")
    return problems


# -- self-tests -------------------------------------------------------------------


def self_test():
    """Each checker must accept a right answer and reject a wrong one."""
    F = Fraction
    failures = []

    def expect(name, problems, ok):
        if bool(problems) == ok:
            failures.append(f"{name}: {'rejected a right' if ok else 'accepted a wrong'} answer")

    # Euclid resultant: Res(z^2 - 1, z - 2) = (2 - 1)(2 + 1) = 3, up to sign convention
    if euclid_resultant([F(-1), F(0), F(1)], [F(-2), F(1)]) != 3:
        failures.append("euclid_resultant: Res(z^2-1, z-2) != 3")
    # Res_z2(z2^2 - z1^3, 2*z2) = 2^2 * (0 - z1^3) = -4*z1^3
    f = {(0, 2): F(1), (3, 0): F(-1)}
    g = {(0, 1): F(2)}
    R = {(3, 0): F(-4)}
    pts = [(F(2), F(0)), (F(-1, 3), F(0))]
    expect("check_resultant", check_resultant(R, f, g, 2, pts), True)
    expect("check_resultant", check_resultant(padd(R, const(2, 1)), f, g, 2, pts), False)
    # discriminant of z2^2 - z1^3 in z2 is 4*z1^3
    expect("check_discriminant", check_discriminant({(3, 0): F(4)}, f, 2, pts), True)
    expect("check_discriminant", check_discriminant({(3, 0): F(4), (0, 0): F(1)}, f, 2, pts), False)

    # z3^2 - z1*z2^2 is irreducible at the origin: a flipped verdict is rejected
    cusp = {(0, 0, 2): F(1), (1, 2, 0): F(-1)}
    origin = (F(0),) * 3
    right = {"kind": "SingularIrreducible", "change": None, "factors": None, "root": None}
    expect("check_status", check_status(cusp, origin, 3, 8, "irreducible", right), True)
    expect("check_status", check_status(cusp, origin, 3, 8, "irreducible",
                                        dict(right, kind="SingularReducible")), False)

    # at (1, 0, 0): factors z3 -+ z2*sqrt(1 + z1); the certificate's root
    # 2*z2*sqrt(1 + z1) lives in the base variables z1, z2
    N = 6
    p = (F(1), F(0), F(0))
    r = pmul({(0, 1, 0): F(1)}, _sqrt_one_plus(3, N), N)
    lo = padd({(0, 0, 1): F(1)}, pscale(r, -1))
    hi = padd({(0, 0, 1): F(1)}, r)
    unit_root = pscale(_sqrt_one_plus(2, N), 2)
    view = {"kind": "SingularReducible", "change": None, "factors": [lo, hi], "root": pmul({(0, 1): F(1)}, unit_root, N),
            "half": (0, 1), "unit_root": unit_root}
    expect("check_factors", check_status(cusp, p, 3, N, "reducible", view), True)
    bad = padd(lo, {(1, 1, 0): F(1, 7)})
    expect("check_factors", check_status(cusp, p, 3, N, "reducible",
                                         dict(view, factors=[bad, hi], root=None)), False)
    bad_root = padd(view["root"], {(2, 1): F(1, 5)})
    expect("check_root", check_status(cusp, p, 3, N, "reducible",
                                      dict(view, root=bad_root, factors=None)), False)

    # known-truth generators: labels must match the construction
    from corpus import self_test_generators

    return failures + self_test_generators()


def _sqrt_one_plus(n, N):
    """sqrt(1 + z1) in n variables through degree N (binomial series)."""
    out, c = {}, Fraction(1)
    for k in range(N + 1):
        out[(k,) + (0,) * (n - 1)] = c
        c = c * (Fraction(1, 2) - k) / (k + 1)
    return out
