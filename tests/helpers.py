"""Shared random generators for the property suites.

Every test seeds its own random.Random so failures reproduce exactly.
"""

from fractions import Fraction

from germkit.algebra import Polynomial


def random_fraction(rng, lo=-9, hi=9, max_den=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_point(rng, n, lo=-4, hi=4, max_den=4):
    return tuple(random_fraction(rng, lo, hi, max_den) for _ in range(n))


def random_monomial(rng, n, max_degree):
    while True:
        mono = tuple(rng.randint(0, max_degree) for _ in range(n))
        if sum(mono) <= max_degree:
            return mono


def random_poly(rng, n, max_degree, max_terms, nonzero=False):
    while True:
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            terms[random_monomial(rng, n, max_degree)] = random_fraction(rng)
        p = Polynomial(n, terms)
        if not nonzero or not p.is_zero():
            return p


# pairwise coprime: a Mersenne prime and powers of 3, 5 and 7
BIG_DENOMINATORS = (2**61 - 1, 3**40, 5**27, 7**20)


def big_denominator_poly(rng, n, max_degree, max_terms):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        den = 1
        for big in rng.sample(BIG_DENOMINATORS, rng.randint(1, 2)):
            den *= big
        terms[random_monomial(rng, n, max_degree)] = Fraction(
            rng.randint(-(10**20), 10**20), den
        )
    return Polynomial(n, terms)
