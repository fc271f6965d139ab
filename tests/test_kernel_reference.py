"""The integer-numerator symbolic kernel against the ``Fraction`` reference of ``helpers``."""
import random
from fractions import Fraction

from superhs.calculus import dx, substitute, superD

from helpers import (
    PHI,
    U,
    V,
    XI,
    random_expr,
    ref_add,
    ref_derive,
    ref_dx_image,
    ref_mul,
    ref_of,
    ref_scale,
    ref_substitute,
    ref_superD_image,
)

SCALARS = (2, -3, Fraction(3, 4), Fraction(-5, 6))


def test_kernel_matches_fraction_reference_randomized():
    rng = random.Random(29)
    # rational rules, so that rewriting changes denominators
    rules = {
        U.jet(dx=1): Fraction(1, 2) * (V() * V(dx=1)) - Fraction(2, 3) * U(),
        XI.jet(dx=1): Fraction(-3, 2) * (PHI() * V()),
    }
    ref_rules = {key: ref_of(rhs) for key, rhs in rules.items()}
    for _ in range(150):
        a, b = random_expr(rng), random_expr(rng)
        ra, rb = ref_of(a), ref_of(b)
        s = rng.choice(SCALARS)
        assert ref_of(a + b) == ref_add(ra, rb)
        assert ref_of(a - b) == ref_add(ra, ref_scale(rb, -1))
        assert ref_of(a * b) == ref_mul(ra, rb)
        assert ref_of(s * a) == ref_of(a * s) == ref_scale(ra, s)
        assert ref_of(dx(a * b)) == ref_derive(ref_mul(ra, rb), ref_dx_image)
        assert ref_of(superD(a)) == ref_derive(ra, ref_superD_image, graded=True)
        assert ref_of(substitute(a, rules)) == ref_substitute(ra, ref_rules)
