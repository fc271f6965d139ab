"""Golden digests of exact outputs.

One sha256 per (seed, operation) over the s-expression text of the result, for
the ``helpers.random_expr`` pair ``a, b`` drawn from ``random.Random(seed)``,
seeds 0-49; plus the Lax compatibility residuals of both ansaetze and every
``verify --suite all`` entry without its ``elapsed`` time.  A refactor of the
symbolic layer must leave every digest unchanged, and a mismatch names the
seed and the operation.

``golden_exact.json`` was generated at commit 1de9d98.  Regenerate it only
when an exact output is meant to change::

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden_exact.json
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict
from pathlib import Path

from superhs.calculus import dt, dx, first_variation, superD
from superhs.density import canonical_density, euler_x, euler_xt, partial_jet
from superhs.sexpr import to_sexpr
from superhs.structures import (
    SUITE_NAMES,
    closing_ansatz,
    formal_ansatz,
    lax_compatibility,
    run_suite,
    susy_variation,
)

from helpers import PHI, U, V, XI, random_expr

GOLDEN = Path(__file__).with_name("golden_exact.json")
SEEDS = range(50)
FIELDS = (U, V, XI, PHI)


def _lines(exprs) -> str:
    return "\n".join(to_sexpr(e) for e in exprs)


def _seed_outputs(seed: int):
    rng = random.Random(seed)
    a, b = random_expr(rng), random_expr(rng)
    jets = sorted(a.jet_factors(), key=lambda f: f.sort_key)
    return {
        "+": to_sexpr(a + b),
        "-": to_sexpr(a - b),
        "*": to_sexpr(a * b),
        "dx": to_sexpr(dx(a)),
        "dt": to_sexpr(dt(a)),
        "superD": to_sexpr(superD(a)),
        "partial_jet": _lines(partial_jet(a, jet) for jet in jets),
        "euler_x": _lines(euler_x(a, f, j) for f in FIELDS for j in (0, 1)),
        "euler_xt": _lines(euler_xt(a, f) for f in FIELDS),
        "canonical_density(a)": to_sexpr(canonical_density(a)),
        "canonical_density(b)": to_sexpr(canonical_density(b)),
        "first_variation": to_sexpr(first_variation(a, susy_variation())),
    }


def _texts():
    texts = {}
    for seed in SEEDS:
        for op, text in _seed_outputs(seed).items():
            texts[f"seed {seed}: {op}"] = text
    for name, ansatz in (("closing", closing_ansatz()), ("formal", formal_ansatz())):
        residuals = lax_compatibility(ansatz)
        texts[f"lax_compatibility({name})"] = "\n".join(
            f"{key} {to_sexpr(residuals[key])}" for key in sorted(residuals)
        )
    for entry in run_suite(SUITE_NAMES):
        fields = asdict(entry)
        fields.pop("elapsed")
        texts[f"verify {entry.check_id}"] = json.dumps(fields, sort_keys=True)
    return texts


def _digests(texts):
    return {key: hashlib.sha256(text.encode()).hexdigest() for key, text in texts.items()}


def test_exact_outputs_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    texts = _texts()
    actual = _digests(texts)
    assert sorted(actual) == sorted(expected)
    mismatched = [key for key in expected if actual[key] != expected[key]]
    assert not mismatched, f"exact outputs changed: {mismatched}"
    # a digest of an always-empty output would pin nothing
    ops = {key.split(": ", 1)[1] for key in texts if key.startswith("seed ")}
    for op in ops:
        assert any(texts[f"seed {s}: {op}"].replace("(sum)", "").strip() for s in SEEDS), op


if __name__ == "__main__":
    print(json.dumps(_digests(_texts()), indent=1, sort_keys=True))
