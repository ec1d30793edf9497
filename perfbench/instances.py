"""Seeded benchmark instances and their known answers.

`random_small_measurement`, `random_rescale`, `permute_outcomes` and the
vector pool below are a frozen copy of the criterion-6 generator in
tests/helpers.py.  The copy keeps later changes to that test helper from
silently changing this benchmark's traffic; the only difference is that
`random_small_measurement` also returns the kind it drew, which fixes the
known answer.  Random draws happen in the same order as in the original.
"""

from __future__ import annotations

import collections
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from loccsynth import fixtures
from loccsynth.exact_algebra import HermitianOp, rank_one
from loccsynth.synthesis_engine import NO_LOCC_ANY_ROUNDS, SeparableMeasurement

# Verdict label frontend_cli writes into a report when a protocol exists.
PROTOCOL = "LOCC_PROTOCOL"

# Known answers: criterion 6 shows rescaling and permuting outcomes never
# changes them.
HEADLINE_FIXTURES = (
    ("bennett9", NO_LOCC_ANY_ROUNDS),
    ("product_basis_3x3", PROTOCOL),
    ("example4", PROTOCOL),
    ("example5", PROTOCOL),
)
# Kinds 0-4 admit a protocol by construction; kind 5 can never merge.
SMALL_KIND_ANSWER = {k: PROTOCOL for k in range(5)} | {5: NO_LOCC_ANY_ROUNDS}


@dataclass(frozen=True)
class Instance:
    label: str  # unique within a run, e.g. "7:example4" or "12:kind3"
    group: str  # fixture name or small-measurement kind
    measurement: SeparableMeasurement
    expected: str  # PROTOCOL or a certificate verdict


def headline(seed: int) -> Iterator[Instance]:
    """Endless variants of the headline fixtures, cycling through them in a
    fixed order so that every complete cycle holds one of each."""
    rng = random.Random(f"headline:{seed}")
    bases = [(name, fixtures.BUILTIN[name](), ans) for name, ans in HEADLINE_FIXTURES]
    for i in itertools.count():
        name, base, answer = bases[i % len(bases)]
        m = random_rescale(permute_outcomes(base, rng), rng)
        yield Instance(f"{i}:{name}", name, m, answer)


def small(seed: int, prefetch: int = 0) -> Iterator[Instance]:
    """Endless criterion-6 measurements from the `cli_files` seed stream.

    They are dealt out one of each kind per cycle of six, each kind in the
    order the generator made it, so every complete cycle has the same mix.
    The first `prefetch` measurements are drawn before the first is dealt,
    so making the first few instances costs the same number of draws
    whichever kinds the seed happens to draw."""
    rng = random.Random(f"cli_files:{seed}")
    made = {kind: collections.deque() for kind in SMALL_KIND_ANSWER}

    def draw():
        k, m = random_small_measurement(rng)
        made[k].append(m)

    for _ in range(prefetch):
        draw()
    for i in itertools.count():
        kind = i % len(made)
        while not made[kind]:
            draw()
        yield Instance(f"{i}:kind{kind}", f"kind{kind}", made[kind].popleft(), SMALL_KIND_ANSWER[kind])


# ---- frozen copy of tests/helpers.py (criterion-6 generator) ----

# Integer vectors giving rational projectors (entries v_i v_j / |v|^2).
VECTOR_POOL = [
    (1, 0),
    (0, 1),
    (1, 1),
    (1, -1),
    (3, 4),
    (4, -3),
    (1, 2),
    (2, -1),
    (1, 3),
    (3, -1),
]


def proj(v) -> HermitianOp:
    return rank_one(list(v), Fraction(1, sum(x * x for x in v)))


def perp(v):
    return (-v[1], v[0])


def random_rescale(m: SeparableMeasurement, rng: random.Random) -> SeparableMeasurement:
    outcomes = []
    for a, b in m.outcomes:
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        mu = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        outcomes.append((a.scale(lam), b.scale(mu)))
    return SeparableMeasurement(m.dA, m.dB, tuple(outcomes))


def permute_outcomes(m: SeparableMeasurement, rng: random.Random) -> SeparableMeasurement:
    order = list(range(m.n_outcomes))
    rng.shuffle(order)
    return SeparableMeasurement(m.dA, m.dB, tuple(m.outcomes[i] for i in order))


def random_small_measurement(rng: random.Random) -> tuple[int, SeparableMeasurement]:
    """A valid separable measurement with d = 2 and at most 4 outcomes,
    returned with its kind.

    Kinds 0-4 admit protocols by construction; kind 5 has no proportional
    pair on either side, so nothing can ever merge and no protocol exists."""
    ident = HermitianOp.identity(2)
    kind = rng.randrange(6)
    u = rng.choice(VECTOR_POOL)
    b1 = rng.choice(VECTOR_POOL)
    b2 = rng.choice(VECTOR_POOL)
    if kind == 0:
        outcomes = [
            (proj(u), proj(b1)),
            (proj(u), proj(perp(b1))),
            (proj(perp(u)), proj(b2)),
            (proj(perp(u)), proj(perp(b2))),
        ]
    elif kind == 1:
        outcomes = [
            (proj(u), proj(b1)),
            (proj(perp(u)), proj(b1)),
            (ident, proj(perp(b1))),
        ]
    elif kind == 2:
        outcomes = [
            (proj(b1), proj(u)),
            (proj(b1), proj(perp(u))),
            (proj(perp(b1)), ident),
        ]
    elif kind == 3:
        outcomes = [
            (proj(u), ident),
            (proj(perp(u)), ident),
        ]
    elif kind == 4:
        outcomes = [(ident.scale(Fraction(3, 2)), ident)]
    else:
        # I = [u](x)(I - d1*t*[b]) + [u_perp](x)(I - d2*t*[b])
        #     + (d1[u] + d2[u_perp])(x)t[b], with d1 != d2: no two operators
        # on either side are proportional, so no merge can ever start.
        d1 = Fraction(rng.randint(1, 3), 4)
        d2 = d1
        while d2 == d1:
            d2 = Fraction(rng.randint(1, 4), 4)
        t = Fraction(1, rng.randint(1, 3))
        pu, pu_perp, pb = proj(u), proj(perp(u)), proj(b1)
        mixed = pu.scale(d1).add(pu_perp.scale(d2))
        outcomes = [
            (pu, ident.sub(pb.scale(d1 * t))),
            (pu_perp, ident.sub(pb.scale(d2 * t))),
            (mixed, pb.scale(t)),
        ]
    m = SeparableMeasurement(2, 2, tuple(outcomes))
    return kind, random_rescale(m, rng)
