"""Field-kernel timings on fixed operands, taken with tracing off.

Each kernel is called in batches until a batch takes about 20 ms, and the
median per-call time of seven batches is reported in microseconds.  The
operands come from a fixed-seed generator, so every run and every commit
times the same arithmetic.
"""

from __future__ import annotations

import random
import statistics
import time

import wittlab

REPEATS = 7
BATCH_S = 0.02


def _per_call_us(fn):
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= BATCH_S / 4 or number >= 1 << 20:
            break
        number *= 4
    number = max(1, round(number * BATCH_S / max(time.perf_counter() - t0, 1e-9)))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times) * 1e6


def _random_laurent(F, rng, slots, v0=0):
    """Random residue coefficients in `slots` consecutive exponents, the
    first nonzero so the valuation is v0."""
    k = F.residue_field
    return F.make([(v0, k.one)] + [(v0 + i, k.elem(rng.randrange(k.order)))
                                   for i in range(1, slots)])


def kernel_metrics():
    rng = random.Random("wittlab-bench:kernels")
    F2 = wittlab.field_shorthand("f2-laurent")
    F256 = wittlab.field_shorthand("f2m-laurent:m=8")
    a2, b2 = _random_laurent(F2, rng, 64), _random_laurent(F2, rng, 64, -5)
    a8, b8 = _random_laurent(F256, rng, 64), _random_laurent(F256, rng, 64, -5)
    unit = _random_laurent(F2, rng, 20)

    Q2 = wittlab.field_shorthand("q2")
    x = Q2.make(rng.getrandbits(60) | 1, 1, Q2.precision)
    y = Q2.make(rng.getrandbits(60) | 1, -2, Q2.precision)

    k = wittlab.field_shorthand("f2x-laurent").residue_field
    def ratfunc():
        num = [rng.randrange(2) for _ in range(8)] + [1]
        den = [1] + [rng.randrange(2) for _ in range(7)] + [1]
        return k.make(tuple(num), tuple(den))
    r, s = ratfunc(), ratfunc()

    return {
        "fields.laurent.mul64_gf2_us": _per_call_us(lambda: a2 * b2),
        "fields.laurent.mul64_gf256_us": _per_call_us(lambda: a8 * b8),
        "fields.laurent.inv20_gf2_us": _per_call_us(unit.inv),
        "fields.laurent.add64_gf2_us": _per_call_us(lambda: a2 + b2),
        "fields.dyadic.mul_us": _per_call_us(lambda: x * y),
        "fields.dyadic.add_us": _per_call_us(lambda: x + y),
        "fields.ratfunc.mul_deg8_us": _per_call_us(lambda: r * s),
        "fields.ratfunc.add_deg8_us": _per_call_us(lambda: r + s),
    }
