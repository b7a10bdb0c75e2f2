"""An orthogonal sum splits once.

`quadform.symplectic_blocks` keeps the split it makes on the form.  On an
orthogonal sum whose entries are all exact it merges the kept splits of
the two summands (`ortho_sum` records them) instead of running
`split_gram` on the whole polar matrix; on a sum with a truncated entry,
or with a summand that raises, it runs `split_gram` as before.  Either
way the blocks, the basis matrix M and any error (its type and message)
must be those of a fresh form with the same coefficients and no
summands.  The summands are lines <c> (singular in characteristic 2),
diagonal, binary, general and isotropic 2x2 forms over Q_2, F2((t)),
F4((t)) and F2(x)((t)), exact or truncated, some singular, nested up to
three deep; some subtrees are split before the sum, so that kept splits
at every level are read, and subtrees that raise are asked again.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab import arason, quadform
from wittlab.errors import WittlabError
from wittlab.fields import make_field
from wittlab.fields.common import is_exact
from wittlab.quadform import QuadraticForm, symplectic_blocks

FIELDS = {
    "Q_2": make_field("dyadic", precision=32),
    "F2((t))": make_field("laurent", m=1, precision=32),
    "F4((t))": make_field("laurent", m=2, precision=32),
    "F2(x)((t))": make_field("laurent-ratfunc", m=1, precision=32),
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WittlabError as e:
        return type(e), str(e)


def _elem(F, rng, truncate):
    """Zero a tenth of the time, else one or two monomials of valuation
    -2 to 2 with unit coefficients; cut at most four digits above its
    valuation when truncate, which can leave a zero known only to
    precision."""
    if rng.random() < 0.1:
        x = F.zero
    elif F.char == 0:
        x = F.zero
        for _ in range(rng.randrange(1, 3)):
            x = x + F.make(rng.choice((1, 3, 5, 7)), rng.randrange(-2, 3))
    else:
        k = F.residue_field
        unit = (lambda: k.elem(rng.randrange(1, k.order))) if k.is_perfect \
            else (lambda: k.from_poly(rng.choice(([1], [0, 1], [1, 1]))))
        exps = rng.sample(range(-2, 3), rng.randrange(1, 3))
        x = F.make([(e, unit()) for e in exps])
    if truncate and rng.random() < 0.4:
        return x.truncated(rng.randrange(-2, 5))
    return x


def _leaf(F, rng, truncate):
    """A line, a diagonal, binary or general 2x2 form, a plane c x1 x2
    (whose polar diagonal is zero in every characteristic, so that a
    pair can come before another summand's line), or the empty form; in
    characteristic 2 a line or a diagonal form is singular, and is drawn
    less often there."""
    elem = lambda: _elem(F, rng, truncate)
    kind = rng.choices(
        ("line", "diagonal", "binary", "general", "plane", "empty"),
        (2, 2, 3, 3, 2, 1) if F.char == 0 else (1, 1, 8, 8, 2, 1))[0]
    if kind == "plane":
        return QuadraticForm(F, [[F.zero, elem()], [F.zero, F.zero]])
    if kind == "line":
        return QuadraticForm.diagonal(F, [elem()])
    if kind == "diagonal":
        return QuadraticForm.diagonal(F, [elem(), elem()])
    if kind == "binary":
        return QuadraticForm.binary(F, elem(), elem())
    if kind == "general":
        return QuadraticForm(F, [[elem(), elem()], [F.zero, elem()]])
    return QuadraticForm(F, [])


def _tree(F, rng, truncate, depth=3):
    """An orthogonal sum nested up to depth levels; every node is listed
    in nodes, the root last."""
    nodes = []

    def grow(d):
        if d == 0 or rng.random() < 0.25:
            form = _leaf(F, rng, truncate)
        else:
            form = grow(d - 1).ortho_sum(grow(d - 1))
        nodes.append(form)
        return form

    grow(depth)
    # at least one sum, so that the root has summands
    if nodes[-1]._parts is None:
        nodes.append(nodes[-1].ortho_sum(_leaf(F, rng, truncate)))
    return nodes


def _draw(F, seed):
    rng = random.Random(seed)
    nodes = _tree(F, rng, truncate=rng.random() < 0.5)
    for node in nodes[:-1]:
        if rng.random() < 0.3:
            _outcome(symplectic_blocks, node)
    return nodes[-1]


@pytest.mark.parametrize("name", FIELDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_a_sum_splits_as_a_fresh_form(name, seed):
    """Blocks, M and the error of the sum against those of a fresh form
    with the same coefficients, asked twice."""
    F = FIELDS[name]
    q = _draw(F, seed)
    want = _outcome(symplectic_blocks, QuadraticForm(F, q.U))
    assert _outcome(symplectic_blocks, q) == want
    assert _outcome(symplectic_blocks, q) == want


@pytest.mark.parametrize("name", FIELDS)
def test_the_draws_reach_every_case(name):
    """Fixed draws of the generator above: merged exact sums nested three
    deep, truncated sums and sums that raise, all present."""
    F = FIELDS[name]
    merged = truncated = raised = deep = 0
    for seed in range(300):
        q = _draw(F, f"reach {name} {seed}")
        res = _outcome(symplectic_blocks, q)
        if isinstance(res[0], type):
            raised += 1
        elif not is_exact(*q.U):
            truncated += 1
        else:
            merged += 1
            inner = [p for p in q._parts if p._parts is not None]
            deep += any(p._parts is not None for s in inner for p in s._parts)
    assert merged > 40 and truncated > 15 and raised > 40 and deep > 15, \
        (merged, truncated, raised, deep)


def _representative(F, bits):
    """The W_q(Q_2) representative of enumerate_wq_Q2 with these bits."""
    k = F.residue_field
    bit = lambda b: k.one if bits >> b & 1 else k.zero
    return arason.decomposition_form(F, arason.CanonicalDecomposition(
        (k.one,) if bits >> 4 & 1 else (), bit(3), bit(2),
        bits >> 1 & 1, bits & 1))


def _leaves(q):
    return [q] if q._parts is None else [f for p in q._parts
                                         for f in _leaves(p)]


def test_each_summand_is_split_once(monkeypatch):
    """Sums of two W_q(Q_2) representatives: split_gram runs once on each
    summand the representatives are built from, and on nothing else."""
    F = FIELDS["Q_2"]
    reps = [_representative(F, bits) for bits in (31, 22, 13, 8)]
    calls = []
    split_gram = quadform.split_gram

    def counted(G, field):
        calls.append(len(G))
        return split_gram(G, field)

    monkeypatch.setattr(quadform, "split_gram", counted)
    sums = [a.ortho_sum(b) for a in reps for b in reps]
    got = [symplectic_blocks(q) for q in sums]
    leaves = {id(f) for rep in reps for f in _leaves(rep)}
    assert len(calls) == len(leaves) and max(calls) <= 2
    monkeypatch.undo()
    assert got == [symplectic_blocks(QuadraticForm(F, q.U)) for q in sums]


def test_the_kept_split_survives_its_callers():
    """symplectic_blocks hands out new lists: changing them leaves the
    kept split, and so the next answer, as it was."""
    F = FIELDS["Q_2"]
    q = QuadraticForm.binary(F, F.one, F.one).ortho_sum(
        QuadraticForm.diagonal(F, [F.make(3, 0)]))
    blocks, M = symplectic_blocks(q)
    want = (list(blocks), [list(row) for row in M])
    blocks.clear()
    M[0][0] = F.zero
    assert symplectic_blocks(q) == want
