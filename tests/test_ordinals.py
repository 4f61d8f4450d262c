import random
import time
import sys

import hypothesis as hyp
import pytest
from hypothesis import strategies as st

from conftest import random_ordinal
from ionkit.ordinals import (
    DEPTH_LIMIT,
    HYDRA_NODE_LIMIT,
    NESTING_LIMIT,
    OMEGA,
    ONE,
    ZERO,
    Comparison,
    DeadHydraError,
    HydraTree,
    Kind,
    MaxLenExceededError,
    NotALimitError,
    Ordinal,
    OrdinalOverflowError,
    OrdinalParseError,
    add,
    classify,
    compare,
    depth,
    descent_walk,
    format_ordinal,
    from_int,
    fundamental_sequence,
    hydra_step,
    hydra_to_ordinal,
    hydra_trajectory,
    mul,
    natural_sum,
    omega_pow,
    parse_hydra,
    parse_ordinal,
    predecessor,
)

W = OMEGA


def o(text: str) -> Ordinal:
    return parse_ordinal(text)


# ---------------------------------------------------------------------------
# construction and comparison
# ---------------------------------------------------------------------------

def test_cnf_invariants_enforced():
    for terms, error in [
        (((ZERO, 0),), ValueError),  # coefficient must be >= 1
        (((ZERO, True),), ValueError),  # a bool is not a coefficient
        (((ZERO, 1.0),), ValueError),  # nor a float equal to one, which hashes like ONE's key
        (((ONE, 2.5),), ValueError),
        (((0, 1),), TypeError),  # exponent must be an Ordinal
        (((ZERO, 1), (ONE, 1)), ValueError),  # exponents must strictly decrease
        (((ONE, 1), (ONE, 1)), ValueError),
    ]:
        with pytest.raises(error):
            Ordinal(terms)


def test_terms_are_stored_as_tuples():
    listed = Ordinal([[ONE, 1]])
    assert listed is OMEGA
    assert type(listed.terms[0]) is tuple


def test_compare_goldens():
    assert compare(W, from_int(5)) is Comparison.GREATER
    assert compare(o("w+1"), W) is Comparison.GREATER
    assert compare(o("w^2"), o("w*3+7")) is Comparison.GREATER
    assert compare(o("w^2"), o("w^2")) is Comparison.EQUAL
    assert compare(ZERO, ONE) is Comparison.LESS


def test_rich_comparisons_match_compare():
    assert W > from_int(100)
    assert o("w^w") >= o("w^5*9+w")
    assert o("w*2") < o("w*2+1")
    assert sorted([o("w^2"), ZERO, o("w+3"), ONE]) == [ZERO, ONE, o("w+3"), o("w^2")]


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_add_goldens():
    assert add(ONE, W) == W  # left absorption
    assert add(W, ONE) == o("w+1")
    assert add(o("w+3"), o("w^2+w")) == o("w^2+w")
    assert add(o("w*2"), o("w*3")) == o("w*5")


def test_mul_goldens():
    assert mul(W, from_int(2)) == o("w*2")
    assert mul(from_int(2), W) == W
    assert mul(o("w+1"), from_int(3)) == o("w*3+1")
    assert mul(o("w+1"), W) == o("w^2")
    assert mul(o("w^2+1"), o("w+1")) == o("w^3+w^2+1")


def test_omega_pow_goldens():
    assert omega_pow(ZERO) == ONE
    assert omega_pow(ONE) == W
    assert omega_pow(omega_pow(ONE)) == o("w^w")
    assert omega_pow(o("w+1")) == o("w^(w+1)")


def test_omega_pow_depth_limit():
    a = ONE
    with pytest.raises(OrdinalOverflowError):
        for _ in range(70):
            a = omega_pow(a)


def test_natural_sum_commutes_where_add_does_not():
    assert natural_sum(ONE, W) == o("w+1")
    assert add(ONE, W) == W
    assert natural_sum(o("w^2+3"), o("w*4")) == o("w^2+w*4+3")


ordinal_exprs = st.recursive(
    st.integers(0, 5).map(from_int),
    lambda c: st.one_of(
        st.builds(add, c, c),
        st.builds(mul, c, st.integers(1, 4).map(from_int)),
        st.builds(lambda a: omega_pow(a) if depth(a) < 6 else a, c),
    ),
    max_leaves=8,
)


@hyp.given(ordinal_exprs, ordinal_exprs, ordinal_exprs)
def test_order_is_total_and_transitive(a, b, c):
    assert (compare(a, b) is Comparison.EQUAL) == (a == b)
    assert compare(a, b).value in ("Less", "Equal", "Greater")
    if a <= b and b <= c:
        assert a <= c


@hyp.given(ordinal_exprs, ordinal_exprs)
def test_add_identities(a, b):
    assert add(a, ZERO) == a
    assert add(ZERO, a) == a
    assert mul(a, ONE) == a
    assert add(a, b) >= a


@hyp.given(ordinal_exprs, ordinal_exprs, ordinal_exprs)
def test_mul_left_distributes(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@hyp.given(ordinal_exprs, ordinal_exprs)
def test_natural_sum_commutative_and_dominates(a, b):
    assert natural_sum(a, b) == natural_sum(b, a)
    assert natural_sum(a, b) >= add(a, b) >= a


# ---------------------------------------------------------------------------
# classification and fundamental sequences
# ---------------------------------------------------------------------------

def test_classify_goldens():
    assert classify(ZERO) is Kind.ZERO
    assert classify(o("w+1")) is Kind.SUCCESSOR
    assert predecessor(o("w+1")) == W
    assert classify(o("w^2")) is Kind.LIMIT
    assert classify(from_int(3)) is Kind.SUCCESSOR


def test_fundamental_sequence_goldens():
    assert fundamental_sequence(W, 3) == from_int(3)
    assert fundamental_sequence(o("w^2"), 2) == o("w*2")
    assert fundamental_sequence(o("w^w"), 3) == o("w^3")
    assert fundamental_sequence(o("w*2"), 1) == o("w+1")
    assert fundamental_sequence(o("w^(w+1)"), 2) == o("w^w*2")
    assert fundamental_sequence(o("w^w*3"), 4) == o("w^w*2+w^4")


def test_fundamental_sequence_rejects_non_limits():
    with pytest.raises(NotALimitError):
        fundamental_sequence(ZERO, 1)
    with pytest.raises(NotALimitError):
        fundamental_sequence(o("w+1"), 1)


def _reference_fundamental_sequence(lam: Ordinal, n: int) -> Ordinal:
    """The earlier ``fundamental_sequence``, built by ordinal arithmetic, kept as the reference."""
    exp, coeff = lam.terms[-1]
    rest = Ordinal(lam.terms[:-1] + (((exp, coeff - 1),) if coeff > 1 else ()))
    if classify(exp) is Kind.SUCCESSOR:
        step = mul(omega_pow(predecessor(exp)), from_int(n))
    else:
        step = omega_pow(_reference_fundamental_sequence(exp, n))
    return add(rest, step)


@hyp.given(ordinal_exprs, st.integers(0, 30))
def test_fs_matches_reference(a, n):
    hyp.assume(classify(a) is Kind.LIMIT)
    assert fundamental_sequence(a, n) == _reference_fundamental_sequence(a, n)


def test_fs_matches_reference_on_corpus(corpus200):
    limits = [a for a in corpus200 if classify(a) is Kind.LIMIT]
    assert len(limits) > 100
    for a in limits:
        for n in range(6):
            assert fundamental_sequence(a, n) == _reference_fundamental_sequence(a, n), (a, n)


@hyp.given(ordinal_exprs, st.integers(0, 30))
def test_fs_below_and_increasing(a, n):
    hyp.assume(classify(a) is Kind.LIMIT)
    assert fundamental_sequence(a, n) < a
    assert fundamental_sequence(a, n) < fundamental_sequence(a, n + 1)


@hyp.given(ordinal_exprs, ordinal_exprs)
def test_fs_reaches_any_smaller_ordinal(lam, b):
    hyp.assume(classify(lam) is Kind.LIMIT)
    hyp.assume(b < lam)
    n = 0
    while n <= 10**4:
        if fundamental_sequence(lam, n) >= b:
            return
        n += 1
    raise AssertionError(f"{format_ordinal(lam)} never caught {format_ordinal(b)}")


# ---------------------------------------------------------------------------
# descent walks
# ---------------------------------------------------------------------------

def test_descent_walk_goldens():
    assert descent_walk(from_int(2), lambda a: 0) == [from_int(2), ONE, ZERO]
    assert descent_walk(W, lambda a: 3) == [W, from_int(3), from_int(2), ONE, ZERO]
    assert descent_walk(o("w*2"), lambda a: 1) == [o("w*2"), o("w+1"), W, ONE, ZERO]


def test_descent_walk_max_len():
    with pytest.raises(MaxLenExceededError):
        descent_walk(o("w^w"), lambda a: 9, max_len=5)


# Each count follows one rule: a non-negative int, never a float or a bool.
@pytest.mark.parametrize("count", [7.5, True, None, "9", -1])
def test_walk_and_trajectory_refuse_a_count_that_is_not_an_int_of_at_least_0(count):
    with pytest.raises(ValueError, match=r"^max_len must be an int >= 0$"):
        descent_walk(o("w+3"), lambda a: 2, max_len=count)
    with pytest.raises(ValueError, match=r"^max_steps must be an int >= 0$"):
        hydra_trajectory(parse_hydra("((()))"), max_steps=count)


def test_walk_and_trajectory_keep_their_caps_at_0():
    assert descent_walk(ZERO, lambda a: 0, max_len=0) == [ZERO]
    with pytest.raises(MaxLenExceededError, match="max_len=0"):
        descent_walk(ONE, lambda a: 0, max_len=0)
    assert hydra_trajectory(parse_hydra("()"), max_steps=0) == [ZERO]
    with pytest.raises(MaxLenExceededError, match="within 0 steps"):
        hydra_trajectory(parse_hydra("(())"), max_steps=0)


# Walk lengths are Hardy-hierarchy sized: from w^w^w a constant picker of 10
# needs ~10^10^10 steps, so boundedness can only hold per seeded run. Small
# picker values keep realized walks short; termination itself is structural.
@hyp.given(st.integers(0, 2**31), st.integers(0, 2**31))
def test_descent_walk_terminates(start_seed, pick_seed):
    start = random_ordinal(random.Random(start_seed), 4)
    rng = random.Random(pick_seed)
    walk = descent_walk(start, lambda a: rng.randint(0, 1), max_len=10**6)
    assert walk[0] == start
    assert walk[-1] == ZERO
    assert all(x > y for x, y in zip(walk, walk[1:]))


# ---------------------------------------------------------------------------
# surface syntax
# ---------------------------------------------------------------------------

def test_parse_ordinal_goldens():
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("w+1") == add(W, ONE)
    assert parse_ordinal("1+w") == W  # absorption applied on normalization
    assert parse_ordinal("w^(w+1)*3+w*2+5") == add(
        add(mul(omega_pow(o("w+1")), from_int(3)), o("w*2")), from_int(5)
    )


def test_parse_ordinal_errors():
    for bad in ("w^^2", "", "w+", "(w", "2^w", "w**2", "-1"):
        with pytest.raises(OrdinalParseError):
            parse_ordinal(bad)


# A natural is ASCII digits only; \d would also take other scripts' digits.
@pytest.mark.parametrize("text, offset", [
    ("w*\u0663+\u0662", 2),  # Arabic-Indic three and two
    ("\u0663", 0),
    ("w^\uff12", 2),  # fullwidth two
])
def test_parse_ordinal_reads_ascii_digits_only(text, offset):
    with pytest.raises(OrdinalParseError) as info:
        parse_ordinal(text)
    assert info.value.offset == offset


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not 0 < _INT_DIGITS < 5000, reason="int() reads 5000 digits here")
def test_a_natural_past_the_interpreters_digit_limit_is_a_parse_error_at_its_offset():
    for text, offset in [("9" * 5000, 0), ("w+" + "9" * 5000, 2)]:
        with pytest.raises(OrdinalParseError, match=r"natural of 5000 digits is too long$") as info:
            parse_ordinal(text)
        assert info.value.offset == offset


def test_format_ordinal_goldens():
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(from_int(7)) == "7"
    assert format_ordinal(W) == "w"
    assert format_ordinal(o("w^2")) == "w^2"
    assert format_ordinal(o("w^w*2")) == "w^w*2"
    assert format_ordinal(o("w^(w*2)")) == "w^(w*2)"
    assert format_ordinal(o("w^(w+1)*3+w*2+5")) == "w^(w+1)*3+w*2+5"


@hyp.given(ordinal_exprs)
def test_surface_roundtrip(a):
    assert parse_ordinal(format_ordinal(a)) == a


@hyp.given(st.integers(0, 2**31))
def test_surface_roundtrip_on_corpus_shapes(seed):
    a = random_ordinal(random.Random(seed), 3)
    assert parse_ordinal(format_ordinal(a)) == a


# ---------------------------------------------------------------------------
# hydra game
# ---------------------------------------------------------------------------

def leaf() -> HydraTree:
    return HydraTree(())


def test_hydra_value_goldens():
    assert hydra_to_ordinal(HydraTree((leaf(), leaf()))) == from_int(2)
    path3 = HydraTree((HydraTree((HydraTree((leaf(),)),)),))
    assert hydra_to_ordinal(path3) == o("w^w")
    assert hydra_to_ordinal(parse_hydra("((())())")) == o("w+1")


def test_parse_hydra_roundtrip_shapes():
    assert parse_hydra("()") == leaf()
    assert parse_hydra("(()())") == HydraTree((leaf(), leaf()))
    with pytest.raises(OrdinalParseError):
        parse_hydra("(()")
    with pytest.raises(OrdinalParseError):
        parse_hydra("()()")


def test_single_leaf_hydra_dies_in_one_step():
    h = parse_hydra("(())")
    assert hydra_to_ordinal(h) == ONE
    dead = hydra_step(h, 1)
    assert hydra_to_ordinal(dead) == ZERO
    with pytest.raises(DeadHydraError):
        hydra_step(dead, 2)


def test_path_hydra_stage_two_duplication():
    # root-node-leaf: cutting the leaf leaves the node, duplicated twice at the root
    h = parse_hydra("((()))")
    assert hydra_to_ordinal(h) == W
    after = hydra_step(h, 2)
    assert hydra_to_ordinal(after) == from_int(2)


@pytest.mark.parametrize("stage", [1.5, True, 0])
def test_hydra_step_refuses_a_stage_that_is_not_an_int_of_at_least_1(stage):
    with pytest.raises(ValueError, match=r"^stage must be an int >= 1$"):
        hydra_step(parse_hydra("((()))"), stage)


def test_hydra_trajectory_strictly_decreases_and_dies():
    values = hydra_trajectory(parse_hydra("(((())))"), max_steps=10**5)
    assert values[0] == o("w^w")
    assert values[-1] == ZERO
    assert all(x > y for x, y in zip(values, values[1:]))


ALL_SMALL_HYDRAS = [
    "()",
    "(())",
    "((()))", "(()())",
    "(((())))", "((()()))", "((())())", "(()()())",
]


@pytest.mark.parametrize("shape", ALL_SMALL_HYDRAS)
def test_every_small_hydra_dies(shape):
    values = hydra_trajectory(parse_hydra(shape), max_steps=10**5)
    assert values[-1] == ZERO
    assert all(x > y for x, y in zip(values, values[1:]))


def _reference_height(h: HydraTree) -> int:
    return 0 if not h.children else 1 + max(_reference_height(c) for c in h.children)


def _reference_hydra_step(h: HydraTree, stage: int) -> HydraTree:
    """The earlier three-case ``hydra_step``, kept verbatim as the reference."""
    if stage < 1:
        raise ValueError("stage must be >= 1")
    if not h.children:
        raise DeadHydraError("bare root has no heads")

    def walk(node: HydraTree, height: int) -> HydraTree:
        # height >= 1 here; pick the leftmost child of maximal height.
        idx = 0
        best = -1
        for i, c in enumerate(node.children):
            hc = _reference_height(c)
            if hc > best:
                best = hc
                idx = i
        target = node.children[idx]
        if height == 1:
            # target is the head to cut; node is its parent. The caller
            # handles duplication, so just drop the head here.
            return HydraTree(node.children[:idx] + node.children[idx + 1 :])
        if height == 2:
            # node is the grandparent: cut inside target, then duplicate it.
            trimmed = walk(target, 1)
            return HydraTree(
                node.children[:idx] + (trimmed,) * stage + node.children[idx + 1 :]
            )
        return HydraTree(
            node.children[:idx] + (walk(target, height - 1),) + node.children[idx + 1 :]
        )

    return walk(h, _reference_height(h))


def _ordered_forests(nodes: int) -> list[tuple[HydraTree, ...]]:
    """Every ordered forest with ``nodes`` nodes in all."""
    if nodes == 0:
        return [()]
    return [
        (HydraTree(kids),) + rest
        for first in range(1, nodes + 1)
        for kids in _ordered_forests(first - 1)
        for rest in _ordered_forests(nodes - first)
    ]


def test_hydra_step_matches_reference():
    hydras = [HydraTree(f) for n in range(2, 9) for f in _ordered_forests(n - 1)]
    assert len(hydras) == 1 + 2 + 5 + 14 + 42 + 132 + 429  # Catalan numbers
    for h in hydras:
        for stage in (1, 2, 3):
            assert hydra_step(h, stage) == _reference_hydra_step(h, stage), (h, stage)


# A node derives its height, size and value once, from its children's. These
# recursive references recompute them from the whole tree; the value is the
# earlier natural-sum fold, kept verbatim.
def _reference_size(h: HydraTree) -> int:
    return 1 + sum(_reference_size(c) for c in h.children)


def _reference_hydra_to_ordinal(h: HydraTree) -> Ordinal:
    out = ZERO
    for c in h.children:
        out = natural_sum(out, omega_pow(_reference_hydra_to_ordinal(c)))
    return out


def _assert_derived_match_reference(h: HydraTree) -> None:
    assert (h.height, h.size) == (_reference_height(h), _reference_size(h)), h
    assert hydra_to_ordinal(h) is _reference_hydra_to_ordinal(h), h


def test_hydra_derived_fields_match_reference_on_every_tree_up_to_8_nodes():
    for n in range(1, 9):
        for forest in _ordered_forests(n - 1):
            _assert_derived_match_reference(HydraTree(forest))


hydra_trees = st.recursive(
    st.just(HydraTree()), lambda kids: st.lists(kids, max_size=4).map(HydraTree), max_leaves=40
)


@hyp.given(hydra_trees)
def test_hydra_derived_fields_match_reference(h):
    _assert_derived_match_reference(h)


@pytest.mark.parametrize("nodes", range(1, 8))
def test_hydra_trajectory_matches_reference_on_every_shape_that_dies_under_the_budget(nodes):
    # Every state of every game checks its height, size and value against the
    # references. A game that outgrows the node budget must stop at it.
    for forest in _ordered_forests(nodes - 1):
        try:
            values = hydra_trajectory(HydraTree(forest))
        except OrdinalOverflowError as exc:
            assert str(exc).endswith(f"nodes is over the limit of {HYDRA_NODE_LIMIT}")
            assert nodes >= 6, forest
            continue
        states = [HydraTree(forest)]
        while states[-1].children:
            states.append(hydra_step(states[-1], len(states)))
        for h in states:
            assert (h.height, h.size) == (_reference_height(h), _reference_size(h)), h
        assert values == [_reference_hydra_to_ordinal(h) for h in states]


def test_a_hydra_built_3000_deep_is_refused_at_height_128():
    h = leaf()
    with pytest.raises(OrdinalOverflowError, match=r"^nesting deeper than the limit of 128$"):
        for _ in range(3000):
            h = HydraTree((h,))
    assert h.height == NESTING_LIMIT - 1 and h.size == NESTING_LIMIT
    # the highest hydra that can be built still compares, hashes and steps
    assert h == HydraTree((h.children[0],)) and hash(h) == hash(HydraTree(h.children))
    assert hydra_step(h, 2).height == NESTING_LIMIT - 2
    with pytest.raises(OrdinalOverflowError, match=rf"^nesting depth exceeds {DEPTH_LIMIT}$"):
        hydra_to_ordinal(h)
    while h.height > DEPTH_LIMIT:
        h = h.children[0]
    assert hydra_to_ordinal(h) is _reference_hydra_to_ordinal(h)
    with pytest.raises(OrdinalOverflowError, match=rf"^nesting depth exceeds {DEPTH_LIMIT}$"):
        hydra_to_ordinal(HydraTree((h,)))  # one level higher than the depth limit


def test_a_hydra_over_the_node_budget_is_refused():
    assert HydraTree((leaf(),) * (HYDRA_NODE_LIMIT - 1)).size == HYDRA_NODE_LIMIT
    with pytest.raises(OrdinalOverflowError, match=r"^hydra of 10001 nodes is over the limit of 10000$"):
        HydraTree((leaf(),) * HYDRA_NODE_LIMIT)


@pytest.mark.parametrize("shape, stage, size", [
    ("((()))", 10**9, 10**9 + 1),
    # the parent has three nodes, so each copy two; the grandparent is not the root
    ("(()((()())()))", 10**7, 2 * 10**7 + 2),
    ("((()()))", 5000, 10001),
])
def test_hydra_step_refuses_an_over_budget_stage_before_making_the_copies(shape, stage, size):
    # The message is the one the node that receives the copies would raise.
    start = time.perf_counter()
    with pytest.raises(OrdinalOverflowError, match=f"^hydra of {size} nodes is over the limit of 10000$"):
        hydra_step(parse_hydra(shape), stage)
    assert time.perf_counter() - start < 0.1


def test_hydra_step_at_the_budget_is_built():
    # 1 + 5000 * 2 = 10001 nodes would be over; 4999 copies of 2 nodes fill the budget to 9999.
    assert hydra_step(parse_hydra("((()()))"), 4999).size == 9999
    assert hydra_step(parse_hydra("((()))"), HYDRA_NODE_LIMIT - 1).size == HYDRA_NODE_LIMIT
