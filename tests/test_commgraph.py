import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from autfilt import autf, commgraph

from helpers import (
    commutes_by_conjugating_both,
    handles_known_equal_by_composition,
    random_handle_pair,
    random_nielsen_word,
)


def test_parabolic_generator_enumeration():
    h = commgraph.handle(3, {1, 2})
    gens = commgraph.parabolic_generators(h)
    assert len(gens) == 4  # 2 * |I| * (|I| - 1)
    expected = {
        autf.make_nielsen(side, a, b, 1, 3)
        for side in ("L", "R")
        for a, b in ((1, 2), (2, 1))
    }
    assert set(gens) == expected


def test_parabolic_generator_count():
    h = commgraph.handle(5, {1, 2, 3})
    assert len(commgraph.parabolic_generators(h)) == 2 * 3 * 2


def test_conjugated_generators():
    g = autf.make_nielsen("L", 1, 3, 1, 3)
    h = commgraph.handle(3, {1, 2}, (("L", 1, 3, 1),))
    gens = commgraph.parabolic_generators(h)
    base = commgraph.parabolic_generators(commgraph.handle(3, {1, 2}))
    assert set(gens) == {b.conjugate(g) for b in base}


def test_singleton_handles_rejected():
    with pytest.raises(ValueError):
        commgraph.parabolic_generators(commgraph.handle(3, {1}))


@pytest.mark.parametrize(
    "indices, letter",
    [
        ({1, 2}, ("L", 1, 9, 1)),  # j out of range
        ({1, 2}, ("R", 0, 2, 1)),  # i out of range
        ({1, 2}, ("L", 1, 2, 1.0)),  # float exponent
        ({1, 2}, ("L", 1, 2, True)),  # bool exponent
        ({1, 2}, ("L", True, 2, 1)),  # bool index
        ({1, 2}, ("L", 1, 2.0, 1)),  # float index
        ({1, 2}, ("X", 1, 2, 1)),  # unknown side
        ({1, 2}, ("L", 1, 2)),  # not four fields
        ({True, 2}, ("L", 1, 2, 1)),  # bool in the index set
        ({1.0, 2}, ("L", 1, 2, 1)),  # float in the index set
    ],
)
def test_malformed_handles_rejected(indices, letter):
    # commutes never evaluates a conjugator suffix that two handles share,
    # so a bad letter must be refused when the handle is built
    with pytest.raises(ValueError):
        commgraph.handle(5, indices, [letter])


def test_commutes_disjoint_supports():
    assert commgraph.commutes(
        commgraph.handle(5, {1, 2}), commgraph.handle(5, {3, 4})
    )


def test_commutes_overlapping_supports():
    assert not commgraph.commutes(
        commgraph.handle(5, {1, 2}), commgraph.handle(5, {2, 3})
    )


def test_self_commutation_fails_for_nonabelian_parabolic():
    h = commgraph.handle(5, {1, 2})
    assert not commgraph.commutes(h, h)


@pytest.mark.parametrize("seed", range(4))
def test_commutes_matches_group_commutator_oracle(seed):
    # images-only check against [g1, g2] = 1, on commuting pairs (disjoint
    # index sets, both handles conjugated alike) and on non-commuting pairs
    # (overlapping index sets)
    rng = random.Random(seed)
    conj = random_nielsen_word(rng, 5, seed)
    i1, i2, i3 = {1, 2}, {3, 4}, {2, 3, 5}
    pairs = ((i1, i2, True), (i2, i1, True), (i1, i3, False), (i3, i2, False))
    for a, b, expected in pairs:
        h1, h2 = commgraph.handle(5, a, conj), commgraph.handle(5, b, conj)
        assert commgraph.commutes(h1, h2) is expected
        assert commutes_by_conjugating_both(h1, h2) is expected


def _check_against_full_conjugation(rng, n, pairs=40):
    """commutes and handles_known_equal against their full-conjugation
    oracles on random handle pairs and on consecutive path handles; returns
    the commutation verdicts seen on the random pairs."""
    verdicts = set()
    for _ in range(pairs):
        h1, h2 = random_handle_pair(rng, n)
        got = commgraph.commutes(h1, h2)
        assert got is commutes_by_conjugating_both(h1, h2)
        verdicts.add(got)
        # same index set, independent conjugators, and conjugators that
        # differ by a prefix letter
        for other in (
            h2,
            commgraph.handle(n, h1.indices, h2.conjugator),
            commgraph.handle(n, h1.indices, h2.conjugator[:1] + h1.conjugator),
        ):
            assert commgraph.handles_known_equal(h1, other) is (
                handles_known_equal_by_composition(h1, other)
            )
    word = random_nielsen_word(rng, n, rng.randint(1, 6))
    hs = commgraph.conjugate_path(n, (1, 2), word).handles
    for h1, h2 in zip(hs, hs[1:]):
        assert commgraph.commutes(h1, h2) and commutes_by_conjugating_both(h1, h2)
        assert commgraph.handles_known_equal(h1, h2) is (
            handles_known_equal_by_composition(h1, h2)
        )
    return verdicts


@pytest.mark.parametrize("n", (5, 6))
def test_commutes_with_different_conjugators_matches_full_conjugation(n):
    rng = random.Random(n)
    verdicts = set()
    for _ in range(3):
        verdicts |= _check_against_full_conjugation(rng, n)
    assert verdicts == {True, False}


@given(st.integers(0, 10_000), st.sampled_from((5, 6)))
@settings(max_examples=40, deadline=None)
def test_commutes_with_different_conjugators_matches_full_conjugation_fuzz(seed, n):
    _check_against_full_conjugation(random.Random(seed), n, pairs=4)


def test_shared_suffix_gives_short_relative_conjugator():
    rng = random.Random(40)
    suffix = random_nielsen_word(rng, 5, 40)
    a, b = ("L", 2, 3, 1), ("R", 4, 1, -1)
    I, K = {1, 2}, {4, 5}
    pairs = [
        (commgraph.handle(5, I, suffix), commgraph.handle(5, K, (a,) + suffix)),
        (commgraph.handle(5, I, (a,) + suffix), commgraph.handle(5, K, (b,) + suffix)),
        (commgraph.handle(5, I, (a, b) + suffix), commgraph.handle(5, K, suffix)),
    ]
    for h1, h2 in pairs:
        rel = commgraph._relative_conjugator(h1, h2)
        assert len(rel) <= 2
        assert autf.eval_nielsen_word(rel, 5) == h2.conjugator_automorphism().compose(
            h1.conjugator_automorphism().inverse()
        )


def test_commutes_is_symmetric():
    rng = random.Random(2)
    for _ in range(10):
        i1 = frozenset(rng.sample(range(1, 6), 2))
        i2 = frozenset(rng.sample(range(1, 6), 2))
        h1, h2 = commgraph.handle(5, i1), commgraph.handle(5, i2)
        assert commgraph.commutes(h1, h2) == commgraph.commutes(h2, h1)


def test_good_element_gives_length_zero_path():
    p = commgraph.generator_edge_path(5, {1, 2}, ("L", 4, 5, 1))
    assert len(p.handles) == 1


def test_overlapping_element_gives_length_two_path():
    p = commgraph.generator_edge_path(5, {1, 2}, ("L", 2, 3, 1))
    assert [sorted(h.indices) for h in p.handles] == [[1, 2], [4, 5], [1, 2]]
    assert p.handles[2].conjugator == (("L", 2, 3, 1),)


def test_inside_element_uses_lowest_free_block():
    p = commgraph.generator_edge_path(5, {1, 2}, ("L", 1, 2, 1))
    assert sorted(p.handles[1].indices) == [3, 4]


def test_bound_violation_rejected():
    with pytest.raises(ValueError):
        commgraph.generator_edge_path(4, {1, 2}, ("L", 1, 2, 1))


def test_conjugate_path_empty_word():
    p = commgraph.conjugate_path(5, {1, 2}, ())
    assert len(p.handles) == 1 and p.handles[0].conjugator == ()


def test_conjugate_path_single_generator_matches_edge_path():
    letter = ("L", 2, 3, 1)
    p = commgraph.conjugate_path(5, {1, 2}, (letter,))
    q = commgraph.generator_edge_path(5, {1, 2}, letter)
    assert p.handles == q.handles


def test_conjugate_path_two_letters_verified():
    word = (("L", 2, 3, 1), ("L", 4, 5, 1))
    p = commgraph.conjugate_path(5, {1, 2}, word)
    assert commgraph.verify_path(p)
    assert p.edge_count <= 2 * len(word)
    assert p.handles[-1].conjugator == word


def test_verify_rejects_noncommuting_pair():
    bad = commgraph.GraphPath(
        (commgraph.handle(5, {1, 2}), commgraph.handle(5, {2, 3}))
    )
    assert not commgraph.verify_path(bad)


def test_verify_accepts_length_zero():
    assert commgraph.verify_path(commgraph.GraphPath((commgraph.handle(5, {1, 2}),)))


def test_verify_collapses_known_equal_handles():
    h1 = commgraph.handle(5, {1, 2})
    h2 = commgraph.handle(5, {1, 2}, (("L", 3, 4, 1),))  # disjoint conjugator
    h3 = commgraph.handle(5, {1, 2}, (("L", 1, 2, 1),))  # conjugator inside I
    assert commgraph.handles_known_equal(h1, h2)
    assert commgraph.handles_known_equal(h1, h3)
    assert commgraph.verify_path(commgraph.GraphPath((h1, h2)))
    assert commgraph.verify_path(commgraph.GraphPath((h1, h3)))
    # a mixed-support conjugator difference is not decided: the pair is
    # kept as two vertices and the degenerate step fails the edge test
    assert not commgraph.handles_known_equal(h2, h3)
    assert not commgraph.verify_path(commgraph.GraphPath((h2, h3)))


def test_good_conjugator_fixes_generators_elementwise():
    h1 = commgraph.handle(5, {1, 2})
    h2 = commgraph.handle(5, {1, 2}, (("R", 4, 3, -1),))
    assert commgraph.parabolic_generators(h1) == commgraph.parabolic_generators(h2)


def test_random_conjugators_give_verified_paths():
    rng = random.Random(7)
    n, m = 5, 2
    for _ in range(200):
        length = rng.randrange(1, 9)
        word = random_nielsen_word(rng, n, length)
        p = commgraph.conjugate_path(n, range(1, m + 1), word)
        assert p.edge_count <= 2 * length
        assert commgraph.verify_path(p)


def test_path_json_shape():
    p = commgraph.conjugate_path(5, {1, 2}, (("L", 2, 3, 1),))
    data = json.loads(p.to_json())
    assert data[0] == {"I": [1, 2], "conjugator": []}
    assert data[-1]["conjugator"] == [["L", 2, 3, 1]]
