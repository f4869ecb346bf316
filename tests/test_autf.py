import random
import re

import pytest

from autfilt import autf, cli, commgraph

from helpers import (
    compose_per_occurrence,
    is_identity,
    make_signed_permutation,
    random_automorphism,
    substitute_per_occurrence,
    word,
)


def test_reduce_cancelling_pair():
    assert is_identity(word(3, 1, -1))


def test_reduce_inner_cancellation():
    assert word(3, 1, 2, -2, 1) == word(3, 1, 1)


def test_reduce_already_reduced():
    w = word(3, -2, 1, 2)
    assert w.letters == ((2, -1), (1, 1), (2, 1))


def test_word_index_out_of_range():
    with pytest.raises(ValueError):
        word(2, 3)


def test_compose_matches_per_occurrence_substitution():
    # compose inverts each image at most once and reuses it at every
    # x_i^-1; the oracle inverts it again at every occurrence.  The
    # substituted words are drawn until each side of compose has met words
    # with the same inverse letter at least twice
    rng = random.Random(61)
    repeated = {"images": 0, "inverse_images": 0}
    for _ in range(200):
        n = rng.randint(3, 5)
        phi, psi = (random_automorphism(rng, n, rng.randint(1, 8)) for _ in "ab")
        for side, words in (
            ("images", psi.images),
            ("inverse_images", phi.inverse_images),
        ):
            for w in words:
                inverse_letters = [i for i, s in w.letters if s == -1]
                repeated[side] += len(inverse_letters) > len(set(inverse_letters))
        got, want = phi.compose(psi), compose_per_occurrence(phi, psi)
        assert got.images == want.images
        assert got.inverse_images == want.inverse_images
        w = autf.FreeWord(n, [(rng.randint(1, n), -1) for _ in range(12)])
        assert phi(w) == substitute_per_occurrence(phi.images, w)
    assert min(repeated.values()) >= 20, repeated


def test_deferred_witness_is_the_substituted_factor_witnesses():
    # a composite keeps its factors' witnesses until inverse_images is first
    # read; the witness it then builds is the inner factor's witness
    # substituted into the outer one's, and a composite of composites
    # (whose factor witnesses are read when it is made) agrees too
    rng = random.Random(67)
    for _ in range(100):
        n = rng.randint(3, 5)
        phi, psi, chi = (random_automorphism(rng, n, rng.randint(1, 6)) for _ in "abc")
        for outer, inner in ((phi, psi), (phi.compose(psi), chi)):
            composite = outer.compose(inner)
            assert composite._inverse_factors is not None
            want = tuple(
                substitute_per_occurrence(inner.inverse_images, w)
                for w in outer.inverse_images
            )
            assert composite.inverse_images == want
            assert composite._inverse_factors is None
            assert composite.inverse_images == want


def test_long_composite_chain_inverts_without_recursion():
    # 3,000 Nielsen letters: compose_all reads each link's witness before
    # the next link defers its own, so the final read is one substitution
    # deep.  R_12 and L_34 commute, so the images stay short
    rng = random.Random(71)
    letters = [
        rng.choice((("R", 1, 2), ("L", 3, 4))) + (rng.choice((1, -1)),)
        for _ in range(3000)
    ]
    phi = autf.eval_nielsen_word(letters, 4)
    a = sum(e for side, _, _, e in letters if side == "R")
    b = sum(e for side, _, _, e in letters if side == "L")
    assert phi.images[0] == word(4, 1, *[2 if a > 0 else -2] * abs(a))
    assert phi.images[2] == word(4, *[4 if b > 0 else -4] * abs(b), 3)
    inverse = phi.inverse()
    assert inverse.images[0] == word(4, 1, *[-2 if a > 0 else 2] * abs(a))
    assert is_identity(phi.compose(inverse))
    assert is_identity(inverse.compose(phi))


def test_inverse_witness_cannot_be_assigned():
    phi = autf.make_magnus_C(1, 2, 3).compose(autf.make_magnus_M(2, 1, 3, 3))
    with pytest.raises(AttributeError):
        phi.inverse_images = phi.images
    with pytest.raises(AttributeError):
        phi._inverse_images = phi.images


def test_word_inverse_and_product():
    w = word(3, 1, -2, 3)
    assert is_identity(w * w.inverse())
    assert w.inverse().letters == ((3, -1), (2, 1), (1, -1))


def test_compose_with_inverse_is_identity():
    phi = autf.make_nielsen("L", 1, 2, 1, 4).compose(autf.make_magnus_C(3, 4, 4))
    assert is_identity(phi.compose(phi.inverse()))
    assert is_identity(phi.inverse().compose(phi))


def test_disjoint_nielsen_commute():
    L12 = autf.make_nielsen("L", 1, 2, 1, 4)
    L34 = autf.make_nielsen("L", 3, 4, 1, 4)
    assert is_identity(autf.group_commutator(L12, L34))


def test_apply_conjugation_generator():
    C12 = autf.make_magnus_C(1, 2, 3)
    assert C12.apply(word(3, 1)) == word(3, -2, 1, 2)
    assert C12.apply(word(3, 2)) == word(3, 2)


def test_nielsen_images():
    n = 3
    assert autf.make_nielsen("L", 1, 2, 1, n).apply(word(n, 1)) == word(n, 2, 1)
    assert autf.make_nielsen("R", 1, 2, 1, n).apply(word(n, 1)) == word(n, 1, 2)
    assert autf.make_nielsen("L", 1, 2, -1, n).apply(word(n, 1)) == word(n, -2, 1)


def test_nielsen_rejects_equal_indices():
    with pytest.raises(ValueError):
        autf.make_nielsen("L", 1, 1, 1, 3)


def test_magnus_generator_images():
    n = 4
    C12 = autf.make_magnus_C(1, 2, n)
    assert C12.apply(word(n, 1)) == word(n, -2, 1, 2)
    M123 = autf.make_magnus_M(1, 2, 3, n)
    assert M123.apply(word(n, 1)) == word(n, 1, -2, -3, 2, 3)


def test_t_family_degenerates_to_m():
    assert autf.make_T(1, (2, 3), 4) == autf.make_magnus_M(1, 2, 3, 4)


def test_t_family_nested_commutator():
    n = 4
    T = autf.make_T(1, (2, 3, 2), n)
    inner = autf.group_commutator(word(n, 2), word(n, 3))
    expected = word(n, 1) * autf.group_commutator(inner, word(n, 2))
    assert T.apply(word(n, 1)) == expected


def test_t_family_support_and_complexity():
    T = autf.make_T(1, (2, 3, 4), 5)
    assert autf.minimal_support(T) == frozenset({1, 2, 3, 4})
    assert autf.complexity(T) == 4


def test_t_rejects_moved_index_in_tail():
    with pytest.raises(ValueError):
        autf.make_T(1, (1, 2), 3)


def test_s_family_k2_form():
    S = autf.make_S((1, 2), 3, 4, 5)
    expected = autf.group_commutator(
        autf.make_magnus_M(3, 4, 1, 5), autf.make_magnus_M(4, 3, 2, 5)
    )
    assert S == expected


def test_s_family_is_ia():
    n = 5
    assert autf.is_IA(autf.make_S((1, 2), 3, 4, n))
    assert autf.is_IA(autf.make_S((1, 2, 3), 4, 5, n))
    assert autf.is_IA(autf.make_T(1, (2, 3, 4), n))


def test_s_family_constraints():
    with pytest.raises(ValueError):
        autf.make_S((1,), 2, 3, 5)
    with pytest.raises(ValueError):
        autf.make_S((1, 2), 1, 4, 5)
    with pytest.raises(ValueError):
        autf.make_S((1, 2, 3, 4), 5, 1, 5)


def test_abelianized_matrix_nielsen():
    mat = autf.abelianized_matrix(autf.make_nielsen("L", 1, 2, 1, 2))
    # column 1 is the image of x1 = x2 x1
    assert mat == ((1, 0), (1, 1))


def test_abelianized_matrix_conjugation_is_identity():
    assert autf.is_IA(autf.make_magnus_C(1, 2, 3))
    assert autf.is_IA(autf.make_magnus_M(1, 2, 3, 3))


def test_signed_swap_has_determinant_one():
    phi = make_signed_permutation(2, {1: 2, 2: 1}, {2: -1})
    assert phi.apply(word(2, 1)) == word(2, 2)
    assert phi.apply(word(2, 2)) == word(2, -1)
    assert autf.abelianized_matrix(phi) == ((0, -1), (1, 0))


def test_minimal_support_of_product():
    phi = autf.make_nielsen("L", 1, 2, 1, 5).compose(autf.make_nielsen("L", 3, 4, 1, 5))
    assert autf.minimal_support(phi) == frozenset({1, 2, 3, 4})


def test_complexity_of_named_generators():
    assert autf.complexity(autf.make_magnus_C(1, 2, 5)) == 2
    assert autf.complexity(autf.make_magnus_M(1, 2, 3, 5)) == 3
    assert autf.complexity(autf.identity_automorphism(5)) == 0


def test_signed_permutation_conjugates_parabolics():
    # conjugation by a basis permutation carries the parabolic on sigma(I)
    # into the parabolic on I
    n = 4
    sigma = {1: 3, 2: 4, 3: 1, 4: 2}
    tilde = make_signed_permutation(n, sigma, {1: -1})
    I = frozenset({1, 2})
    sigma_I = frozenset({sigma[i] for i in I})
    for a in sigma_I:
        for b in sigma_I:
            if a == b:
                continue
            for side in ("L", "R"):
                g = autf.make_nielsen(side, a, b, 1, n)
                assert autf.minimal_support(g.conjugate(tilde)) <= I


def test_single_move_makers_pass_the_inverse_check():
    # the makers skip verification; the checking constructor must agree
    n = 5
    made = [autf.make_nielsen(s, 2, 4, e, n) for s in "LR" for e in (1, -1)]
    made += [autf.make_magnus_C(3, 1, n), autf.make_magnus_M(2, 5, 1, n)]
    made += [autf.make_T(4, (1, 5, 2, 3), n)]
    for phi in made:
        autf.FreeAutomorphism(n, phi.images, phi.inverse_images, check=True)


@pytest.mark.parametrize(
    "make, args",
    [
        (autf.make_magnus_C, (1, 9, 5)),
        (autf.make_magnus_C, (True, 2, 5)),
        (autf.make_magnus_C, (1.0, 2, 5)),
        (autf.make_magnus_M, (1, 2, 9, 5)),
        (autf.make_magnus_M, (1, True, 3, 5)),
        (autf.make_T, (9, (1, 2), 5)),
        (autf.make_T, (0, (1, 2), 5)),
        (autf.make_T, (True, (2, 3), 5)),
        (autf.make_nielsen, ("L", 1, 2, 1.0, 5)),
        (autf.make_nielsen, ("R", True, 2, 1, 5)),
    ],
)
def test_single_move_makers_reject_bad_indices(make, args):
    # single moves are built by the trusted constructor, so the makers
    # check every index themselves
    with pytest.raises(ValueError):
        make(*args)


def _assemble_word_target(letter):
    # the reader behind `autfilt cert assemble`, which reports the
    # ValueError on stderr with status 2
    cli._assemble({"n": 5, "m": 2, "targets": [{"kind": "word", "letters": [letter]}]})


@pytest.mark.parametrize(
    "letter",
    [
        ("L", True, 2, 1),  # bool index
        ("L", 1, 2, 1.0),  # float exponent
        ("R", 2, 2, 1),  # i == j
        ("X", 1, 2, 1),  # unknown side
        ("L", 0, 2, 1),  # index 0
        ("L", 1, 6, 1),  # index n + 1
        ("L", 1, 2),  # three fields
        "L121",  # a string
    ],
)
@pytest.mark.parametrize(
    "route",
    [
        # make_nielsen takes the fields as arguments; the word evaluator
        # builds each letter with it, so a letter of any shape can reach it
        lambda letter: autf.eval_nielsen_word([letter], 5),
        lambda letter: commgraph.handle(5, {1, 2}, [letter]),
        _assemble_word_target,
    ],
    ids=["make_nielsen", "handle", "cert-assemble"],
)
def test_every_route_rejects_a_malformed_nielsen_letter(route, letter):
    # JSON has lists, not tuples: the assembly reader gets the letter as one
    as_json = list(letter) if isinstance(letter, tuple) else letter
    with pytest.raises(ValueError, match="Nielsen letter"):
        route(as_json)


def test_inverse_witness_is_checked():
    n = 2
    images = (word(n, 2, 1), word(n, 2))
    bad_inverse = (word(n, 1), word(n, 2))
    with pytest.raises(ValueError):
        autf.FreeAutomorphism(n, images, bad_inverse)


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        autf.make_nielsen("L", 1, 2, 1, 3).compose(autf.make_nielsen("L", 1, 2, 1, 4))


def test_nielsen_word_evaluation_order():
    # [R_12, L_12^-1] evaluates with the last letter acting first
    n = 3
    got = autf.eval_nielsen_word(autf.c_nielsen_word(1, 2), n)
    assert got == autf.make_magnus_C(1, 2, n)


def test_m_nielsen_word():
    n = 4
    got = autf.eval_nielsen_word(autf.m_nielsen_word(1, 2, 3), n)
    assert got == autf.make_magnus_M(1, 2, 3, n)


def test_text_format_round_trip():
    phi = autf.make_magnus_M(1, 2, 3, 4)
    text = autf.format_automorphism(phi)
    assert autf.parse_automorphism(text) == phi


def test_text_format_reduces_unreduced_input():
    got = autf.parse_automorphism("rank=2; x1 -> x2 x2^-1 x1; x2 -> x2")
    assert got == autf.identity_automorphism(2)


def test_parser_accepts_explicit_inverse():
    phi = autf.make_nielsen("L", 1, 2, 1, 3).compose(autf.make_nielsen("R", 2, 3, 1, 3))
    text = autf.format_automorphism(phi)
    inv_text = autf.format_automorphism(phi.inverse())
    assert autf.parse_automorphism(text, inverse_text=inv_text) == phi


def test_parser_rejects_unknown_without_inverse():
    phi = autf.make_nielsen("L", 1, 2, 1, 3).compose(autf.make_nielsen("R", 2, 3, 1, 3))
    with pytest.raises(ValueError):
        autf.parse_automorphism(autf.format_automorphism(phi))


def test_parser_recognizes_named_t_family():
    phi = autf.make_T(2, (1, 3, 4), 4)
    assert autf.parse_automorphism(autf.format_automorphism(phi)) == phi


def test_parser_inverts_single_move_with_long_tail():
    phi = autf.make_T(1, (2, 3, 4, 5, 2), 5)
    got = autf.parse_automorphism(autf.format_automorphism(phi))
    assert got == phi
    assert got.inverse() == phi.inverse()


@pytest.mark.parametrize(
    "text",
    [
        "rank=3; x0 -> x3 x1",
        "rank=3; x4 -> x1",
        "rank=3; x1 -> x2 x1; x1 -> x1 x3",
    ],
)
def test_parser_rejects_bad_left_hand_sides(text):
    # x0 and x4 are out of range at rank 3; a repeated x1 is ambiguous
    with pytest.raises(ValueError):
        autf.parse_automorphism(text)


@pytest.mark.parametrize("piece", ["x2", "x2 ->"])
@pytest.mark.parametrize("side", ["text", "inverse"])
def test_parser_names_a_piece_without_an_image(piece, side):
    # these pieces were read as x2 -> 1, and the error then blamed the move
    # or the inverse witness instead of the piece
    text = "rank=2; x1 -> x2 x1"
    inverse = "rank=2; x1 -> x2^-1 x1"
    if side == "text":
        text += "; " + piece
    else:
        inverse += "; " + piece
    with pytest.raises(ValueError, match=re.escape(repr(piece))):
        autf.parse_automorphism(text, inverse_text=inverse)


MALFORMED_TEXTS = [
    # (mangle the text, what the error names)
    (lambda t: t.replace(";", ";;"), "empty piece"),
    (lambda t: t + ";", "empty piece"),
    (lambda t: t + "; ", "empty piece"),
    (lambda t: "rank=0", "rank must be at least 1"),
]
MALFORMED_IDS = ["doubled-semicolon", "trailing-semicolon", "trailing-piece", "rank-zero"]


@pytest.mark.parametrize("mangle, message", MALFORMED_TEXTS, ids=MALFORMED_IDS)
@pytest.mark.parametrize("side", ["text", "inverse"])
def test_parser_rejects_empty_pieces_and_rank_zero(mangle, message, side):
    # empty pieces were skipped and rank=0 gave a rank-0 automorphism
    text = "rank=2; x1 -> x2 x1"
    inverse = "rank=2; x1 -> x2^-1 x1"
    if side == "text":
        text = mangle(text)
    else:
        inverse = mangle(inverse)
    with pytest.raises(ValueError, match=message):
        autf.parse_automorphism(text, inverse_text=inverse)
    if side == "text":
        with pytest.raises(ValueError, match=message):
            autf.parse_automorphism(text)


@pytest.mark.parametrize("side", ["text", "inverse"])
def test_parser_rejects_a_rank_over_the_bound(side):
    # the parser allocated one word per generator of any header rank first
    over = f"rank={autf.MAX_RANK + 1}"
    text, inverse = ("rank=2; x1 -> x2 x1", "rank=2; x1 -> x2^-1 x1")
    if side == "text":
        text = over
    else:
        inverse = over
    with pytest.raises(ValueError, match=f"over the bound MAX_RANK = {autf.MAX_RANK}"):
        autf.parse_automorphism(text, inverse_text=inverse)
    at_bound = autf.parse_automorphism(f"rank={autf.MAX_RANK}; x1 -> x2 x1")
    assert at_bound.rank == autf.MAX_RANK


def _letters_text(letters):
    """x1 -> x1 x2 ... x2 on two generators, with the given letter count."""
    return "rank=2; x1 -> x1" + " x2" * (letters - 1)


@pytest.mark.parametrize("side", ["text", "inverse"])
def test_parser_rejects_more_letters_than_the_bound(side):
    # counted over all images together, before any token is read
    over = _letters_text(autf.MAX_LETTERS + 1)
    text, inverse = ("rank=2; x1 -> x2 x1", "rank=2; x1 -> x2^-1 x1")
    if side == "text":
        text = over
    else:
        inverse = over
    with pytest.raises(ValueError, match=f"over the bound MAX_LETTERS = {autf.MAX_LETTERS}"):
        autf.parse_automorphism(text, inverse_text=inverse)
    split = "rank=2; x1 -> x1 x2; x2 -> x2" + " x1" * (autf.MAX_LETTERS - 2)
    with pytest.raises(ValueError, match="MAX_LETTERS"):
        autf.parse_automorphism(split, inverse_text=split)


def test_parser_accepts_a_text_at_the_letter_bound():
    phi = autf.parse_automorphism(_letters_text(autf.MAX_LETTERS))
    assert len(phi.images[0].letters) == autf.MAX_LETTERS


@pytest.mark.parametrize(
    "text",
    [
        "rank=1_0; x1 -> x2 x1",  # int() reads 1_0 as 10
        "rank=+3; x1 -> x2 x1",
        "rank=3; x1 -> x\u0662 x1",  # an Arabic-Indic two, read as x2
        "rank=3; x\u0661 -> x2 x1",  # an Arabic-Indic one, read as x1
    ],
)
def test_parser_accepts_ascii_decimal_numbers_only(text):
    with pytest.raises(ValueError):
        autf.parse_automorphism(text)


@pytest.mark.parametrize(
    "letter",
    [
        (1.5, 1),  # read as x1 by int()
        (True, True),  # read as x1
        ("2", "-1"),  # read as x2^-1
        (1, 1.0),
        (2, False),
        (1, 2),
        (0, 1),
        (4, -1),
        (1,),
        5,
    ],
)
def test_checking_constructor_rejects_malformed_letters(letter):
    with pytest.raises(ValueError):
        autf.FreeWord(3, [letter])


@pytest.mark.parametrize("value", [True, 1.0, "1", 0])
def test_word_rejects_non_int_signed_indices(value):
    with pytest.raises(ValueError):
        word(3, 2, value)
