import json
import random
from fractions import Fraction

import pytest

from autfilt import autf, bnscert, commgraph

from helpers import breadth_first_by_adjacency, random_vertex_list


def _pair_certificate(chi1=1, chi2=1, word=()):
    n = 4
    L12 = autf.make_nielsen("L", 1, 2, 1, n)
    R12 = autf.make_nielsen("R", 1, 2, 1, n)
    return bnscert.BnsCertificate(
        (L12, R12),
        (Fraction(chi1), Fraction(chi2)),
        (bnscert.Witness(2, 1, tuple(word)),),
    )


def test_commuting_pair_certificate_valid():
    # L_12 and R_12 commute, so the empty witness word works
    verdict = bnscert.check_certificate(_pair_certificate())
    assert verdict.valid
    assert "generated by the listed elements" in verdict.scope_note


def test_zero_first_character_rejected():
    verdict = bnscert.check_certificate(_pair_certificate(chi1=0))
    assert not verdict.valid
    assert verdict.failed_condition == "nonzero-at-first"
    assert verdict.failed_index == 1


def test_corrupted_witness_word_rejected():
    verdict = bnscert.check_certificate(_pair_certificate(word=(1,)))
    assert not verdict.valid
    assert verdict.failed_condition == "commutator-word"
    assert verdict.failed_index == 2


def test_dangling_witness_index_rejected():
    cert = _pair_certificate()
    bad = bnscert.BnsCertificate(
        cert.elements, cert.chi, (bnscert.Witness(2, 2, ()),)
    )
    verdict = bnscert.check_certificate(bad)
    assert not verdict.valid
    assert verdict.failed_condition == "witness-indices"


def test_repeated_witness_index_rejected():
    # a bogus earlier witness for i = 2 must not hide behind a valid one
    cert = _pair_certificate()
    bad = bnscert.BnsCertificate(
        cert.elements,
        cert.chi,
        (bnscert.Witness(2, 1, (1,)),) + cert.witnesses,
    )
    verdict = bnscert.check_certificate(bad)
    assert not verdict.valid
    assert verdict.failed_condition == "witness-indices"
    assert verdict.failed_index == 2


def test_mixed_rank_elements_rejected():
    cert = _pair_certificate()
    bad = bnscert.BnsCertificate(
        (cert.elements[0], autf.make_nielsen("R", 1, 2, 1, 5)),
        cert.chi,
        cert.witnesses,
    )
    verdict = bnscert.check_certificate(bad)
    assert not verdict.valid
    assert verdict.failed_condition == "shape"


def test_character_consistency_on_witness_words():
    # the tail witness of an assembled certificate has word x1^-1 x_p with
    # chi(x_p) forced equal to chi(x1); perturbing chi(x_p) breaks the
    # homomorphism sum while keeping every cited value nonzero
    cert, report = bnscert.assemble_certificate(
        5, 2, [("C12", autf.c_nielsen_word(1, 2))]
    )
    assert bnscert.check_certificate(cert).valid
    forced = report.forced_positions[0]
    chi = list(cert.chi)
    chi[forced - 1] = Fraction(2)
    perturbed = bnscert.BnsCertificate(cert.elements, tuple(chi), cert.witnesses)
    verdict = bnscert.check_certificate(perturbed)
    assert not verdict.valid
    assert verdict.failed_condition == "character-consistency"


def test_rescaling_chi_preserves_validity():
    cert, _ = bnscert.assemble_certificate(5, 2, [("C12", autf.c_nielsen_word(1, 2))])
    assert bnscert.check_certificate(cert).valid
    scaled = bnscert.BnsCertificate(
        cert.elements, tuple(Fraction(3, 2) * c for c in cert.chi), cert.witnesses
    )
    assert bnscert.check_certificate(scaled).valid


def test_reordering_independent_adjacent_elements():
    # swapping adjacent elements whose witnesses reference neither each
    # other nor later positions preserves validity
    n = 5
    a = autf.make_magnus_C(1, 2, n)
    b = autf.make_magnus_C(3, 4, n)
    c = autf.make_magnus_C(4, 3, n)
    cert = bnscert.BnsCertificate(
        (a, b, c),
        (Fraction(1), Fraction(1), Fraction(1)),
        (bnscert.Witness(2, 1, ()), bnscert.Witness(3, 1, ())),
    )
    assert bnscert.check_certificate(cert).valid
    swapped = bnscert.BnsCertificate(
        (a, c, b),
        (Fraction(1), Fraction(1), Fraction(1)),
        (bnscert.Witness(2, 1, ()), bnscert.Witness(3, 1, ())),
    )
    assert bnscert.check_certificate(swapped).valid


def test_assemble_single_target_round_trip():
    cert, report = bnscert.assemble_certificate(
        5, 2, [("C12", autf.c_nielsen_word(1, 2))]
    )
    assert bnscert.check_certificate(cert).valid
    assert report.forced_positions  # the conjugate position is forced
    assert report.vertex_order[0] == {"I": [1, 2], "conjugator": []}


def test_assemble_two_targets():
    cert, _ = bnscert.assemble_certificate(
        5,
        2,
        [("C12", autf.c_nielsen_word(1, 2)), ("M123", autf.m_nielsen_word(1, 2, 3))],
    )
    assert bnscert.check_certificate(cert).valid


def test_assemble_a_target_whose_word_misses_the_base_indices():
    # no letter of C45 touches I = {1, 2}, so C45 fixes x1: its witness
    # points at x1 itself, and its path adds no vertex
    c45 = ("C45", autf.c_nielsen_word(4, 5))
    cert, report = bnscert.assemble_certificate(5, 2, [c45])
    assert bnscert.check_certificate(cert).valid
    assert len(cert.elements) == 2 and not report.forced_positions
    assert cert.witnesses[-1] == bnscert.Witness(2, 1, (-1, 1))
    both, _ = bnscert.assemble_certificate(5, 2, [("C12", autf.c_nielsen_word(1, 2)), c45])
    assert bnscert.check_certificate(both).valid
    assert both.witnesses[-1] == bnscert.Witness(len(both.elements), 1, (-1, 1))


def test_assemble_empty_targets():
    cert, _ = bnscert.assemble_certificate(5, 2, [])
    assert len(cert.elements) == 1
    assert bnscert.check_certificate(cert).valid


def test_assemble_rejects_vanishing_chooser():
    with pytest.raises(bnscert.AssemblyError):
        bnscert.assemble_certificate(
            5,
            2,
            [("C12", autf.c_nielsen_word(1, 2))],
            chooser_value=0,
        )


def test_assemble_rejects_non_ia_target():
    with pytest.raises(bnscert.AssemblyError):
        bnscert.assemble_certificate(5, 2, [("L12", (("L", 1, 2, 1),))])


def test_assembled_tail_witness_shape():
    cert, _ = bnscert.assemble_certificate(5, 2, [("C12", autf.c_nielsen_word(1, 2))])
    tail = cert.witnesses[-1]
    assert tail.index == len(cert.elements)
    assert tail.earlier == 1
    assert tail.word[0] == -1 and tail.word[1] > 0


def test_certificate_json_round_trip():
    cert, _ = bnscert.assemble_certificate(
        5, 2, [("C12", autf.c_nielsen_word(1, 2))]
    )
    data = json.loads(cert.to_json())
    assert set(data) == {"elements", "inverses", "chi", "witnesses"}
    again = bnscert.BnsCertificate.from_json(cert.to_json())
    assert again == cert
    assert bnscert.check_certificate(again).valid


def _certificate_data():
    cert, _ = bnscert.assemble_certificate(
        5, 2, [("C12", autf.c_nielsen_word(1, 2))]
    )
    return json.loads(cert.to_json())


def test_from_json_rejects_missing_elements():
    with pytest.raises(ValueError, match="'elements'"):
        bnscert.BnsCertificate.from_json("{}")


def test_from_json_rejects_witness_without_earlier_index():
    data = _certificate_data()
    del data["witnesses"][0]["j"]
    with pytest.raises(ValueError, match="witness lacks 'j'"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


def test_from_json_rejects_short_inverse_list():
    data = _certificate_data()
    data["inverses"].pop()
    with pytest.raises(ValueError, match="'inverses'"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


def test_from_json_rejects_a_repeated_top_level_key():
    # json.loads keeps the last "chi", so a reader of the file who sees the
    # first one and the checker, which found this certificate valid, disagree
    cert, _ = bnscert.assemble_certificate(5, 2, [("C12", autf.c_nielsen_word(1, 2))])
    shown = json.dumps(["0"] * len(cert.chi))
    text = '{"chi": ' + shown + ", " + cert.to_json()[1:]
    with pytest.raises(ValueError, match="certificate repeats the key 'chi'"):
        bnscert.BnsCertificate.from_json(text)


def test_from_json_rejects_a_repeated_witness_key():
    text = json.dumps(_certificate_data()).replace('"word": ', '"word": [1], "word": ', 1)
    with pytest.raises(ValueError, match="certificate repeats the key 'word'"):
        bnscert.BnsCertificate.from_json(text)


def test_from_json_rejects_an_unknown_top_level_key():
    # the extra key was ignored and the certificate checked valid
    data = _certificate_data()
    data["note"] = "ignored"
    with pytest.raises(ValueError, match="certificate holds the unknown key 'note'"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


def test_from_json_rejects_an_unknown_witness_key():
    data = _certificate_data()
    data["witnesses"][0]["k"] = 1
    with pytest.raises(ValueError, match="witness holds the unknown key 'k'"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


def test_from_json_rejects_nan():
    data = _certificate_data()
    data["witnesses"][0]["i"] = float("nan")
    with pytest.raises(ValueError, match="certificate holds NaN, which is not JSON"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


def test_from_json_rejects_non_object_top_level():
    with pytest.raises(ValueError, match="JSON object"):
        bnscert.BnsCertificate.from_json("[1]")


@pytest.mark.parametrize("field, value", [("elements", None), ("chi", "1/0")])
def test_from_json_rejects_null_element_and_zero_denominator(field, value):
    data = _certificate_data()
    data[field][0] = value
    with pytest.raises(ValueError, match=field):
        bnscert.BnsCertificate.from_json(json.dumps(data))


@pytest.mark.parametrize("field", ["i", "j"])
def test_from_json_rejects_boolean_witness_index(field):
    # bool is an int subclass, but JSON true is not the integer 1: with it
    # read as 1 this certificate would check valid
    data = _certificate_data()
    data["witnesses"][0][field] = True
    with pytest.raises(ValueError, match="integer i, j"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


def test_from_json_rejects_boolean_chi_entry():
    data = _certificate_data()
    data["chi"][0] = True
    with pytest.raises(ValueError, match="'chi'"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


@pytest.mark.parametrize("value", ["1_0", "\u0661", " 1/2 ", "0.5", "1e3", "+3"])
def test_from_json_reads_ascii_fraction_strings_only(value):
    # Fraction() reads all of these; "\u0661" (Arabic-Indic one) read as 1
    # made this certificate check valid
    data = _certificate_data()
    data["chi"][0] = value
    with pytest.raises(ValueError, match="'chi'"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


def test_from_json_names_an_element_piece_without_an_image():
    # "x5 ->" was read as x5 -> 1, and the error blamed the inverse witness
    data = _certificate_data()
    data["elements"][0] = data["elements"][0].replace("x5 -> x5", "x5 ->")
    with pytest.raises(ValueError, match="'x5 ->'"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda t: t.replace("; ", ";; ", 1), "empty piece"),
        (lambda t: t + ";", "empty piece"),
        (lambda t: "rank=0", "rank must be at least 1"),
    ],
    ids=["doubled-semicolon", "trailing-semicolon", "rank-zero"],
)
def test_from_json_rejects_empty_element_pieces_and_rank_zero(mangle, message):
    data = _certificate_data()
    data["elements"][0] = mangle(data["elements"][0])
    with pytest.raises(ValueError, match=message):
        bnscert.BnsCertificate.from_json(json.dumps(data))


def test_from_json_rejects_an_element_rank_over_the_bound():
    data = _certificate_data()
    data["elements"][0] = f"rank={autf.MAX_RANK + 1}"
    data["inverses"] = None
    with pytest.raises(ValueError, match="over the bound MAX_RANK"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


@pytest.mark.parametrize("field", ["elements", "inverses"])
def test_from_json_rejects_an_element_over_the_letter_bound(field):
    data = _certificate_data()
    data[field][0] += " x1" * autf.MAX_LETTERS
    with pytest.raises(ValueError, match="over the bound MAX_LETTERS"):
        bnscert.BnsCertificate.from_json(json.dumps(data))


def test_from_json_rejects_null_inverse():
    # to_json writes one inverse text per element; null is only allowed for
    # the whole field, where it means "derive the inverses"
    data = _certificate_data()
    data["inverses"][0] = None
    with pytest.raises(ValueError, match="inverses"):
        bnscert.BnsCertificate.from_json(json.dumps(data))
    data["inverses"] = None
    assert bnscert.check_certificate(
        bnscert.BnsCertificate.from_json(json.dumps(data))
    ).valid


def test_assemble_repeated_target_labels():
    # endpoints are keyed by target position, so a repeated label still
    # gives each target its own conjugate
    targets = [("x", autf.c_nielsen_word(1, 2)), ("x", autf.m_nielsen_word(1, 2, 3))]
    cert, _ = bnscert.assemble_certificate(5, 2, targets)
    assert bnscert.check_certificate(cert).valid
    distinct, _ = bnscert.assemble_certificate(
        5, 2, [("C12", targets[0][1]), ("M123", targets[1][1])]
    )
    assert cert == distinct


def test_breadth_first_matches_adjacency_oracle():
    # the oracle tests every pair of vertices, sorts the reached ones by
    # distance and searches each one's neighbours for its parent
    rng = random.Random(27)
    lists = [random_vertex_list(rng) for _ in range(40)]
    # each two of these index sets share an index, so no two handles commute
    lists.append([commgraph.handle(5, I) for I in ({1, 2}, {2, 3}, {1, 3})])
    disconnected = 0
    for hs in lists:
        order, parent = bnscert._breadth_first(hs)
        assert (order, parent) == breadth_first_by_adjacency(hs)
        assert sorted(order) == sorted(parent)
        disconnected += len(order) < len(hs)
    assert 2 <= disconnected < len(lists)
