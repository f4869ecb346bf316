import json
import math
import re

import pytest

from autfilt import autf, bnscert, cli, commgraph, suites


def assert_rejected(capsys, argv, match):
    """cli.main exits with status 2 and one stderr line that matches."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("autfilt: error: ") and err.count("\n") == 1, err
    assert re.search(match, err), err


def test_verify_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "sl-reduction", "--trials", "5", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == suites.SCHEMA_VERSION
    assert data["suite"] == "sl-reduction"
    assert data["status"] == "PASS"
    assert all(r["status"] == "PASS" for r in data["records"])
    printed = capsys.readouterr().out
    assert "suite sl-reduction: PASS" in printed


def test_verify_reports_are_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        cli.main(["verify", "paths", "--trials", "10", "--seed", "3", "--out", str(out)])
        data = json.loads(out.read_text())
        for r in data["records"]:
            r.pop("wall_time_s")
        outs.append(json.dumps(data, sort_keys=True))
    assert outs[0] == outs[1]


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        cli.main(["verify", "no-such-suite"])


def test_depth_command_named_generator(tmp_path, capsys):
    f = tmp_path / "auto.txt"
    f.write_text(autf.format_automorphism(autf.make_magnus_C(1, 2, 4)) + "\n")
    code = cli.main(["depth", str(f), "--cutoff", "4"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["depth"] == "1"
    assert data["is_identity_on_abelianization"] is True
    assert data["complexity"] == 2


@pytest.mark.parametrize(
    "phi, depth",
    [(autf.identity_automorphism(3), ">=6"), (autf.make_magnus_C(1, 2, 3), "1")],
    ids=["identity", "C12"],
)
def test_depth_command_prints_the_depth_or_at_least_the_cutoff(tmp_path, capsys, phi, depth):
    f = tmp_path / "auto.txt"
    f.write_text(autf.format_automorphism(phi) + "\n")
    assert cli.main(["depth", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["depth"] == depth


def test_depth_command_with_inverse_line(tmp_path, capsys):
    phi = autf.make_nielsen("L", 1, 2, 1, 3).compose(autf.make_nielsen("R", 2, 3, 1, 3))
    f = tmp_path / "auto.txt"
    f.write_text(
        "# composite map\n"
        + autf.format_automorphism(phi)
        + "\ninverse: "
        + autf.format_automorphism(phi.inverse())
        + "\n"
    )
    code = cli.main(["depth", str(f), "--cutoff", "3"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["depth"] == "0"


@pytest.mark.parametrize(
    "tail, number",
    [
        ("rank=3; x2 -> x2 x3\n", 3),
        ("nverse: rank=3\n", 3),
        ("inverse: {inverse}\n# again\ninverse: {inverse}\n", 5),
    ],
    ids=["second-automorphism", "misspelled-inverse", "two-inverse-lines"],
)
def test_depth_file_rejects_extra_lines(tmp_path, capsys, tail, number):
    phi = autf.make_magnus_C(1, 2, 3)
    f = tmp_path / "auto.txt"
    inverse = autf.format_automorphism(phi.inverse())
    f.write_text(
        "# C12\n" + autf.format_automorphism(phi) + "\n" + tail.format(inverse=inverse)
    )
    assert_rejected(capsys, ["depth", str(f)], f"line {number}:")


def test_cert_assemble_and_check(tmp_path, capsys):
    spec = {
        "n": 5,
        "m": 2,
        "targets": [
            {"kind": "C", "args": [1, 2]},
            {"kind": "M", "args": [1, 2, 3], "label": "M123"},
        ],
    }
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    out = tmp_path / "cert.json"
    code = cli.main(["cert", "assemble", str(f), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    code = cli.main(["cert", "check", str(out)])
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["valid"] is True


def test_cert_assemble_accepts_repeated_labels(tmp_path, capsys):
    spec = {
        "n": 5,
        "m": 2,
        "targets": [
            {"kind": "C", "args": [1, 2], "label": "x"},
            {"kind": "M", "args": [1, 2, 3], "label": "x"},
        ],
    }
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    code = cli.main(["cert", "assemble", str(f)])
    assert code == 0
    assert '"valid": true' in capsys.readouterr().out


def test_cert_check_rejects_corrupted(tmp_path, capsys):
    cert, _ = bnscert.assemble_certificate(5, 2, [("C12", autf.c_nielsen_word(1, 2))])
    data = json.loads(cert.to_json())
    data["chi"][0] = "0"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code = cli.main(["cert", "check", str(f)])
    assert code == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["failed_condition"] == "nonzero-at-first"


def test_sp_orbit_cli_extended_generators(tmp_path):
    out = tmp_path / "sp.json"
    code = cli.main(
        ["verify", "sp-orbit", "--g", "3", "--extended-sp-generators", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["params"] == {"g_values": [3], "extended_sp_generators": True}
    (orbit,) = [r for r in data["records"] if r["claim"] == "wedge3-orbit-spans(g=3)"]
    assert orbit["status"] == "PASS"
    values = orbit["values"]
    assert values["generator_set"] == "sigma/tau+extended"
    assert (values["orbit_span"], values["closed"]) == (20, True)


def _word_target_spec(tmp_path, letters):
    f = tmp_path / "assembly.json"
    target = {"kind": "word", "letters": letters}
    f.write_text(json.dumps({"n": 5, "m": 2, "targets": [target]}))
    return f


def test_cert_assemble_takes_a_word_target_at_the_letter_bound(tmp_path, capsys):
    # C12 conjugated by a word of L34 letters, MAX_TARGET_LETTERS letters in all
    k = (cli.MAX_TARGET_LETTERS - 2) // 2
    letters = [["L", 3, 4, -1]] * k + [["R", 1, 2, 1], ["L", 1, 2, -1]] + [["L", 3, 4, 1]] * k
    assert len(letters) == cli.MAX_TARGET_LETTERS
    assert cli.main(["cert", "assemble", str(_word_target_spec(tmp_path, letters))]) == 0
    assert '"valid": true' in capsys.readouterr().out


def test_cert_assemble_rejects_a_word_target_over_the_letter_bound(tmp_path, capsys):
    # assembly and its check grow steeply with the word; the letters are
    # counted before any is read
    letters = [["L", 3, 4, 1]] * (cli.MAX_TARGET_LETTERS + 1)
    f = _word_target_spec(tmp_path, letters)
    over = f"word target has {cli.MAX_TARGET_LETTERS + 1} letters, over the bound"
    assert_rejected(capsys, ["cert", "assemble", str(f)], f"{over} MAX_TARGET_LETTERS")


def test_worst_word_target_at_the_letter_bound_reads_back(tmp_path):
    # C12 conjugated by alternating R13, R31 letters grows its elements
    # fastest; every element of its certificate must pass the letter
    # bounds of `cert check`, which are counted without any check run
    k = (cli.MAX_TARGET_LETTERS - 2) // 2
    g = [["R", 1, 3, 1], ["R", 3, 1, 1]] * (k // 2) + [["R", 1, 3, 1]] * (k % 2)
    inverse = [[s, i, j, -e] for s, i, j, e in reversed(g)]
    letters = inverse + [["R", 1, 2, 1], ["L", 1, 2, -1]] + g
    assert len(letters) == cli.MAX_TARGET_LETTERS
    cert, _ = cli._assemble(json.loads(_word_target_spec(tmp_path, letters).read_text()))
    for x in cert.elements:
        for images in (x.images, x.inverse_images):
            assert sum(len(w.letters) for w in images) <= autf.MAX_LETTERS
        assert autf._check_letters(x.images, x.inverse_images) <= autf.MAX_CHECK_LETTERS
    assert sum(len(w.word) for w in cert.witnesses) <= bnscert.MAX_WITNESS_ENTRIES


@pytest.mark.parametrize(
    "kind, args",
    [("M", [1, 2, 2]), ("C", [3, 3]), ("C", [0, 1]), ("M", [1, 2, 6])],
    ids=["M-repeated", "C-repeated", "C-index-0", "M-index-over-n"],
)
def test_cert_assemble_rejects_c_and_m_args_that_are_not_distinct_indices(
    tmp_path, capsys, kind, args
):
    # M(1, 2, 2) is the identity and assembled as "valid"; C(3, 3) was
    # rejected naming the Nielsen letter ('R', 3, 3, 1)
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps({"n": 5, "m": 2, "targets": [{"kind": kind, "args": args}]}))
    arity = len(args)
    match = rf"{kind} target args \[{', '.join(map(str, args))}\] must be {arity} distinct"
    assert_rejected(capsys, ["cert", "assemble", str(f)], match + r" indices in 1\.\.5")


def test_cert_assemble_rejects_more_targets_than_cert_check_reads(tmp_path, capsys):
    # each target adds a 2-entry witness word
    over = bnscert.MAX_WITNESS_ENTRIES // 2 + 1
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps({"n": 5, "m": 2, "targets": [{"kind": "C", "args": [1, 2]}] * over}))
    assert_rejected(capsys, ["cert", "assemble", str(f)], f"has {over} targets, over the bound")


def test_cert_check_rejects_witness_words_over_the_entry_bound(tmp_path, capsys):
    # the check of a witness word grows with the square of its length
    cert, _ = bnscert.assemble_certificate(5, 2, [("C12", autf.c_nielsen_word(1, 2))])
    data = json.loads(cert.to_json())
    data["witnesses"][-1]["word"] = [1] * (bnscert.MAX_WITNESS_ENTRIES + 1)
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(data))
    entries = sum(len(w["word"]) for w in data["witnesses"])
    match = f"hold {entries} entries, over the bound MAX_WITNESS_ENTRIES"
    assert_rejected(capsys, ["cert", "check", str(f)], match)


def test_cert_check_rejects_an_inverse_check_over_the_letter_bound(tmp_path, capsys):
    # x1 -> x2^k with the wrong inverse x2 -> x1^k: k letters each name an
    # image of k letters, both ways round, from about 4k letters of text
    k = math.isqrt(autf.MAX_CHECK_LETTERS // 2) + 1
    element = f"rank=2; x1 -> {' '.join(['x2'] * k)}"
    inverse = f"rank=2; x2 -> {' '.join(['x1'] * k)}"
    data = {"elements": [element], "inverses": [inverse], "chi": ["1"], "witnesses": []}
    f = tmp_path / "cert.json"
    f.write_text(json.dumps(data))
    built = 2 * k * k + 2 * k
    match = f"would build {built} letters, over the bound MAX_CHECK_LETTERS"
    assert_rejected(capsys, ["cert", "check", str(f)], match)


def test_cert_assemble_rejects_n_over_the_rank_bound(tmp_path, capsys):
    spec = {"n": autf.MAX_RANK + 1, "m": 2, "targets": []}
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    assert_rejected(capsys, ["cert", "assemble", str(f)], "over the bound MAX_RANK")


@pytest.mark.parametrize("targets", [[], [{"kind": "C", "args": [1, 2]}]])
def test_cert_assemble_rejects_m_over_the_path_bound(tmp_path, capsys, targets):
    # without targets no path checked 2m + 1 <= n, and this spec assembled
    # with status 0
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps({"n": 5, "m": 5, "targets": targets}))
    assert_rejected(capsys, ["cert", "assemble", str(f)], r"need 2m\+1 <= n, got m=5, n=5")


def test_depth_rejects_a_cutoff_over_the_bound(tmp_path, capsys):
    # the expansion allocates per degree: a cutoff of 10^9 ran for minutes
    f = tmp_path / "auto.txt"
    f.write_text(autf.format_automorphism(autf.make_magnus_C(1, 2, 4)) + "\n")
    over = str(cli.MAX_CUTOFF + 1)
    assert_rejected(capsys, ["depth", str(f), "--cutoff", over], "over the bound MAX_CUTOFF")
    assert cli.main(["depth", str(f), "--cutoff", str(cli.MAX_CUTOFF)]) == 0


@pytest.mark.parametrize("cutoff", ["-1", "0", "1"])
def test_depth_rejects_a_cutoff_under_two_before_reading_the_file(tmp_path, capsys, cutoff):
    # a fixed generator has an empty deviation word, and the cost check
    # computed 0 ** -1; the file does not exist, so reading it would give
    # "No such file or directory" instead of this message
    message = f"--cutoff {cutoff} is under 2: depth takes 2..{cli.MAX_CUTOFF}"
    argv = ["depth", str(tmp_path / "missing.txt"), "--cutoff", cutoff]
    assert_rejected(capsys, argv, message)


@pytest.mark.parametrize("suite", ["sl-reduction", "paths", "tau-identities"])
def test_verify_rejects_a_negative_trial_count(suite, capsys):
    # sl-reduction reported PASS with "samples": -1
    message = f"suite {suite}: trials must be an int of at least 1, got -1"
    assert_rejected(capsys, ["verify", suite, "--trials", "-1"], message)


def _no_record_may_run(*args, **kwargs):
    raise AssertionError("a record ran")


@pytest.mark.parametrize(
    "suite, params, message",
    [
        ("depth-table", {"n": 3}, r"n=3 leaves fewer than two .* \(1, 2, 3\)"),
        ("tau-identities", {"n": 4}, r"n=4 leaves fewer than two .* \(1, 2, 3\)"),
        pytest.param(
            "sp-orbit",
            {"g_values": (1, 3)},
            r"suite sp-orbit: g_values must be a nonempty tuple of ints of at least 2, "
            r"got \(1, 3\)",
            id="sp-orbit-g_values-under-2",
        ),
        # make_magnus_M rejected index 7 after the T-family records had run
        *(
            pytest.param(
                suite,
                {"subalphabet": (1, 2, 7)},
                rf"suite {suite}: subalphabet entries must be in 1\.\.5, got \(1, 2, 7\)",
                id=f"{suite}-subalphabet-entry-over-n",
            )
            for suite in ("tau-identities", "depth-table")
        ),
        # two records ran (0.57 s for depth-table), then make_S raised
        # "mu too long: need len(mu) <= n - 2"
        *(
            pytest.param(
                suite,
                {"k_values": (4,)},
                rf"suite {suite}: k_values entries must be at most n - 2 = 3, got \(4,\)",
                id=f"{suite}-k-over-n-minus-2",
            )
            for suite in ("tau-identities", "depth-table")
        ),
    ],
)
def test_suites_reject_sizes_too_small(monkeypatch, suite, params, message):
    # every size relation is checked before any record runs
    monkeypatch.setattr(suites._Recorder, "timed", _no_record_may_run)
    with pytest.raises(ValueError, match=message):
        suites.run(suite, params)


@pytest.mark.parametrize("suite", ["tau-identities", "depth-table"])
@pytest.mark.parametrize("k_values", [(0,), (1,), (-1,), (True,), (2.5,), 3])
def test_suites_reject_k_values_under_two(suite, k_values):
    # both suites run the S family at every k; k = 0 and -1 (`verify --k 0`)
    # raised a stray IndexError, k = 1 and True failed inside make_S
    # without naming the suite, and 2.5 and a bare 3 raised TypeError
    message = (
        f"suite {suite}: k_values must be a nonempty tuple of ints of at least 2, "
        f"got {re.escape(repr(k_values))}"
    )
    with pytest.raises(ValueError, match=message):
        suites.run(suite, {"k_values": k_values})


@pytest.mark.parametrize(
    "suite, name, value, kind",
    [
        # sample_delta looped forever: with c = 2 and n = 2 the tail
        # always holds both indices, so no fresh index is ever found
        ("sl-reduction", "n", 2, "an int of at least 4"),
        # the negative control's fixed indices (3, 4) failed with
        # "index 4 is not an int in 1..3"
        ("sl-reduction", "n", 3, "an int of at least 4"),
        # IA_2 = Inn(F_2): n = 2 reported FAIL on a claim not made there,
        # and n = 1 failed in span_basis without naming n
        ("iaab", "n_values", (2,), "a nonempty tuple of ints of at least 3"),
        ("iaab", "n_values", (1,), "a nonempty tuple of ints of at least 3"),
        # m = 0 passed on the empty parabolic; m = 1 failed without
        # naming the suite or m
        ("paths", "m", 0, "an int of at least 2"),
        ("paths", "m", 1, "an int of at least 2"),
        ("certificates", "m", 1, "an int of at least 2"),
        # rng.choice on one index raised IndexError
        ("paths", "n", 1, "an int of at least 2"),
        # depth-table passed with "checked": 0; tau-identities raised IndexError
        ("depth-table", "subalphabet", (), "a nonempty tuple of ints of at least 1"),
        ("tau-identities", "subalphabet", (), "a nonempty tuple of ints of at least 1"),
        # each passed with "samples": 0
        ("tau-identities", "trials", 0, "an int of at least 1"),
        ("sl-reduction", "trials", 0, "an int of at least 1"),
        ("paths", "trials", 0, "an int of at least 1"),
    ],
)
def test_suites_reject_values_under_their_bound(monkeypatch, suite, name, value, kind):
    monkeypatch.setattr(suites._Recorder, "timed", _no_record_may_run)
    message = f"suite {suite}: {name} must be {kind}, got {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=message):
        suites.run(suite, {name: value})


@pytest.mark.parametrize(
    "argv, message",
    [
        # both ran as if the flag were absent
        ("verify iaab --k 3", "suite iaab takes no parameter 'k'; it takes n_values"),
        ("verify certificates --trials 5", "suite certificates takes no parameter 'trials'"),
        # each ended in a traceback with status 1, as a failing suite does
        ("verify sp-orbit --g 1", r"suite sp-orbit: g_values .* at least 2, got \(1,\)"),
        ("verify depth-table --k 0", r"suite depth-table: k_values .* at least 2, got \(0,\)"),
        # the T-family record ran first, over 5 * 4^8 tails, before make_S
        # rejected mu
        ("verify depth-table --k 7", r"suite depth-table: k_values .* at most n - 2 = 3"),
        ("depth /nonexistent", "No such file or directory: '/nonexistent'"),
        # enumerating the 4,881,240 labels of MkSpace(5, 9) never finished
        (
            "verify sl-reduction --k 9 --trials 1",
            r"Mk\(n=5,k=9\) has dimension 4881240, over the bound "
            r"exactlin.MAX_DIMENSION = 500000",
        ),
    ],
)
def test_rejected_input_is_one_line_with_status_two(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(suites._Recorder, "timed", _no_record_may_run)
    assert_rejected(capsys, argv.split(), message)


def test_suites_reject_a_key_they_do_not_take():
    message = "suite tau-identities takes no parameter 'unknown'"
    with pytest.raises(ValueError, match=message):
        suites.run("tau-identities", {"trials": 2, "unknown": 1})


def test_a_failing_suite_keeps_status_one(monkeypatch, capsys):
    monkeypatch.setattr(commgraph, "verify_path", lambda path: False)
    assert cli.main(["verify", "paths", "--trials", "1"]) == 1
    assert "suite paths: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, params",
    [
        (["iaab", "--n", "3"], {"n_values": [3]}),
        (["paths", "--n", "6", "--m", "2", "--trials", "1"], {"n": 6, "trials": 1}),
        (["sl-reduction", "--k", "2", "--trials", "1"], {"k_values": [2], "trials": 1}),
        (["kernel-claim", "--n", "5", "--k", "2"], {"n": 5, "k": 2}),
    ],
)
def test_flags_map_to_the_parameters_the_suite_takes(tmp_path, argv, params):
    # --n is n_values for iaab and n for paths; unset flags keep the defaults
    out = tmp_path / "report.json"
    assert cli.main(["verify", *argv, "--out", str(out)]) == 0
    got = json.loads(out.read_text())["params"]
    defaults = json.loads(json.dumps(suites.parameters(argv[0])))
    assert got == {**defaults, **params}


def test_depth_rejects_an_expansion_over_the_cost_bound(tmp_path, capsys):
    # 94 letters over 6 indices: 94 * 6^10 is about 5.7e9, minutes to expand
    f = tmp_path / "auto.txt"
    f.write_text(autf.format_automorphism(autf.make_T(1, (2, 3, 4, 5, 6, 7), 7)) + "\n")
    argv = ["depth", str(f), "--cutoff", "10"]
    assert_rejected(capsys, argv, "94 letters over 6 indices.*MAX_EXPANSION_COST")
    # 22 letters over 4 indices: 22 * 4^10 is under the bound; its
    # expansion takes over a second, so only the check runs here
    cli._check_expansion_cost(autf.make_T(1, (2, 3, 4, 5), 5), 10)


def test_cert_assemble_rejects_a_repeated_key(tmp_path, capsys):
    # json.load kept the last "n" and assembled a certificate for n = 6
    f = tmp_path / "assembly.json"
    f.write_text('{"n": 5, "n": 6, "m": 2, "targets": [{"kind": "C", "args": [1, 2]}]}')
    assert_rejected(capsys, ["cert", "assemble", str(f)], "assembly spec repeats the key 'n'")


@pytest.mark.parametrize("missing", ["n", "m", "kind", "args"])
def test_cert_assemble_rejects_missing_key(tmp_path, capsys, missing):
    spec = {"n": 5, "m": 2, "targets": [{"kind": "C", "args": [1, 2]}]}
    spec.pop(missing, None)
    spec["targets"][0].pop(missing, None)
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    assert_rejected(capsys, ["cert", "assemble", str(f)], repr(missing))


@pytest.mark.parametrize(
    "field, change",
    [
        ("args", {"targets": [{"kind": "C", "args": ["a", "b"]}]}),
        ("n", {"n": "5"}),
        ("targets", {"targets": 5}),
        ("letters", {"targets": [{"kind": "word", "letters": 7}]}),
        ("chi_seed", {"chi_seed": [1]}),
        ("chooser_value", {"chooser_value": 0.1}),
        ("n", {"n": True}),
        ("args", {"targets": [{"kind": "C", "args": [True, 2]}]}),
        ("chooser_value", {"chooser_value": True}),
    ],
)
def test_cert_assemble_rejects_wrongly_typed_value(tmp_path, capsys, field, change):
    spec = {"n": 5, "m": 2, "targets": [{"kind": "C", "args": [1, 2]}], **change}
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    assert_rejected(capsys, ["cert", "assemble", str(f)], repr(field))


@pytest.mark.parametrize("value", ["1_0", "\u0661", " 1/2 ", "0.5", "1e3", "+3"])
@pytest.mark.parametrize("field", ["chooser_value", "chi_seed"])
def test_cert_assemble_reads_ascii_fraction_strings_only(tmp_path, capsys, field, value):
    spec = {"n": 5, "m": 2, "targets": [{"kind": "C", "args": [1, 2]}]}
    chi_seed_key = autf.format_automorphism(autf.make_magnus_C(1, 2, 5))
    spec[field] = {chi_seed_key: value} if field == "chi_seed" else value
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    assert_rejected(capsys, ["cert", "assemble", str(f)], repr(field))


@pytest.mark.parametrize("command, what", [("check", "certificate"), ("assemble", "assembly spec")])
def test_cert_names_its_input_when_it_is_not_json(tmp_path, capsys, command, what):
    # the error read only "Expecting value: line 1 column 15 (char 14)"
    f = tmp_path / "input.json"
    f.write_text('{"elements": [')
    assert_rejected(capsys, ["cert", command, str(f)], f"{what} is not JSON: Expecting value")


@pytest.mark.parametrize(
    "change, message",
    [
        # each assembled with status 0, every target with character 0
        ({"chi_sed": {}}, "assembly spec holds the unknown key 'chi_sed'"),
        (
            {"targets": [{"kind": "C", "args": [1, 2], "lable": "x"}]},
            "assembly target holds the unknown key 'lable'",
        ),
        (
            {"targets": [{"kind": "C", "args": [1, 2], "letters": []}]},
            "C target holds the unknown key 'letters'",
        ),
    ],
)
def test_cert_assemble_rejects_an_unknown_key(tmp_path, capsys, change, message):
    spec = {"n": 5, "m": 2, "targets": [{"kind": "C", "args": [1, 2]}], **change}
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    assert_rejected(capsys, ["cert", "assemble", str(f)], message)


def test_cert_assemble_rejects_a_spec_without_targets(tmp_path, capsys):
    # assembled a one-element certificate with status 0
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps({"n": 5, "m": 2}))
    assert_rejected(capsys, ["cert", "assemble", str(f)], "assembly spec lacks 'targets'")


def test_cert_assemble_rejects_a_chi_seed_key_that_names_no_target(tmp_path, capsys):
    # the value was ignored and the target got character 0
    other = autf.format_automorphism(autf.make_magnus_C(2, 1, 5))
    spec = {
        "n": 5,
        "m": 2,
        "targets": [{"kind": "C", "args": [1, 2]}],
        "chi_seed": {other: "1/2"},
    }
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    message = re.escape(f"chi_seed key {other!r} is no target's text")
    assert_rejected(capsys, ["cert", "assemble", str(f)], message)
