import json

import pytest

from autfilt import autf, cli, suites


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
def test_depth_file_rejects_extra_lines(tmp_path, tail, number):
    phi = autf.make_magnus_C(1, 2, 3)
    f = tmp_path / "auto.txt"
    inverse = autf.format_automorphism(phi.inverse())
    f.write_text(
        "# C12\n" + autf.format_automorphism(phi) + "\n" + tail.format(inverse=inverse)
    )
    with pytest.raises(ValueError, match=f"line {number}:"):
        cli.main(["depth", str(f)])


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
    from autfilt import bnscert

    cert, _ = bnscert.assemble_certificate(5, 2, [("C12", autf.c_nielsen_word(1, 2))])
    data = json.loads(cert.to_json())
    data["chi"][0] = "0"
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code = cli.main(["cert", "check", str(f)])
    assert code == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["failed_condition"] == "nonzero-at-first"


def test_kernel_claim_cli_no_full_closure(tmp_path):
    out = tmp_path / "kc.json"
    code = cli.main(
        ["verify", "kernel-claim", "--n", "4", "--k", "2", "--no-full-closure", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    values = data["records"][0]["values"]
    assert values["equal"] is True
    assert values["saturation_closed"] is False


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


def test_cert_assemble_rejects_n_over_the_rank_bound(tmp_path):
    spec = {"n": autf.MAX_RANK + 1, "m": 2, "targets": []}
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match="over the bound MAX_RANK"):
        cli.main(["cert", "assemble", str(f)])


def test_depth_rejects_a_cutoff_over_the_bound(tmp_path):
    # the expansion allocates per degree: a cutoff of 10^9 ran for minutes
    f = tmp_path / "auto.txt"
    f.write_text(autf.format_automorphism(autf.make_magnus_C(1, 2, 4)) + "\n")
    over = str(cli.MAX_CUTOFF + 1)
    with pytest.raises(ValueError, match="over the bound MAX_CUTOFF"):
        cli.main(["depth", str(f), "--cutoff", over])
    assert cli.main(["depth", str(f), "--cutoff", str(cli.MAX_CUTOFF)]) == 0


@pytest.mark.parametrize("cutoff", ["-1", "0", "1"])
def test_depth_rejects_a_cutoff_under_two_before_reading_the_file(tmp_path, cutoff):
    # a fixed generator has an empty deviation word, and the cost check
    # computed 0 ** -1; the file does not exist, so reading it would raise
    # FileNotFoundError, which is not a ValueError
    message = f"--cutoff {cutoff} is under 2: depth takes 2..{cli.MAX_CUTOFF}"
    with pytest.raises(ValueError, match=message):
        cli.main(["depth", str(tmp_path / "missing.txt"), "--cutoff", cutoff])


@pytest.mark.parametrize("suite", ["sl-reduction", "paths", "tau-identities"])
def test_verify_rejects_a_negative_trial_count(suite):
    # sl-reduction reported PASS with "samples": -1
    with pytest.raises(ValueError, match="--trials must be at least 0, got -1"):
        cli.main(["verify", suite, "--trials", "-1"])


@pytest.mark.parametrize(
    "suite, params, message",
    [
        ("depth-table", {"n": 3}, r"n=3 leaves fewer than two .* \(1, 2, 3\)"),
        ("tau-identities", {"n": 4}, r"n=4 leaves fewer than two .* \(1, 2, 3\)"),
        ("sp-orbit", {"g_values": (1, 3)}, r"every g >= 2, got g_values=\(1, 3\)"),
    ],
)
def test_suites_reject_sizes_too_small(suite, params, message):
    with pytest.raises(ValueError, match=message):
        suites.run(suite, params)


@pytest.mark.parametrize("suite", ["tau-identities", "depth-table"])
@pytest.mark.parametrize("k_values", [(0,), (1,), (-1,), (True,), (2.5,), 3])
def test_suites_reject_k_values_under_two(suite, k_values):
    # both suites run the S family at every k; k = 0 and -1 (`verify --k 0`)
    # raised a stray IndexError, k = 1 and True failed inside make_S
    # without naming the suite, and 2.5 and a bare 3 raised TypeError
    message = rf"suite {suite}: every entry of k_values must be an int of at least 2"
    with pytest.raises(ValueError, match=message):
        suites.run(suite, {"k_values": k_values})


def test_depth_rejects_an_expansion_over_the_cost_bound(tmp_path):
    # 94 letters over 6 indices: 94 * 6^10 is about 5.7e9, minutes to expand
    f = tmp_path / "auto.txt"
    f.write_text(autf.format_automorphism(autf.make_T(1, (2, 3, 4, 5, 6, 7), 7)) + "\n")
    with pytest.raises(ValueError, match="94 letters over 6 indices.*MAX_EXPANSION_COST"):
        cli.main(["depth", str(f), "--cutoff", "10"])
    # 22 letters over 4 indices: 22 * 4^10 is under the bound; its
    # expansion takes over a second, so only the check runs here
    cli._check_expansion_cost(autf.make_T(1, (2, 3, 4, 5), 5), 10)


@pytest.mark.parametrize("missing", ["n", "m", "kind", "args"])
def test_cert_assemble_rejects_missing_key(tmp_path, missing):
    spec = {"n": 5, "m": 2, "targets": [{"kind": "C", "args": [1, 2]}]}
    spec.pop(missing, None)
    spec["targets"][0].pop(missing, None)
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match=repr(missing)):
        cli.main(["cert", "assemble", str(f)])


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
def test_cert_assemble_rejects_wrongly_typed_value(tmp_path, field, change):
    spec = {"n": 5, "m": 2, "targets": [{"kind": "C", "args": [1, 2]}], **change}
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match=repr(field)):
        cli.main(["cert", "assemble", str(f)])


@pytest.mark.parametrize("value", ["1_0", "\u0661", " 1/2 ", "0.5", "1e3", "+3"])
@pytest.mark.parametrize("field", ["chooser_value", "chi_seed"])
def test_cert_assemble_reads_ascii_fraction_strings_only(tmp_path, field, value):
    spec = {"n": 5, "m": 2, "targets": [{"kind": "C", "args": [1, 2]}]}
    chi_seed_key = autf.format_automorphism(autf.make_magnus_C(1, 2, 5))
    spec[field] = {chi_seed_key: value} if field == "chi_seed" else value
    f = tmp_path / "assembly.json"
    f.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match=repr(field)):
        cli.main(["cert", "assemble", str(f)])
