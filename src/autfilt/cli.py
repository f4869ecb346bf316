"""Command line entry point.

Subcommands:

* verify <suite>      run a named verification suite, write a JSON report,
                      exit nonzero iff some record FAILs
* depth <file>        filtration depth of an automorphism given in the
                      text format on one line (optionally followed by
                      one `inverse:` line)
* cert check <file>   verify a certificate JSON file
* cert assemble <file> build a certificate from an assembly description
"""

from __future__ import annotations

import argparse
import json
import sys

from . import autf, bnscert, magnus, suites


# The verify flags that set suite parameters, with their argparse options;
# none has a default, so a suite default stands unless its flag is given.
_SUITE_FLAGS = {
    **dict.fromkeys(("n", "k", "g", "m", "trials", "seed"), {"type": int}),
    "extended_sp_generators": {
        "action": "store_true",
        "help": "add extra symplectic transvections to the sp-orbit saturation",
    },
}


def _suite_params(args):
    """Each given flag under <flag>_values as a 1-tuple if the suite takes
    that, else under <flag>; suites.run rejects a flag it takes neither way."""
    takes = suites.parameters(args.suite)
    params = {}
    for flag in _SUITE_FLAGS:
        value = getattr(args, flag)
        if value is not None:
            if f"{flag}_values" in takes:
                flag, value = f"{flag}_values", (value,)
            params[flag] = value
    return params


def cmd_verify(args):
    report = suites.run(args.suite, _suite_params(args), out_path=args.out)
    for record in report.records:
        print(f"[{record.status}] {record.claim} ({record.wall_time_s:.2f}s)")
    print(f"suite {report.suite}: {report.status}")
    if args.out:
        print(f"report written to {args.out}")
    return 0 if report.status == "PASS" else 1


def _load_automorphism(path):
    """One automorphism line, then at most one `inverse:` line; blank lines
    and `#` comments are skipped, and any other line is a ValueError."""
    text = inverse_text = None
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if text is None:
                text = line
            elif inverse_text is None and line.startswith("inverse:"):
                inverse_text = line[len("inverse:"):]
            else:
                raise ValueError(
                    f"line {number}: expected at most one 'inverse:' line "
                    f"after the automorphism, got {line!r}"
                )
    if text is None:
        raise ValueError("empty automorphism file")
    return autf.parse_automorphism(text, inverse_text=inverse_text)


# The largest --cutoff depth accepts, and the largest cost L * a^cutoff of
# expanding a deviation word of L letters over a distinct indices: it holds
# about a^cutoff coefficients; each letter adds into the degrees below the
# top one and into one a^(cutoff-1)-field sum of the top degree, which is
# shifted into place once per word, so L * a^cutoff bounds the work.
MAX_CUTOFF = 10
MAX_EXPANSION_COST = 25_000_000


def _check_expansion_cost(phi, cutoff):
    """ValueError when the reduced deviation word x_i^-1 phi(x_i) of some
    generator costs more than MAX_EXPANSION_COST to expand."""
    for i in range(1, phi.rank + 1):
        letters = magnus.deviation_word(phi, i).letters
        a = len({j for j, _ in letters})
        if len(letters) * a**cutoff > MAX_EXPANSION_COST:
            raise ValueError(
                f"x{i}^-1 phi(x{i}) has {len(letters)} letters over {a} indices, "
                f"and {len(letters)} * {a}^{cutoff} is over the bound "
                f"MAX_EXPANSION_COST = {MAX_EXPANSION_COST}"
            )


def cmd_depth(args):
    if not 2 <= args.cutoff <= MAX_CUTOFF:
        side = "under 2" if args.cutoff < 2 else "over the bound MAX_CUTOFF"
        raise ValueError(f"--cutoff {args.cutoff} is {side}: depth takes 2..{MAX_CUTOFF}")
    phi = _load_automorphism(args.file)
    _check_expansion_cost(phi, args.cutoff)
    depth = magnus.johnson_depth(phi, args.cutoff)
    out = {
        "rank": phi.rank,
        "cutoff": args.cutoff,
        "depth": str(depth) if depth is not None else f">={args.cutoff}",
        "is_identity_on_abelianization": autf.is_IA(phi),
        "support": sorted(autf.minimal_support(phi)),
        "complexity": autf.complexity(phi),
    }
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def cmd_cert_check(args):
    with open(args.file) as f:
        cert = bnscert.BnsCertificate.from_json(f.read())
    verdict = bnscert.check_certificate(cert)
    print(json.dumps(verdict.to_json_obj(), sort_keys=True, indent=2))
    return 0 if verdict.valid else 1


def _require(ok, name, expected, value):
    if not ok:
        raise ValueError(f"assembly {name!r} must be {expected}, got {value!r}")


def _is_int_list(value):
    return isinstance(value, list) and all(map(autf.is_json_int, value))


# The most letters of a word target, checked before any letter is read.
# Assembly and the check that follows it grow exponentially with the word
# in the worst case: for C12 conjugated by alternating R13, R31 letters the
# command took 0.81 s at 10 letters (0.05 s assembling, 0.65 s checking)
# and 17.6 s at 12, while the slowest of 20 random conjugators took 0.17 s
# at 10 and 0.20 s at 12 (fresh processes, n = 5, m = 2; 2-vCPU host,
# Python 3.11).
MAX_TARGET_LETTERS = 10


def _target_from_spec(spec, n):
    (kind,) = autf.json_fields(
        spec, ("kind",), "assembly target", ("args", "letters", "label")
    )
    if kind in ("C", "M"):
        (args,) = autf.json_fields(spec, ("args",), f"{kind} target", ("kind", "label"))
        arity = 2 if kind == "C" else 3
        ok = _is_int_list(args) and len(args) == arity
        _require(ok, "args", f"a list of {arity} integers", args)
        if len(set(args)) != arity or not all(1 <= a <= n for a in args):
            raise ValueError(
                f"{kind} target args {args} must be {arity} distinct indices in 1..{n}"
            )
        make = autf.c_nielsen_word if kind == "C" else autf.m_nielsen_word
        word, label = make(*args), kind + "".join(map(str, args))
    elif kind == "word":
        (letters,) = autf.json_fields(
            spec, ("letters",), "word target", ("kind", "label")
        )
        expected = "a list of [side, i, j, exp]"
        _require(isinstance(letters, list), "letters", expected, letters)
        if len(letters) > MAX_TARGET_LETTERS:
            raise ValueError(
                f"word target has {len(letters)} letters, over the bound "
                f"MAX_TARGET_LETTERS = {MAX_TARGET_LETTERS}"
            )
        word, label = tuple(autf.nielsen_letter(l, n) for l in letters), "word"
    else:
        raise ValueError(f"unknown target kind {kind!r}")
    label = spec.get("label", label)
    _require(isinstance(label, str), "label", "a string", label)
    return label, word


def _assemble(spec):
    """Certificate and report for an assembly spec; a missing, unknown or
    wrongly typed field raises a ValueError naming it."""
    n, m, targets = autf.json_fields(
        spec, ("n", "m", "targets"), "assembly spec", ("chi_seed", "chooser_value")
    )
    for name, value in (("n", n), ("m", m)):
        _require(autf.is_json_int(value), name, "an integer", value)
    if m < 2:
        raise ValueError(f"assembly spec needs m >= 2, got m={m}")
    if n > autf.MAX_RANK:
        raise ValueError(f"assembly n={n} is over the bound MAX_RANK = {autf.MAX_RANK}")
    _require(isinstance(targets, list), "targets", "a list", targets)
    # each target's witness has 2 entries, and `cert check` reads them back
    if 2 * len(targets) > bnscert.MAX_WITNESS_ENTRIES:
        raise ValueError(
            f"assembly spec has {len(targets)} targets, over the bound "
            f"MAX_WITNESS_ENTRIES / 2 = {bnscert.MAX_WITNESS_ENTRIES // 2}"
        )
    chi_seed = spec.get("chi_seed", {})
    _require(isinstance(chi_seed, dict), "chi_seed", "an object", chi_seed)
    chi_seed = {
        k: autf.json_fraction(v, f"assembly 'chi_seed' value for {k!r}")
        for k, v in chi_seed.items()
    }
    chooser_value = autf.json_fraction(
        spec.get("chooser_value", 1), "assembly 'chooser_value'"
    )
    return bnscert.assemble_certificate(
        n,
        m,
        [_target_from_spec(t, n) for t in targets],
        chi_seed=chi_seed,
        chooser_value=chooser_value,
    )


def cmd_cert_assemble(args):
    with open(args.file) as f:
        spec = autf.read_json(f.read(), "assembly spec")
    cert, report = _assemble(spec)
    verdict = bnscert.check_certificate(cert)
    text = cert.to_json()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
            f.write("\n")
        print(f"certificate written to {args.out}")
    else:
        print(text)
    print(
        json.dumps(
            {
                "valid": verdict.valid,
                "elements": len(cert.elements),
                "forced_positions": report.forced_positions,
                "vertex_order": report.vertex_order,
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0 if verdict.valid else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="autfilt",
        description="exact verification suites for free group automorphism computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=suites.SUITE_NAMES)
    for flag, options in _SUITE_FLAGS.items():
        p_verify.add_argument("--" + flag.replace("_", "-"), default=None, **options)
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(fn=cmd_verify)

    p_depth = sub.add_parser("depth", help="filtration depth of an automorphism file")
    p_depth.add_argument("file")
    p_depth.add_argument("--cutoff", type=int, default=6)
    p_depth.set_defaults(fn=cmd_depth)

    p_cert = sub.add_parser("cert", help="certificate operations")
    cert_sub = p_cert.add_subparsers(dest="cert_command", required=True)
    p_check = cert_sub.add_parser("check", help="verify a certificate JSON file")
    p_check.add_argument("file")
    p_check.set_defaults(fn=cmd_cert_check)
    p_assemble = cert_sub.add_parser(
        "assemble", help="assemble a certificate from a description file"
    )
    p_assemble.add_argument("file")
    p_assemble.add_argument("--out", default=None)
    p_assemble.set_defaults(fn=cmd_cert_assemble)
    return parser


def main(argv=None):
    """Exit status 0 on success, 1 for a failing suite or an invalid
    certificate, 2 for a rejected input (as for a bad flag)."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"autfilt: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
