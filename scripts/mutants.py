#!/usr/bin/env python3
"""Mutant catalogue: each row is a bug an oracle test is there to catch.

A row names the mutant, the file under src/ it edits, the exact old text
(which must occur exactly once in that file), the new text, and the tests
that must kill it.  For each row the script copies src/ and tests/ to a
temporary directory, applies the edit there, runs the named tests with
pytest -x and prints KILLED (a test failed) or SURVIVED (all passed).
The named tests are first run once on an unedited copy, where they must
pass.  The exit status is nonzero if a mutant survives or a run errs.

    python3 scripts/mutants.py            # every row
    python3 scripts/mutants.py NAME ...   # the named rows only

Needs only the standard library and pytest.  The repository itself is
never edited.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (name, file, old text, new text, tests that must kill it)
MUTANTS = [
    (
        # the K handle names the same subgroup either way, since the
        # letter's support misses K; only the segment oracle sees the label
        "detour-label",
        "src/autfilt/commgraph.py",
        "handles.append(trusted(n, frozenset(K), word[pos + 1:]))",
        "handles.append(trusted(n, frozenset(K), word[pos:]))",
        [
            "tests/test_commgraph.py::test_conjugate_path_matches_segment_oracle",
            "tests/test_commgraph.py::test_conjugate_path_matches_segment_oracle_fuzz",
        ],
    ),
    (
        # the next layer must be taken in ascending vertex index, so that
        # the first vertex to reach u is its least-index earlier neighbour
        "bfs-layer-unsorted",
        "src/autfilt/bnscert.py",
        "        layer = sorted(found)\n",
        "        layer = found\n",
        [
            "tests/test_bnscert.py::test_breadth_first_matches_adjacency_oracle",
            "tests/test_properties.py::test_breadth_first_matches_adjacency_oracle",
        ],
    ),
    (
        # every vertex not yet reached must be tested, lower-indexed ones too
        "bfs-tests-only-higher-vertices",
        "src/autfilt/bnscert.py",
        "            for u in range(len(handles)):\n",
        "            for u in range(v + 1, len(handles)):\n",
        [
            "tests/test_bnscert.py::test_breadth_first_matches_adjacency_oracle",
            "tests/test_properties.py::test_breadth_first_matches_adjacency_oracle",
        ],
    ),
    (
        "inverse-letter-subtracts-old-top-block",
        "src/autfilt/magnus.py",
        '        *(f"            {b} -= {step}" for b, step in moves),\n'
        '        f"            acc[p] -= {top}",\n',
        '        f"            acc[p] -= {top}",\n'
        '        *(f"            {b} -= {step}" for b, step in moves),\n',
        [
            "tests/test_magnus.py::test_packed_blocks_match_shift_add_oracle",
            "tests/test_properties.py::test_packed_blocks_match_shift_add_oracle",
        ],
    ),
    (
        "inverse-letter-updates-highest-degree-first",
        "src/autfilt/magnus.py",
        '*(f"            {b} -= {step}" for b, step in moves),',
        '*(f"            {b} -= {step}" for b, step in reversed(moves)),',
        [
            "tests/test_magnus.py::test_packed_blocks_match_shift_add_oracle",
            "tests/test_properties.py::test_packed_blocks_match_shift_add_oracle",
        ],
    ),
    (
        # the witness is built at once, through the dict that holds the
        # inverted letters of self.images
        "compose-shares-one-inverse-dict",
        "src/autfilt/autf.py",
        "        factors = (self.inverse_images, other.inverse_images)\n"
        "        composite = object.__new__(FreeAutomorphism)\n"
        "        composite._fill(self.rank, images, None, factors)\n",
        "        inverse_images = tuple(\n"
        "            _apply_images(other.inverse_images, w, inverted)\n"
        "            for w in self.inverse_images\n"
        "        )\n"
        "        composite = object.__new__(FreeAutomorphism)\n"
        "        composite._fill(self.rank, images, inverse_images, None)\n",
        ["tests/test_autf.py::test_compose_matches_per_occurrence_substitution"],
    ),
    (
        # the outer factor's witness is read only when the composite's is,
        # so a chain of composites reads them recursively
        "deferred-witness-skips-factor-witnesses",
        "src/autfilt/autf.py",
        "factors = (self.inverse_images, other.inverse_images)",
        "factors = ((w for f in (self,) for w in f.inverse_images), other.inverse_images)",
        ["tests/test_autf.py::test_long_composite_chain_inverts_without_recursion"],
    ),
    (
        "nielsen-letter-allows-i-equal-j",
        "src/autfilt/autf.py",
        "        and i != j\n",
        "",
        ["tests/test_autf.py::test_every_route_rejects_a_malformed_nielsen_letter"],
    ),
    (
        "commutes-always-true",
        "src/autfilt/commgraph.py",
        "    return _commutes_in_frame(\n",
        "    return True or _commutes_in_frame(\n",
        ["tests/test_commgraph.py::test_commutes_matches_group_commutator_oracle"],
    ),
    (
        "eliminate-without-scaling",
        "src/autfilt/exactlin.py",
        "    if a != 1:\n        for k in v:\n            v[k] *= a\n",
        "",
        ["tests/test_exactlin.py::test_reduced_basis_matches_min_pivot_oracle"],
    ),
    (
        # the pivot must be the least position, which is the least label
        "position-pivot-is-max",
        "src/autfilt/exactlin.py",
        "        p = min(residue)\n",
        "        p = max(residue)\n",
        [
            "tests/test_exactlin.py::test_reduced_basis_matches_min_pivot_oracle",
            "tests/test_exactlin.py::test_indexed_insert_matches_scanning_oracle_on_kernel_claim",
        ],
    ),
    (
        # the dual index c must step by the L Lyndon words of one dual slot
        "mk-position-wrong-dual-stride",
        "src/autfilt/exactlin.py",
        "{c * L: col[d] for c, col in enumerate(cols) if d in col}",
        "{c * (L - 1): col[d] for c, col in enumerate(cols) if d in col}",
        [
            "tests/test_exactlin.py::test_induced_images_match_unmemoised_product",
            "tests/test_exactlin.py::test_indexed_insert_matches_scanning_oracle_on_kernel_claim",
        ],
    ),
    (
        # a wedge sum that cancels must leave the row, not stay as a 0
        "w-lift-keeps-cancelled-sums",
        "src/autfilt/exactlin.py",
        "                    lie.tensor_add_into(out, {index[key]: c}, sign)\n",
        "                    out[index[key]] = out.get(index[key], 0) + sign * c\n",
        [
            "tests/test_exactlin.py::"
            "test_every_operator_builder_gives_trusted_rows_and_inverse_witness",
        ],
    ),
    (
        # a_i (label 2i - 1) sits at the even position 2i - 2, so parity of
        # positions is the opposite of parity of labels
        "pairing-parity-of-labels",
        "src/autfilt/exactlin.py",
        "        if x % 2 == 0:\n",
        "        if x % 2:\n",
        [
            "tests/test_exactlin.py::test_symplectic_pairing_on_the_int_basis",
            "tests/test_exactlin.py::test_sp_generators_preserve_form",
        ],
    ),
    (
        # the inverse witness of a transvection must subtract
        "transvection-inverse-adds",
        "src/autfilt/exactlin.py",
        "_operator_pair(space, row_function(1), row_function(-1), ",
        "_operator_pair(space, row_function(1), row_function(1), ",
        [
            "tests/test_exactlin.py::"
            "test_every_operator_builder_gives_trusted_rows_and_inverse_witness",
        ],
    ),
    (
        "sl-generators-unsigned-cycle",
        "src/autfilt/exactlin.py",
        "{n: {1: sign}}\n    bwd = {j + 1: {j: 1} for j in range(1, n)} | {1: {n: sign}}",
        "{n: {1: 1}}\n    bwd = {j + 1: {j: 1} for j in range(1, n)} | {1: {n: 1}}",
        ["tests/test_exactlin.py::test_sl_generators_generate"],
    ),
    (
        "sl-generators-e12-alone",
        "src/autfilt/exactlin.py",
        '    return [elementary_sl(1, 2, n), _moving_pair(VSpace(n), fwd, bwd, "P")]',
        "    return [elementary_sl(1, 2, n)]",
        ["tests/test_exactlin.py::test_sl_generators_generate"],
    ),
    (
        "depth-without-lower-cutoff-bound",
        "src/autfilt/cli.py",
        "if not 2 <= args.cutoff <= MAX_CUTOFF:",
        "if not args.cutoff <= MAX_CUTOFF:",
        ["tests/test_cli.py::test_depth_rejects_a_cutoff_under_two_before_reading_the_file"],
    ),
    (
        # importing inspect (or dataclasses) costs every process its start-up
        "suites-imports-inspect",
        "src/autfilt/suites.py",
        "import itertools\n",
        "import inspect\nimport itertools\n",
        ["tests/test_records.py::test_import_loads_neither_dataclasses_nor_inspect"],
    ),
    (
        # the witness words are read back with no bound on their entries
        "witness-entries-uncounted",
        "src/autfilt/bnscert.py",
        "        if entries > MAX_WITNESS_ENTRIES:\n",
        "        if False:\n",
        ["tests/test_cli.py::test_cert_check_rejects_witness_words_over_the_entry_bound"],
    ),
    (
        "inverse-check-letters-uncounted",
        "src/autfilt/autf.py",
        "        if built > MAX_CHECK_LETTERS:\n",
        "        if False:\n",
        ["tests/test_cli.py::test_cert_check_rejects_an_inverse_check_over_the_letter_bound"],
    ),
    (
        # M(1, 2, 2) then assembles the identity as a valid target
        "cm-target-args-not-distinct",
        "src/autfilt/cli.py",
        "if len(set(args)) != arity or not all(1 <= a <= n for a in args):",
        "if not all(1 <= a <= n for a in args):",
        [
            "tests/test_cli.py::"
            "test_cert_assemble_rejects_c_and_m_args_that_are_not_distinct_indices",
        ],
    ),
    (
        # depth is the last vanishing degree, one below the lowest nonzero one
        "depth-is-lowest-nonzero-degree",
        "src/autfilt/magnus.py",
        "    return lowest - 1 if lowest <= cutoff else None\n",
        "    return lowest if lowest <= cutoff else None\n",
        [
            "tests/test_magnus.py::test_depth_conjugation_generator",
            "tests/test_magnus.py::test_depth_matches_full_cutoff_expansion_per_index",
        ],
    ),
    (
        "record-eq-skips-last-field",
        "src/autfilt/autf.py",
        "        return self._values() == other._values()\n",
        "        return self._values()[:-1] == other._values()[:-1]\n",
        ["tests/test_records.py::test_record_behaviour"],
    ),
]


def _copy_tree(dest):
    for part in ("src", "tests"):
        shutil.copytree(
            ROOT / part,
            dest / part,
            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
        )


def _pytest(workdir, tests):
    """Exit status and output of pytest -x on the given tests in workdir."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    done = subprocess.run(
        argv + tests, cwd=workdir, env=env, capture_output=True, text=True
    )
    return done.returncode, done.stdout + done.stderr


def run(rows):
    """Print one line per row; returns True if every mutant was killed."""
    with tempfile.TemporaryDirectory(prefix="autfilt-mutants-") as tmp:
        clean = pathlib.Path(tmp) / "clean"
        _copy_tree(clean)
        tests = sorted({t for row in rows for t in row[4]})
        code, output = _pytest(clean, tests)
        if code != 0:
            print(output)
            print(f"ERROR the named tests fail on an unedited copy (status {code})")
            return False
        all_killed = True
        for name, path, old, new, kill_tests in rows:
            work = pathlib.Path(tmp) / name
            _copy_tree(work)
            source = (work / path).read_text()
            if source.count(old) != 1:
                print(f"ERROR {name}: the old text occurs {source.count(old)} times in {path}")
                all_killed = False
                continue
            (work / path).write_text(source.replace(old, new))
            start = time.perf_counter()
            code, output = _pytest(work, kill_tests)
            seconds = time.perf_counter() - start
            shutil.rmtree(work)
            if code == 1:
                print(f"KILLED   {name} ({seconds:.1f} s)")
            else:
                all_killed = False
                verdict = "SURVIVED" if code == 0 else f"ERROR (pytest status {code})"
                print(f"{verdict} {name} ({seconds:.1f} s)")
                if code != 0:
                    print(output)
        return all_killed


def main(argv):
    names = {row[0] for row in MUTANTS}
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(f"unknown mutant {', '.join(unknown)}; rows: {', '.join(sorted(names))}")
        return 2
    rows = [row for row in MUTANTS if not argv or row[0] in argv]
    return 0 if run(rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
