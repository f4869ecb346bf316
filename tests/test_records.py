"""The package's records: plain slotted classes on autf.Record, and an
import of the package that loads neither dataclasses nor inspect."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from autfilt import autf, bnscert, commgraph, exactlin, magnus, suites

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_import_loads_neither_dataclasses_nor_inspect():
    # modules already loaded at start (by this host's site, say) do not count
    code = (
        "import sys; before = set(sys.modules); "
        "import autfilt.suites, autfilt.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = set(done.stdout.split())
    assert {"autfilt.suites", "autfilt.cli"} <= added
    assert not added & {"dataclasses", "inspect"}


_PHI = autf.eval_nielsen_word(autf.c_nielsen_word(1, 2), 3)
_BASES = [exactlin.SubspaceBasis(exactlin.VSpace(2)) for _ in "ab"]


def _row(cls, fields, values, others, *, frozen, hashable, defaults=None, json=False):
    """One record class: its fields in order; values and other values that
    differ in every field, each one-field change still constructible;
    whether it is frozen and hashable; (the number of fields given, the
    defaults of the rest) where it has defaults; and whether to_json_obj
    gives the field dict."""
    return pytest.param(
        cls, fields, values, others, frozen, hashable, defaults, json, id=cls.__name__
    )


RECORDS = [
    _row(
        bnscert.Witness,
        ("index", "earlier", "word"),
        (2, 1, (-1, 2)),
        (3, 2, ()),
        frozen=True,
        hashable=True,
    ),
    _row(
        bnscert.BnsCertificate,
        ("elements", "chi", "witnesses"),
        ((_PHI,), (Fraction(1),), ()),
        ((), (Fraction(2),), (bnscert.Witness(2, 1, ()),)),
        frozen=True,
        hashable=True,
    ),
    _row(
        bnscert.Verdict,
        ("valid", "failed_condition", "failed_index", "detail", "scope_note"),
        (False, "shape", 3, "no elements", "scope"),
        (True, None, None, "", bnscert.SCOPE_NOTE),
        frozen=True,
        hashable=True,
        defaults=(1, {
            "failed_condition": None,
            "failed_index": None,
            "detail": "",
            "scope_note": bnscert.SCOPE_NOTE,
        }),
        json=True,
    ),
    _row(
        bnscert.AssemblyReport,
        ("vertex_order", "forced_positions"),
        ([{"I": [1, 2], "conjugator": []}], [2]),
        ([], []),
        frozen=False,
        hashable=False,
    ),
    _row(
        exactlin.Space,
        ("family", "params"),
        ("T", (3, 2)),
        ("W", (3, 3)),
        frozen=True,
        hashable=True,
    ),
    _row(
        exactlin.SaturationResult,
        ("basis", "closed", "rounds", "applications"),
        (_BASES[0], True, 2, 7),
        (_BASES[1], False, 3, 8),
        frozen=False,
        hashable=False,
    ),
    _row(
        exactlin.ZReductionReport,
        ("delta", "fresh_index", "c_value", "leading_coefficient", "lower_terms_ok",
         "vector_match"),
        ((1, (1, 1)), 3, 2, 2, True, True),
        ((2, (2, 2)), 4, 3, 6, False, False),
        frozen=False,
        hashable=False,
    ),
    _row(
        exactlin.KernelClaimReport,
        ("n", "k", "ambient_dimension", "seed_count", "seeds_in_kernel",
         "orbit_dimension", "kernel_dimension", "orbit_inside_kernel",
         "saturation_closed", "equal"),
        (4, 2, 20, 8, True, 12, 12, True, True, True),
        (5, 3, 21, 9, False, 13, 14, False, False, False),
        frozen=False,
        hashable=False,
        json=True,
    ),
    # frozen, but its coeffs dict makes the hash raise, as it always has
    _row(
        magnus.TruncatedSeries,
        ("rank", "cutoff", "coeffs"),
        (2, 3, {(1,): 1}),
        (3, 4, {}),
        frozen=True,
        hashable=False,
    ),
    _row(
        suites.SuiteRecord,
        ("claim", "status", "values", "wall_time_s"),
        ("claim", "PASS", {"x": 1}, 0.5),
        ("other", "FAIL", {}, 0.0),
        frozen=False,
        hashable=False,
    ),
    _row(
        suites.SuiteReport,
        ("suite", "params", "records"),
        ("iaab", {"n_values": (3,)}, []),
        ("paths", {}, [suites.SuiteRecord("c", "PASS", {}, 0.0)]),
        frozen=False,
        hashable=False,
    ),
    _row(
        commgraph.SubgroupHandle,
        ("rank", "indices", "conjugator"),
        (5, frozenset({1, 2}), (("L", 1, 3, 1),)),
        (6, frozenset({2, 3}), ()),
        frozen=True,
        hashable=True,
        defaults=(2, {"conjugator": ()}),
    ),
]


@pytest.mark.parametrize(
    "cls, fields, values, others, frozen, hashable, defaults, json", RECORDS
)
def test_record_behaviour(cls, fields, values, others, frozen, hashable, defaults, json):
    rec = cls(*values)
    assert rec == cls(**dict(zip(fields, values)))
    assert [getattr(rec, f) for f in fields] == list(values)
    assert list(rec.as_dict().items()) == list(zip(fields, values))
    assert repr(rec).startswith(f"{cls.__name__}(")
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    # == reads every field, and only a record of the same class
    for i, other in enumerate(others):
        assert rec != cls(*values[:i], other, *values[i + 1:]), fields[i]
    assert rec != values and rec != dict(zip(fields, values))
    if hashable:
        assert hash(rec) == hash(cls(*values))
        assert len({rec, cls(*values)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(rec)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(rec, fields[0], values[0])
        with pytest.raises(AttributeError):
            setattr(rec, "no_such_field", 1)
    else:
        setattr(rec, fields[0], others[0])
        assert getattr(rec, fields[0]) == others[0]
    # a default is one immutable value, shared by every record that omits it
    for default in cls._defaults.values():
        hash(default)
        assert not callable(default)
    if defaults is not None:
        given, rest = defaults
        built = cls(*values[:given])
        assert {f: getattr(built, f) for f in fields[given:]} == rest
    if defaults is None or defaults[0] > 0:
        with pytest.raises(TypeError):
            cls()
    if json:
        assert cls(*values).to_json_obj() == dict(zip(fields, values))
