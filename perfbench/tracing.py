"""Spans around the public functions of each layer, recorded from outside.

``Tracer.install`` replaces each wrap target (a public module function or
class attribute of ``autfilt``) with a wrapper that records one span per
call: name, start, end and the enclosing span.  Spans stay in memory, in
flat arrays, until ``write`` saves them when the run ends.  The program
itself is not modified; ``uninstall`` puts the original attributes back.

A missing wrap target is an error, not a silent skip, so a refactor that
renames a layer's entry point breaks the traced run instead of dropping
the layer from the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter

LAYERS = ("autf", "lie", "magnus", "exactlin", "commgraph", "bnscert", "suites")


def _letters_out(counts, args, result):
    counts["autf.compose.letters_out"] += sum(len(w.letters) for w in result.images)


def _expand_sizes(counts, args, result):
    counts["magnus.expand.letters_in"] += len(args[0].letters)
    counts["magnus.expand.terms_out"] += len(result.coeffs)


def _apply_terms(counts, args, result):
    counts["exactlin.op_apply.terms_out"] += len(result.coords)


def _insert_accepted(counts, args, result):
    counts["exactlin.insert.accepted"] += result is not None


def _saturation_work(counts, args, result):
    counts["exactlin.orbit_saturate.rounds"] += result.rounds
    counts["exactlin.orbit_saturate.applications"] += result.applications


# (module, class or None, attribute, span name, extra counts or None).
# Aliases defined as ``__call__ = apply`` or ``__mul__ = compose`` hold the
# original function, so both names are wrapped, under one span name.
WRAPS = (
    ("autf", "FreeAutomorphism", "compose", "autf.compose", _letters_out),
    ("autf", "FreeAutomorphism", "__mul__", "autf.compose", _letters_out),
    ("autf", None, "group_commutator", "autf.group_commutator", None),
    ("magnus", None, "magnus_expand", "magnus.expand", _expand_sizes),
    ("magnus", None, "johnson_image", "magnus.johnson_image", None),
    ("magnus", None, "johnson_depth", "magnus.johnson_depth", None),
    ("lie", None, "lie_from_tensor_coords", "lie.from_tensor_coords", None),
    ("lie", None, "lyndon_word_tensor", "lie.lyndon_word_tensor", None),
    ("exactlin", "LinearOperator", "apply", "exactlin.op_apply", _apply_terms),
    ("exactlin", "LinearOperator", "__call__", "exactlin.op_apply", _apply_terms),
    ("exactlin", "SubspaceBasis", "insert", "exactlin.insert", _insert_accepted),
    ("exactlin", "SubspaceBasis", "contains", "exactlin.contains", None),
    ("exactlin", None, "orbit_saturate", "exactlin.orbit_saturate", _saturation_work),
    ("exactlin", None, "kernel_basis", "exactlin.kernel_basis", None),
    ("exactlin", None, "induced_on", "exactlin.induced_on", None),
    ("exactlin", None, "tau_map", "exactlin.tau_map", None),
    ("commgraph", None, "commutes", "commgraph.commutes", None),
    ("commgraph", None, "conjugate_path", "commgraph.conjugate_path", None),
    ("commgraph", None, "verify_path", "commgraph.verify_path", None),
    ("bnscert", None, "assemble_certificate", "bnscert.assemble", None),
    ("bnscert", None, "check_certificate", "bnscert.check", None),
    ("suites", None, "run", "suites.run", None),
)

SPAN_NAMES = tuple(dict.fromkeys(w[3] for w in WRAPS))
EXTRA_COUNTS = (
    "autf.compose.letters_out",
    "magnus.expand.letters_in",
    "magnus.expand.terms_out",
    "exactlin.op_apply.terms_out",
    "exactlin.orbit_saturate.rounds",
    "exactlin.orbit_saturate.applications",
)


def _target(module, cls, attr):
    """The owner and current value of a public wrap target, or an error."""
    where = f"autfilt.{module}.{cls + '.' if cls else ''}{attr}"
    if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
        raise ValueError(f"wrap target {where} is not public")
    owner = importlib.import_module(f"autfilt.{module}")
    if cls is not None:
        owner = getattr(owner, cls, None)
    # a class attribute must be defined on the class itself, not inherited
    original = vars(owner).get(attr) if owner is not None else None
    if not callable(original):
        raise RuntimeError(f"wrap target {where} is missing")
    return owner, original


class Tracer:
    """Records spans of wrapped calls for one run of a workload."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = list(SPAN_NAMES)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = Counter()
        self._stack = [-1]
        self._saved = []

    def install(self, wraps=WRAPS):
        """Wrap every target; on a missing one, restore all and raise."""
        try:
            for module, cls, attr, span, extra in wraps:
                owner, original = _target(module, cls, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, self.names.index(span), extra))
        except Exception:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name_id, extra):
        name, start, end, parent = self.name, self.start, self.end, self.parent
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if extra is not None:
                extra(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self):
        """Calls and self time per span name, plus the extra counts.

        Self time is a span's duration minus the durations of its direct
        children; children nest strictly inside their parent.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            calls[key] += 1
            self_s[key] += self.end[i] - self.start[i] - child[i]
        out = {}
        for key in self.names:
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_s[key]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".", 1)[0] == layer
            )
        for key in EXTRA_COUNTS:
            out[key] = self.counts[key]
        inserts = calls["exactlin.insert"]
        accepted = self.counts["exactlin.insert.accepted"]
        out["exactlin.insert.accept_ratio"] = accepted / inserts if inserts else 0.0
        return out

    def write(self, path):
        """Save the spans: a JSON header line, then one line per span.

        A span line is ``name_index start end parent_index``, with times in
        seconds of ``time.perf_counter`` and -1 for a span with no parent.
        """
        with open(path, "w") as f:
            f.write(json.dumps({"run_id": self.run_id, "names": self.names,
                                "fields": ["name", "start", "end", "parent"]}))
            f.write("\n")
            for i in range(len(self.start)):
                f.write(f"{self.name[i]} {self.start[i]:.9f} {self.end[i]:.9f} "
                        f"{self.parent[i]}\n")
