"""In-process tracing of cartanlab, wrapped entirely from the outside.

Spans are kept in memory as [name, start, end, parent, command] lists and
written out when the run ends.  Hot primitives (compose, natural_leq,
CocycleTable.entry_at, Extension.multiply) are counted, not spanned: a span
per call would cost more than the call.

``from .semigroup_core import compose`` copies the binding, so every wrapped
function is rebound in each cartanlab module that holds it by name.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute) pairs; a class attribute is written "Class.method".
SPANNED = [
    ("cartanlab.cli", "parse"),
    ("cartanlab.cli", "build_extension"),
    ("cartanlab.generators", "rook_monoid"),
    ("cartanlab.generators", "eqrel_monoid"),
    ("cartanlab.generators", "product_monoid"),
    ("cartanlab.semigroup_core", "classify"),
    ("cartanlab.boolean_monoid", "check_axioms"),
    ("cartanlab.extension", "validate_cocycle"),
    ("cartanlab.extension", "cohomologous"),
    ("cartanlab.extension", "validate_section"),
    ("cartanlab.extension", "order_preserving_section"),
    ("cartanlab.extension", "extensions_equivalent"),
    ("cartanlab.kernel_rep", "lambda_matrix"),
    ("cartanlab.vn_oracle", "span_basis"),
    ("cartanlab.vn_oracle", "masa_check"),
    ("cartanlab.vn_oracle", "commutant_dimension"),
    ("cartanlab.vn_oracle", "expectation_properties"),
    ("cartanlab.vn_oracle", "recover_extension"),
    ("cartanlab.vn_oracle", "cartan_report"),
    ("cartanlab.spectral_bimodule", "enumerate_spectral_sets"),
    ("cartanlab.spectral_bimodule", "spectral_closure"),
    ("cartanlab.spectral_bimodule", "verify_subdiagonal"),
    ("cartanlab.spectral_bimodule", "psi"),
    ("cartanlab.spectral_bimodule", "theta"),
    ("cartanlab.spectral_bimodule", "msd"),
    ("cartanlab.spectral_bimodule", "mtr"),
]
COUNTED = [
    ("cartanlab.semigroup_core", "compose"),
    ("cartanlab.semigroup_core", "natural_leq"),
    ("cartanlab.extension", "CocycleTable.entry_at"),
    ("cartanlab.extension", "Extension.multiply"),
]
SVD = "numpy.linalg.svd"


def _short(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Install with ``install()``, run commands inside ``command()``, and
    always ``uninstall()``; spans and counts stay on the object."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.command_id = None
        self.svd_factor_bytes = 0
        self.input_bytes = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.command_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def command(self, command_id, label):
        """Context manager: the root span of one command."""
        tracer = self

        class _Root:
            def __enter__(self):
                tracer.command_id = command_id
                self.rec = tracer._open(f"command:{label}")
                return self.rec

            def __exit__(self, *exc):
                tracer._close(self.rec)
                tracer.command_id = None
                return False

        return _Root()

    def depth(self, name):
        """How many open spans carry ``name``."""
        return sum(self.spans[i][0] == name for i in self.stack)

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _svd(self, fn):
        spanned = self._spanned(SVD, fn)

        def wrapper(*args, **kwargs):
            out = spanned(*args, **kwargs)
            arrays = out if isinstance(out, tuple) else (out,)
            self.svd_factor_bytes = max(
                self.svd_factor_bytes, sum(a.size * a.itemsize for a in arrays)
            )
            if self.depth("vn_oracle.recover_extension"):
                self.counts["vn_oracle.recovery_svd"] += 1
            return out

        return wrapper

    def _parse(self, fn):
        def wrapper(text):
            self.input_bytes += len(text.encode("utf-8"))
            return fn(text)

        return self._spanned("cli.parse", wrapper)

    def _recover(self, fn):
        def wrapper(*args, **kwargs):
            S_prime, iso = fn(*args, **kwargs)
            self.counts["vn_oracle.recovered_nonzero"] += len(S_prime) - 1
            return S_prime, iso

        return self._spanned("vn_oracle.recover_extension", wrapper)

    def _msd(self, fn):
        def wrapper(*args, **kwargs):
            members = fn(*args, **kwargs)
            if self.depth("spectral_bimodule.msd") == 1:
                self.counts["spectral_bimodule.msd_members"] += len(members)
            return members

        return self._spanned("spectral_bimodule.msd", wrapper)

    def _enumerate(self, fn):
        def wrapper(*args, **kwargs):
            sets = fn(*args, **kwargs)
            parent = self.spans[self.stack[-1]][3]
            if parent >= 0 and self.spans[parent][0] == "spectral_bimodule.msd":
                self.counts["spectral_bimodule.msd_scanned"] += len(sets)
            return sets

        return self._spanned("spectral_bimodule.enumerate_spectral_sets", wrapper)

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "cartanlab" and not mod_name.startswith("cartanlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        import numpy

        special = {
            "cli.parse": self._parse,
            "vn_oracle.recover_extension": self._recover,
            "spectral_bimodule.msd": self._msd,
            "spectral_bimodule.enumerate_spectral_sets": self._enumerate,
        }
        for module, attr in SPANNED:
            name = _short(module, attr)
            original = getattr(sys.modules[module], attr)
            make = special.get(name)
            wrapper = make(original) if make else self._spanned(name, original)
            self._rebind(original, wrapper)
        for module, attr in COUNTED:
            name = _short(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[module], cls_name)
                original = vars(cls)[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._counted(name, original))
            else:
                original = getattr(sys.modules[module], attr)
                self._rebind(original, self._counted(name, original))
        original = numpy.linalg.svd
        self._patches.append((numpy.linalg, "svd", original))
        numpy.linalg.svd = self._svd(original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration less its children's."""
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def outermost(self, name):
        """Spans of ``name`` with no ancestor of the same name."""
        found = []
        for i, rec in enumerate(self.spans):
            if rec[0] != name:
                continue
            p = rec[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                found.append(i)
        return found

    def inclusive(self, *names):
        return sum(
            self.spans[i][2] - self.spans[i][1] for name in names for i in self.outermost(name)
        )

    def calls(self, name):
        return sum(1 for rec in self.spans if rec[0] == name) + self.counts.get(name, 0)

    def table(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        selfs = self.self_times()
        rows = {}
        for i, rec in enumerate(self.spans):
            if rec[0].startswith("command:"):
                continue
            calls, _, self_s = rows.get(rec[0], (0, 0.0, 0.0))
            rows[rec[0]] = (calls + 1, 0.0, self_s + selfs[i])
        return {name: (c, self.inclusive(name), s) for name, (c, _, s) in sorted(rows.items())}

    def dump(self):
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "command": c}
                for n, s, e, p, c in self.spans
            ],
            "counts": dict(self.counts),
        }
