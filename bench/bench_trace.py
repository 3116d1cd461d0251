"""Timing wrappers installed around padicorder's public functions.

The wrappers live entirely in the benchmark: `Tracer.install` replaces
every module-level binding of a traced function (including the copies
made by ``from .x import y``) and the traced methods on their classes;
`Tracer.uninstall` puts the originals back.  Spans are kept in flat
in-memory arrays and written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, attribute) of each traced function; "Class.method" for methods.
SPANNED = (
    ("isolation", "isolate_roots"),
    ("places", "archimedean_witness"),
    ("places", "verify_witness_certificate"),
    ("places", "padic_witness"),
    ("places", "find_witness"),
    ("intpoly", "is_squarefree"),
    ("intpoly", "root_of_unity_order"),
    ("intpoly", "check_irreducible"),
    ("intpoly", "poly_gcd"),
    ("intpoly", "IntPolynomial.exact_div"),
    ("projaut", "minimal_polynomial"),
    ("projaut", "conjugation_operator"),
    ("projaut", "factor_out_cyclotomics"),
    ("projaut", "linear_order"),
    ("haar", "integrate"),
    ("padic", "rational_valuation"),
    ("intervals", "p_power_enclosure"),
    ("intervals", "kth_root_enclosure"),
    ("algnum", "AlgebraicNumberSpec.from_poly"),
    ("parsing", "parse_polynomial"),
    ("parsing", "parse_multipoly"),
    ("parsing", "parse_matrix"),
    ("cli", "main"),
)
# Hot inner calls that are only counted: their time stays with the caller.
COUNTED = (
    ("haar", "MultiPoly.__call__"),
    ("haar", "Cylinder.children"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.item = -1
        self.counts: dict[str, int] = {}
        # values noted by hooks: key -> [sum, count, min, max]
        self.notes: dict[str, list] = {}
        self._restore: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------------

    def install(self, hooks=None):
        """Wrap every traced function; hooks maps a span name to a
        callable(tracer, args, kwargs, result) run after each call."""
        hooks = hooks or {}
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "padicorder" or name.startswith("padicorder."))
        }
        for modname, attr in SPANNED + COUNTED:
            name = f"{modname}.{attr}"
            owner = mods[f"padicorder.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, hooks.get(name)))
                elif (modname, attr) in COUNTED:
                    wrapped = self._count(raw, name)
                else:
                    wrapped = self._wrap(raw, name, hooks.get(name))
                self._set(cls, meth, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, hooks.get(name))
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, fn, name, hook):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        self.counts.setdefault(name, 0)
        tr = self
        sn, sp, si, ss, se, stack = (
            self.span_name,
            self.span_parent,
            self.span_item,
            self.span_start,
            self.span_end,
            self.stack,
        )

        def wrapper(*args, **kwargs):
            idx = len(sn)
            sn.append(nid)
            sp.append(stack[-1] if stack else -1)
            si.append(tr.item)
            se.append(0.0)
            stack.append(idx)
            ss.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                se[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results ----------------------------------------------------------------

    def open_span_name(self) -> str | None:
        """Name of the innermost open span; inside a hook, the caller's."""
        return self.names[self.span_name[self.stack[-1]]] if self.stack else None

    def note(self, key: str, value):
        rec = self.notes.get(key)
        if rec is None:
            self.notes[key] = [value, 1, value, value]
        else:
            rec[0] += value
            rec[1] += 1
            rec[2] = min(rec[2], value)
            rec[3] = max(rec[3], value)

    def aggregate(self):
        """Per-name (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the time covered by its
        child spans; spans nest, so the children's durations add up.
        """
        n = len(self.span_name)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: [self.counts.get(name, 0), 0.0, 0.0] for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += dur[i] - child[i]
        for name, c in self.counts.items():
            out.setdefault(name, [c, 0.0, 0.0])
        return out

    def write_spans(self, path):
        """One CSV line per span: name,start,end,parent,item."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start,end,parent,item\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i},{self.names[self.span_name[i]]},{self.span_start[i] - t0:.9f},"
                    f"{self.span_end[i] - t0:.9f},{self.span_parent[i]},{self.span_item[i]}\n"
                )
