"""Outside-in tracer for the cblocks layers.

The tracer replaces named functions and methods of the `cblocks` modules with
timing wrappers, at every binding site: the defining module, every module that
imported the function by name (for example `admissible` imports `classes_for`
from `logforms`) and the package namespace.  The program itself is not edited.

Each call becomes a span (id, parent, request, name, start, end); the request
is the instance being computed.  Self time is a span's duration minus the
time of its child spans; it is accumulated on the fly, so the per-layer
numbers do not depend on how many spans are kept.  Spans are kept in memory up
to `SPAN_CAP` and written out by `dump`.  Counters are taken at the same
boundaries, from arguments and return values.

A target whose module, class or function no longer exists is reported as
absent instead of failing, so the tracer survives later refactors.
"""

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "cblocks"
SPAN_CAP = 100_000


def _count_rows(tracer, name):
    """Pre-hook for stream consumers: count the rows pulled from argument 0."""
    def pre(args, kwargs):
        rows = args[0]

        def counted():
            for row in rows:
                tracer.counters[name] = tracer.counters.get(name, 0) + 1
                yield row

        return (counted(),) + tuple(args[1:]), kwargs
    return pre


def _post_constraint_rows(tracer, result):
    rows, basis = result
    tracer.bump("repspace.basis_size", len(basis))
    tracer.bump("repspace.constraint_rows", len(rows))


def _post_admissible(tracer, result):
    # only the with_stats=True form returns (functionals, per-stratum stats)
    if not (isinstance(result, tuple) and len(result) == 2):
        return
    for entry in result[1]:
        tracer.bump("admissible.strata", 1)
        tracer.bump("admissible.constraint_rows", entry.get("rows", 0))
        if entry.get("cutoff", -1) >= 0 and entry.get("rows", 0) == 0:
            tracer.bump("admissible.empty_strata", 1)


def _post_echelon_add(tracer, result):
    if result:
        tracer.bump("linalg.echelon_add.useful", 1)


def _post_certify(tracer, result):
    tracer.bump("degreelab.columns", result.get("columns", 0))


# (module, attribute path, span name, pre-hook factory, post-hook)
TARGETS = (
    ("roots", "build_root_system", "roots.build_root_system", None, None),
    ("repspace", "weight_zero_basis", "repspace.weight_zero_basis", None, None),
    ("repspace", "invariant_constraint_rows", "repspace.invariant_constraint_rows",
     None, _post_constraint_rows),
    ("repspace", "invariant_functionals", "repspace.invariant_functionals", None, None),
    ("blocks", "conformal_blocks", "blocks.conformal_blocks", None, None),
    ("linalg", "rref", "linalg.rref", None, None),
    ("linalg", "nullspace", "linalg.nullspace", None, None),
    ("linalg", "spans_equal", "linalg.spans_equal", None, None),
    ("linalg", "Echelon.add", "linalg.echelon_add", None, _post_echelon_add),
    ("linalg", "rank_mod_p", "linalg.rank_mod_p",
     lambda t: _count_rows(t, "linalg.rank_mod_p.rows"), None),
    ("ratfun", "RationalForm.__init__", "ratfun.RationalForm.init", None, None),
    ("ratfun", "RationalForm.__add__", "ratfun.RationalForm.add", None, None),
    ("ratfun", "RationalForm.residue_at_point", "ratfun.residue_at_point", None, None),
    ("ratfun", "divmod_linear", "ratfun.divmod_linear", None, None),
    ("logforms", "enumerate_marked_partitions", "logforms.enumerate_marked_partitions",
     None, None),
    ("logforms", "classes_for", "logforms.classes_for", None, None),
    ("logforms", "symmetrized_basis", "logforms.symmetrized_basis", None, None),
    ("logforms", "sv_map", "logforms.sv_map", None, None),
    ("logforms", "expand_in_basis", "logforms.expand_in_basis", None, None),
    ("admissible", "admissible_subspace", "admissible.admissible_subspace",
     None, _post_admissible),
    ("degreelab", "min_degree_certify", "degreelab.min_degree_certify",
     None, _post_certify),
    ("degreelab", "difference_square_decompose", "degreelab.difference_square_decompose",
     None, None),
)


class Tracer:
    """Spans, self times and counters of one process, collected in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.absent = []
        self.spans = []
        self.dropped = 0
        self.top_s = 0.0
        self.request = None  # the instance being computed; spans carry it
        self._stack = []
        self._next_id = 0
        self._undo = []

    def bump(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name, fn, pre, post):
        tracer = self
        clock = self.clock
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                if parent is None:
                    tracer.top_s += duration
                    parent_id = None
                else:
                    parent[0] += duration
                    parent_id = parent[1]
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (span_id, parent_id, tracer.request, name, start, end))
                else:
                    tracer.dropped += 1
            if post is not None:
                post(tracer, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target at every binding site; record missing ones."""
        for module_name, path, name, pre_factory, post in targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            pre = pre_factory(self) if pre_factory else None
            wrapper = self._wrap(name, original, pre, post)
            if inspect.isclass(owner):
                self._rebind(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        return self

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path, extra=None):
        """Write counters, per-name aggregates and the kept spans as JSON."""
        doc = {
            "calls": self.calls,
            "self_s": self.self_s,
            "counters": self.counters,
            "absent": self.absent,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "span_fields": ["id", "parent", "request", "name", "start", "end"],
            "spans": self.spans,
        }
        if extra:
            doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)
