"""Run one CLI job in this process with spans around each layer's entry points.

Usage: python perfbench/traced.py RESULT_JSON JOB_ID ARG...

The ARGs go to elltree.cli.main unchanged.  Before the call, every
function named in TARGETS is replaced by a timing wrapper in each
elltree module that binds it, since several modules import names
directly.  Nothing in the package is edited.  Spans (name, start, end,
parent) stay in memory and are written to RESULT_JSON at the end,
together with the counters, the exit code and the sha256 of the bytes
the CLI wrote to stdout; the caller tags them with JOB_ID.

A target that the package no longer defines is skipped and listed under
"missing"; its metrics then read 0 and the coverage drops.
"""

import hashlib
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

# (module, attribute, span name); a dotted attribute is a method.
# Several functions may share a span name, which is then one layer.
TARGETS = [
    ("curve", "WeierstrassCurve.classify_all", "curve.classify_all"),
    ("tree", "build_domain", "tree.build_domain"),
    ("coefficients", "degree_zero_e2", "coefficients.degree_zero_e2"),
    ("coefficients", "symbolic_e2", "coefficients.symbolic_e2"),
    ("coefficients", "instantiate_tokens", "coefficients.instantiate_tokens"),
    ("coefficients", "concrete_e2", "coefficients.concrete_e2"),
    ("coefficients", "concrete_rhs", "coefficients.concrete_rhs"),
    ("coefficients", "measure_diagonal_reduction",
     "coefficients.measure_diagonal_reduction"),
    ("groups", "pgl2", "groups.construct"),
    ("groups", "cusp_group", "groups.construct"),
    ("groups", "quad_units_group", "groups.construct"),
    ("groups", "unit_group", "groups.construct"),
    ("groups", "additive_group", "groups.construct"),
    ("groups", "cyclic", "groups.construct"),
    ("groups", "additive_to_cusp", "groups.construct"),
    ("groups", "units_to_cusp", "groups.construct"),
    ("groups", "cusp_chain_inclusion", "groups.construct"),
    ("groups", "cusp_to_pgl2", "groups.construct"),
    ("groups", "diagonal_to_triangular", "groups.construct"),
    ("groups", "GroupHom.__init__", "groups.construct"),
    ("groups", "homology_presentation", "groups.homology_presentation"),
    ("groups", "induced_map", "groups.induced_map"),
    ("groups", "bar_homology", "groups.bar_homology"),
    ("abelian", "homology_at", "abelian.homology_at"),
    ("abelian", "_engine_for", "abelian.smith"),
    ("coefficients", "report_to_json_text", "cli.serialize"),
    ("curve", "ClassificationSummary.to_json", "cli.serialize"),
    ("cli", "_emit", "cli.serialize"),
]

# lru_cached functions whose hit and miss counts are read after the job
CACHES = {
    "coefficients.branch_cache": [("coefficients", "_symbolic_branch_e2"),
                                  ("coefficients", "_concrete_branch_e2")],
    "groups.bar_cache": [("groups", "_bar_data")],
}
# lru_cached builders of bar complexes, counted by generators built
BAR_BUILDERS = [("groups", "_bar_data"), ("groups", "_bar_invariants_large")]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.stack = []
        self.counters = {}
        self.refusals = []

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn, name, after=None):
        tracer = self
        groups_layer = name.startswith("groups.")

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None]
            tracer.spans.append(span)
            tracer.stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # a refusal counts once, in the groups function that raised it
                if (groups_layer and type(exc).__name__ == "TooLargeError"
                        and not any(r is exc for r in tracer.refusals)):
                    tracer.refusals.append(exc)
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper


def _modules():
    return {name[len("elltree."):]: mod for name, mod in sys.modules.items()
            if name.startswith("elltree.") and mod is not None}


def _rebind(modules, old, new):
    """Point every module-level binding of `old` at `new`."""
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer):
    modules = _modules()
    missing = []
    after = {
        "curve.classify_all": lambda r, a: tracer.count("curve.lines", len(r.lines)),
        "tree.build_domain": lambda r, a: tracer.count("tree.vertices", len(r.vertices)),
    }
    for mod_name, attr, span in TARGETS:
        mod = modules.get(mod_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, method, None)
        if fn is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = tracer.wrap(fn, span, after.get(span))
        if owner_name:
            setattr(owner, method, wrapped)
        else:
            _rebind(modules, fn, wrapped)

    engine = getattr(modules["abelian"], "_SmithEngine", None)
    if engine is None:
        missing.append("abelian._SmithEngine")
    else:
        init = engine.__init__

        def counted_init(self, row_dicts, nrows, ncols, *args, **kwargs):
            init(self, row_dicts, nrows, ncols, *args, **kwargs)
            tracer.count("abelian.smith.calls")
            tracer.count("abelian.smith.nnz_in", sum(len(r) for r in self.rows))
            cells = tracer.counters.get("abelian.smith.max_cells", 0)
            tracer.counters["abelian.smith.max_cells"] = max(cells, nrows * ncols)

        engine.__init__ = counted_init

    def cached(mod_name, attr):
        fn = getattr(modules.get(mod_name), attr, None)
        if fn is None or not hasattr(fn, "cache_info"):
            missing.append(f"{mod_name}.{attr}")
            return None
        return fn

    caches = {key: [fn for fn in (cached(*e) for e in entries) if fn]
              for key, entries in CACHES.items()}
    for entry in BAR_BUILDERS:
        fn = cached(*entry)
        if fn is not None:
            _rebind(modules, fn, _count_bar_generators(tracer, fn))
    return caches, missing


def _count_bar_generators(tracer, cached):
    """On a cache miss, add (|G|-1)^q: the size of the complex built."""

    def wrapper(group, q):
        misses = cached.cache_info().misses
        result = cached(group, q)
        if cached.cache_info().misses > misses:
            tracer.count("groups.bar_generators", max(group.order - 1, 0) ** q)
        return result

    wrapper.cache_info = cached.cache_info
    return wrapper


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def main(argv):
    out_path, job = argv[0], argv[1]
    cli_args = argv[2:]
    import elltree.cli as cli

    tracer = Tracer()
    caches, missing = install(tracer)
    stdout, stderr = io.StringIO(), io.StringIO()
    tracer.spans.append(["cli.main", 0.0, 0.0, None])
    tracer.stack.append(0)
    start = time.perf_counter()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        rc = cli.main(cli_args)
    end = time.perf_counter()
    tracer.spans[0][1:3] = [start, end]
    for key, fns in caches.items():
        infos = [fn.cache_info() for fn in fns]
        tracer.count(f"{key}.hits", sum(i.hits for i in infos))
        tracer.count(f"{key}.misses", sum(i.misses for i in infos))
    tracer.count("groups.refusals", len(tracer.refusals))
    report = stdout.getvalue().encode("utf-8")
    result = {
        "job": job,
        "exit": rc,
        "stdout_sha256": hashlib.sha256(report).hexdigest(),
        "stderr": stderr.getvalue(),
        "report_bytes": len(report),
        "wall_s": end - start,
        "missing": missing,
        "counters": tracer.counters,
        "spans": [[n, s - start, e - start, p] for n, s, e, p in tracer.spans],
        "self_s": self_times(tracer.spans),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
