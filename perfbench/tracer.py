"""Outside-in tracing of x3y9z2's public functions.

Each traced function is wrapped once, and the wrapper is bound under
every name that any loaded ``x3y9z2`` module holds for the original.
That covers ``from .module import name`` imports (``pipeline.nf_nth_root``,
``chabauty.setup.curve_order_fq``, ...), package re-exports such as
``ec.torsion_over_Q``, and imports made inside function bodies, which read
the defining module's attribute at call time.  Methods are wrapped on
their class.  Nothing under ``src/`` is changed.

Self time is a call's duration minus the time spent in wrapped calls it
made; total time counts only the outermost call of a recursive chain.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

TIMED = "timed"            # calls, self_s, total_s
CALLS = "calls"            # call count only (hot inner functions)
YIELDS = "yields"          # number of items a generator yields

# (trace name, module, attribute or Class.method, kind)
TRACED = (
    ("dataio.load_descent_data", "x3y9z2.dataio", "load_descent_data", TIMED),
    ("dataio.DescentData.verify", "x3y9z2.dataio", "DescentData.verify", TIMED),
    ("dataio.load_mw_data", "x3y9z2.dataio", "load_mw_data", TIMED),
    ("dataio.load_tables", "x3y9z2.dataio", "load_tables", TIMED),
    ("dataio.data_hashes", "x3y9z2.dataio", "data_hashes", TIMED),
    ("descent.enumerate_delta", "x3y9z2.descent", "enumerate_delta", TIMED),
    ("descent.cubic_norm_filter", "x3y9z2.descent", "cubic_norm_filter", TIMED),
    ("descent.build_descent_forms", "x3y9z2.descent", "build_descent_forms", TIMED),
    ("local.is_locally_soluble", "x3y9z2.local", "is_locally_soluble", TIMED),
    ("local.jacobian_evals", "x3y9z2.local", "ProjectiveSystem.jacobian_entry", CALLS),
    ("arith.roots.nf_nth_root", "x3y9z2.arith.roots", "nf_nth_root", TIMED),
    ("arith.roots.small_primes", "x3y9z2.arith.roots", "small_primes", TIMED),
    ("arith.localfield.fq_elements", "x3y9z2.arith.localfield", "FqField.elements", YIELDS),
    ("ec.reduction.curve_order_fq", "x3y9z2.ec.reduction", "curve_order_fq", TIMED),
    ("ec.reduction.non_divisibility_sieve", "x3y9z2.ec.reduction",
     "non_divisibility_sieve", TIMED),
    ("ec.reduction.primes_above", "x3y9z2.ec.reduction", "primes_above", TIMED),
    ("verify.quotient_torsion", "x3y9z2.verify", "quotient_torsion", TIMED),
    ("ec.torsion.torsion_over_Q", "x3y9z2.ec.torsion", "torsion_over_Q", TIMED),
    ("chabauty.setup.chabauty_setup_for_row", "x3y9z2.chabauty.setup",
     "chabauty_setup_for_row", TIMED),
    ("chabauty.engine.rational_st_values", "x3y9z2.chabauty.engine",
     "rational_st_values", TIMED),
    ("chabauty.engine.certify_index_coprimality", "x3y9z2.chabauty.engine",
     "certify_index_coprimality", TIMED),
    ("chabauty.engine.residue_sieve", "x3y9z2.chabauty.engine", "residue_sieve", TIMED),
    ("chabauty.engine.ChabautyRun.run", "x3y9z2.chabauty.engine", "ChabautyRun.run", TIMED),
    ("chabauty.engine.prime_attempts", "x3y9z2.chabauty.engine", "ChabautyRun.__init__", CALLS),
    ("pipeline.brute_search", "x3y9z2.pipeline", "brute_search", TIMED),
    ("pipeline.run_lift_stage", "x3y9z2.pipeline", "run_lift_stage", TIMED),
)


def import_all():
    """Import every x3y9z2 module, so that every binding can be found."""
    import x3y9z2
    for info in pkgutil.walk_packages(x3y9z2.__path__, "x3y9z2."):
        importlib.import_module(info.name)


class Tracer:
    def __init__(self):
        self.stats = {}          # trace name -> {"calls", "self_s", "total_s"}
        self.counts = {}         # counter name -> int, or a one-item list cell
        self._stack = []         # time spent in wrapped children, per open call
        self._depth = {}         # trace name -> open calls (for total_s)

    def install(self):
        import_all()
        for name, module, attr, kind in TRACED:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, kind, getattr(cls, meth)))
            else:
                self._rebind(getattr(mod, attr), self._wrap(name, kind, getattr(mod, attr)))
        return self

    @staticmethod
    def _rebind(original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "x3y9z2" or mod_name.startswith("x3y9z2.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _wrap(self, name, kind, fn):
        if kind == CALLS:
            return self._counted(name, fn)
        if kind == YIELDS:
            return self._counted_yields(name, fn)
        return self._timed(name, fn, _OUTCOMES.get(name))

    def _timed(self, name, fn, on_result):
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        stack, depth, counts = self._stack, self._depth, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            level = depth.get(name, 0)
            depth[name] = level + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                own = elapsed - stack.pop()
                depth[name] = level
                if stack:
                    stack[-1] += elapsed
                stats["calls"] += 1
                stats["self_s"] += own
                if level == 0:
                    stats["total_s"] += elapsed
            if on_result is not None:
                on_result(counts, result, own)
            return result
        if hasattr(fn, "cache_clear"):      # lru_cache loaders: keep set_data_dir working
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _counted(self, name, fn):
        cell = [0]
        self.counts[name] = cell

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counted_yields(self, name, fn):
        cell = [0]
        self.counts[name] = cell

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item
        return wrapper

    def snapshot(self):
        counts = {k: (v[0] if isinstance(v, list) else v) for k, v in self.counts.items()}
        return {"stats": self.stats, "counts": counts}


def _bump(counts, key, amount=1):
    counts[key] = counts.get(key, 0) + amount


def _local_outcome(counts, verdict, own):
    # Self time split by verdict, so that a change which speeds refutations
    # at the cost of witness search shows in one of the two.
    if verdict.soluble:
        _bump(counts, "local.soluble")
        _bump(counts, "local.witness_s", own)
    else:
        _bump(counts, "local.refute_s", own)


def _root_outcome(counts, root, own):
    if root is not None:
        _bump(counts, "arith.roots.nf_nth_root.found")


_OUTCOMES = {
    "local.is_locally_soluble": _local_outcome,
    "arith.roots.nf_nth_root": _root_outcome,
}
