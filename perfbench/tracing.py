"""Span tracing of the localchar layers, installed from outside the package.

`Tracer.install` replaces the functions and methods named in LAYERS with
wrappers that record one span (name, start, end, parent) per call.  Module
functions are replaced in every localchar module that binds them, so calls
through `from .x import f` names are traced too; methods are replaced on
their class.  Spans are kept in flat arrays while the workload runs and are
written out as one .npz file afterwards.  A layer's self time is its spans'
duration minus the time covered by their child spans.

Wrappers exist only in traced processes: the untraced run never imports this
module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, class or None, attribute, end-to-end metric and
# workload the layer's numbers should move).  The prefix is the module name
# plus the public name; CycNumber.mul and ScaledCyc.eq are the operators.
LAYERS = [
    ("cyclotomic.CycNumber.mul", "cyclotomic", "CycNumber", "__mul__",
     "throughput_per_s on rank1_twists and oracle_consistency"),
    ("cyclotomic.CycNumber.from_root_sum", "cyclotomic", "CycNumber",
     "from_root_sum",
     "throughput_per_s on rank1_twists and oracle_consistency"),
    ("cyclotomic.ScaledCyc.eq", "cyclotomic", "ScaledCyc", "__eq__",
     "throughput_per_s on rank1_twists and oracle_consistency"),
    ("localfield.log_principal", "localfield", "TowerField", "log_principal",
     "throughput_per_s on rank1_twists"),
    ("localfield.exp_principal", "localfield", "TowerField", "exp_principal",
     "throughput_per_s on rank1_twists"),
    ("localfield.teichmuller", "localfield", "TowerField", "teichmuller",
     "throughput_per_s on coset_products"),
    ("localfield.TowerElement.inv", "localfield", "TowerElement", "inv",
     "throughput_per_s on rank1_twists"),
    ("characters.MulChar.eval", "characters", "MulChar", "eval",
     "throughput_per_s on rank1_twists; none on coset_products"),
    ("characters.AddChar.eval", "characters", "AddChar", "eval",
     "throughput_per_s on rank1_twists; none on coset_products"),
    ("characters.MulChar.c_rep", "characters", "MulChar", "c_rep",
     "throughput_per_s on rank1_twists; none on coset_products"),
    ("characters.MulChar.conductor", "characters", "MulChar", "conductor",
     "throughput_per_s on rank1_twists; none on coset_products"),
    ("characters.pullback", "characters", None, "pullback",
     "throughput_per_s on rank1_twists; none on coset_products"),
    ("characters.is_admissible", "characters", None, "is_admissible",
     "throughput_per_s on coset_products"),
    ("converse.transport_char", "converse", None, "transport_char",
     "throughput_per_s on coset_products"),
    ("converse.iter_twist_pairs", "converse", None, "iter_twist_pairs",
     "throughput_per_s on coset_products"),
    ("embeddings.Subfield.norm", "embeddings", "Subfield", "norm",
     "throughput_per_s on coset_products, and its recorded p50 latency"),
    ("embeddings.Subfield.charpoly", "embeddings", "Subfield", "charpoly",
     "throughput_per_s on coset_products, and its recorded p50 latency"),
    ("embeddings.EmbeddingMap.apply", "embeddings", "EmbeddingMap", "apply",
     "throughput_per_s on coset_products, and its recorded p50 latency"),
    ("zmodpk.charpoly_berkowitz", "zmodpk", None, "charpoly_berkowitz",
     "throughput_per_s on coset_products, and its recorded p50 latency"),
    ("ambient.compositum_abstract", "ambient", None, "compositum_abstract",
     "setup_s on coset_products, and its recorded p99 latency"),
    ("epsilon.gauss_sum", "epsilon", None, "gauss_sum",
     "throughput_per_s on rank1_twists"),
    ("epsilon.epsilon_factor", "epsilon", None, "epsilon_factor",
     "throughput_per_s on rank1_twists"),
    ("oracle.oracle_sum", "oracle", None, "oracle_sum",
     "throughput_per_s and peak_rss_mb on oracle_consistency"),
]

# (metric, module, lru_cache-wrapped function) read through cache_info().
CACHES = [
    ("characters.make_psi.hit_ratio", "characters", "make_psi"),
    ("characters.subfield_lattice.hit_ratio", "characters", "subfield_lattice"),
    ("ambient.build_ambient.hit_ratio", "ambient", "build_ambient"),
    ("ambient.compositum_abstract.hit_ratio", "ambient", "compositum_abstract"),
]

DERIVED = ["converse.catalog.yield_ratio", "oracle.terms", "oracle.terms_per_s"]


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for prefix, *_ in LAYERS:
        names += [prefix + ".calls", prefix + ".self_s"]
    return names + [m for m, _, _ in CACHES] + DERIVED


def _module(name):
    return importlib.import_module("localchar." + name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.oracle_terms = 0
        self.catalog_yields = 0
        self._cache0 = {}

    def _open(self, nid):
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, nid, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _wrap_generator(self, nid, fn):
        """One span per item produced: the generator's own work between
        yields, excluding what the consumer does with the item."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.catalog_yields += 1
                yield item
        return wrapper

    def _wrap_oracle(self, nid, fn, conductor):
        traced = self._wrap(nid, fn)

        @functools.wraps(fn)
        def wrapper(chi, *args, **kwargs):
            out = traced(chi, *args, **kwargs)
            q = chi.field.q
            self.oracle_terms += q ** (max(1, conductor(chi)) - 1) * (q - 1)
            return out
        return wrapper

    def install(self):
        """Replace every LAYERS target; snapshot the cache counters so hit
        ratios cover only what runs after installation."""
        mods = [m for n, m in sys.modules.items()
                if n == "localchar" or n.startswith("localchar.")]
        conductor = _module("characters").MulChar.conductor
        for prefix, modname, clsname, attr, _ in LAYERS:
            nid = len(self.names)
            self.names.append(prefix)
            owner = _module(modname)
            if clsname is None:
                orig = getattr(owner, attr)
                if attr == "iter_twist_pairs":
                    new = self._wrap_generator(nid, orig)
                elif attr == "oracle_sum":
                    new = self._wrap_oracle(nid, orig, conductor)
                else:
                    new = self._wrap(nid, orig)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, new)
                continue
            cls = getattr(owner, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(nid, raw.__func__)))
                continue
            new = self._wrap(nid, raw)
            for key, val in list(vars(cls).items()):
                if val is raw:  # aliases such as __rmul__ = __mul__
                    setattr(cls, key, new)
        for metric, modname, attr in CACHES:
            self._cache0[metric] = self._cache_fn(modname, attr).cache_info()

    def _cache_fn(self, modname, attr):
        fn = getattr(_module(modname), attr)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        return fn

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since install()."""
        nid = np.frombuffer(self.name_of, dtype=np.uint16).astype(np.int64)
        par = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(dur)
        inner = par >= 0
        np.add.at(covered, par[inner], dur[inner])
        width = len(self.names)
        self_s = np.bincount(nid, weights=dur - covered, minlength=width)
        calls = np.bincount(nid, minlength=width)
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = int(calls[i])
            out[name + ".self_s"] = float(self_s[i])
        for metric, modname, attr in CACHES:
            info = self._cache_fn(modname, attr).cache_info()
            hits = info.hits - self._cache0[metric].hits
            misses = info.misses - self._cache0[metric].misses
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        cat = self.names.index("converse.iter_twist_pairs")
        adm = self.names.index("characters.is_admissible")
        from_catalog = int(np.count_nonzero((nid == adm) & inner
                                            & (nid[np.maximum(par, 0)] == cat)))
        out["converse.catalog.yield_ratio"] = (
            self.catalog_yields / from_catalog if from_catalog else 0.0)
        orc_s = out["oracle.oracle_sum.self_s"]
        out["oracle.terms"] = self.oracle_terms
        out["oracle.terms_per_s"] = self.oracle_terms / orc_s if orc_s else 0.0
        return out

    def dump(self, path):
        """Write the spans: names, and per span its name index, parent span
        index (-1 at top level), start and end in perf_counter seconds."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_of, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
