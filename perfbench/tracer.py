"""Spans around the calls into each bqf layer, recorded from outside.

Nothing in bqf changes.  While a Tracer is installed, every name a bqf
module imported from another layer (``bqf.matrices.enumerate_interval``,
``bqf.stats.qf_cumulant_iid``, ``bqf.measure.omega_moment``, the module
aliases ``bqf.cli.mx`` and friends) is rebound to a wrapper that records a
span: layer, function, calling module, start, end, parent span and op id.
The benchmark reaches the library through the same kind of proxies, so
every call that crosses a layer boundary is seen.  Calls inside one
module (``omega_moment`` -> ``trace_J_power``) stay unwrapped: they are
part of that layer's own time.

Spans stay in memory; ``restore`` puts the original names back.  Counters
that need the results (partitions visited, bit lengths) are taken after a
span ends, and that bookkeeping time is charged to no layer.
"""

import inspect
import json
import types
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("partitions", "cumulants", "matrices", "series", "stats", "measure", "cli")

# Span record fields.
LAYER, NAME, CALLER, START, END, PARENT, OP, OVERHEAD = range(8)


def public_functions(module) -> dict:
    """The functions a layer module defines and exports."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def bits(value) -> int:
    """The largest numerator or denominator bit length inside a result."""
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value).bit_length()
    if isinstance(value, (list, tuple)):
        return max((bits(v) for v in value), default=0)
    for attr in ("re", "value", "values", "coeffs"):
        if hasattr(value, attr):
            out = bits(getattr(value, attr))
            if attr == "re":
                out = max(out, bits(value.im))
            return out
    return 0


class _Proxy:
    """A layer module seen through wrappers for its public functions."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self._wrapped = wrapped

    def __getattr__(self, name):
        if name in self._wrapped:
            return self._wrapped[name]
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1  # id of the op in progress, counted up per op
        self._stack = []
        self._saved = []
        self.visited = 0
        self.max_bits = Counter()
        self.qf_calls = Counter()  # (cumulant values, r, n) -> calls
        self.trace_matvecs = 0
        self.trace_entry_products = 0

    # ------------------------------------------------------------ install

    def install(self, modules: dict):
        """Rebind cross-layer names in every bqf module; return the proxies
        the benchmark should call through, keyed by layer."""
        funcs = {layer: public_functions(modules[layer]) for layer in LAYERS}
        owner = {}
        for layer, table in funcs.items():
            for fn in table.values():
                owner[id(fn)] = layer
        module_layer = {id(modules[layer]): layer for layer in LAYERS}

        def proxy(layer, caller):
            wrapped = {
                name: self._wrap(layer, name, fn, caller)
                for name, fn in funcs[layer].items()
            }
            return _Proxy(modules[layer], wrapped)

        for caller in LAYERS:
            mod = modules[caller]
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.ModuleType):
                    target = module_layer.get(id(obj))
                    if target is not None and target != caller:
                        self._rebind(mod, name, proxy(target, caller))
                elif inspect.isfunction(obj):
                    target = owner.get(id(obj))
                    if target is not None and target != caller:
                        self._rebind(mod, name, self._wrap(target, name, obj, caller))
        return {layer: proxy(layer, "harness") for layer in LAYERS}

    def _rebind(self, mod, name, value):
        self._saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, value)

    def restore(self):
        while self._saved:
            mod, name, original = self._saved.pop()
            setattr(mod, name, original)

    def _wrap(self, layer, name, fn, caller):
        spans = self.spans
        stack = self._stack
        hook = getattr(self, f"_after_{layer}_{name}", None)
        count_bits = layer in ("matrices", "cumulants")

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            parent = stack[-1] if stack else -1
            rec = [layer, name, caller, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            if count_bits:
                b = bits(result)
                if b > self.max_bits[layer]:
                    self.max_bits[layer] = b
            if parent >= 0:
                spans[parent][OVERHEAD] += (rec[START] - enter) + (perf_counter() - rec[END])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------------- hooks

    def _after_partitions_enumerate_interval(self, args, result):
        self.visited += len(result)

    def _after_matrices_qf_cumulant_iid(self, args, result):
        a, seq, r = args[:3]
        self.qf_calls[(tuple(seq.values[: 2 * r]), r, a.n)] += 1

    def _after_matrices_omega_moment(self, args, result):
        a, m = args[:2]
        self.trace_matvecs += m
        self.trace_entry_products += m * a.n * a.n

    _after_matrices_h_series_qf = _after_matrices_omega_moment

    # ----------------------------------------------------------- summary

    def self_times(self) -> Counter:
        """Busy time per layer: each span minus its child spans and the
        wrapper bookkeeping charged to it."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = Counter()
        for i, rec in enumerate(self.spans):
            out[rec[LAYER]] += rec[END] - rec[START] - child[i] - rec[OVERHEAD]
        return out

    def time_in(self, layer: str, name: str, caller: str) -> float:
        return sum(
            rec[END] - rec[START]
            for rec in self.spans
            if rec[LAYER] == layer and rec[NAME] == name and rec[CALLER] == caller
        )

    def calls(self) -> Counter:
        return Counter(rec[LAYER] for rec in self.spans)

    def partition_counts(self, partitions, cumulants):
        """Visited and useful partitions, and the matvecs they imply, for the
        recorded qf_cumulant_iid calls.  Uses only public functions and runs
        after the timed phases."""
        visited = useful = matvecs = entry_products = 0
        for (values, r, n), times in self.qf_calls.items():
            seq = cumulants.CumulantSequence(values)
            for pi in partitions.enumerate_interval(r + 1):
                visited += times
                weight = 1
                for size in partitions.lift_matching(pi).block_sizes():
                    weight = weight * seq.k(size)
                if weight:
                    useful += times
                    matvecs += times * (pi.num_blocks - 1)
                    entry_products += times * (pi.num_blocks - 1) * n * n
        return visited, useful, matvecs, entry_products

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "layer": rec[LAYER],
                            "name": rec[NAME],
                            "caller": rec[CALLER],
                            "start": rec[START],
                            "end": rec[END],
                            "parent": rec[PARENT],
                            "op": rec[OP],
                        }
                    )
                    + "\n"
                )
