"""Spans recorded from outside the program, around calls into its layers.

The tracer replaces a layer's public functions with timing wrappers in
every `hillwalk` module that binds them (modules import each other's
functions by name, so patching one module would miss the others), and
restores the originals when the traced round ends.  Untraced rounds run
the unmodified functions.

Each span holds an operation id, its name, start, end, parent span, self
time (duration minus the time its child spans cover) and one counter whose
meaning depends on the layer.  Spans stay in memory until the run ends.
`numerics` is called millions of times per verdict and is not wrapped; its
cost lands in the callers' self time and in `numerics.result_bits`.
"""

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time

# span name -> (module, public functions); the benchmark's layer map
LAYERS = {
    "walks.shell_sum": ("walks", ("shell_sum",)),
    "walks.enumerate_closed": ("walks", ("enumerate_closed",)),
    "walks.weight": ("walks", ("weight",)),
    "beta": ("beta", ("beta_plus", "beta_minus", "alpha_n")),
    "spectra.assemble": ("spectra", ("assemble",)),
    "spectra.eigenvalues": ("spectra", ("eigenvalues",)),
    "spectra.localize": (
        "spectra", ("find_working_N", "localize_pairs", "attach_dirichlet", "dirichlet_close")),
    "spectra.refine": ("spectra", ("refined_pair", "refined_dirichlet")),
    "criteria": ("criteria", (
        "criterion1_verdict", "theorem31_report", "theorem5_report",
        "prop20_verdict", "concordance_report")),
    "verify": ("verify", ("run_verify",)),
    "cli": ("cli", ("main",)),
}


def _result_bits(value) -> int:
    """Largest numerator/denominator bit length of an exact Gaussian rational."""
    return max(x.bit_length() for part in (value.re, value.im)
               for x in (part.numerator, part.denominator))


def _counter(name, fn):
    """Per-span counter extractor for the layers that report one."""
    if name == "walks.enumerate_closed":
        return lambda args, kwargs, result: len(result)
    if name == "beta":
        return lambda args, kwargs, result: _result_bits(result.value)
    if name == "criteria":
        return lambda args, kwargs, result: len(result.rows)
    if name == "spectra.assemble":
        sig = inspect.signature(fn)

        def key(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            return (bound.arguments["pot"], str(bound.arguments["bc"]), bound.arguments["K"])
        return key
    return None


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.spans = []  # (op, name, start, end, parent, self_s, counter)
        self._stack = []  # [span index, time covered by children]
        self.op = 0

    def _wrap(self, name, fn):
        counter = _counter(name, fn)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                extra = counter(args, kwargs, result) if counter and result is not None else None
                spans[index] = (self.op, name, start, end, parent, end - start - frame[1], extra)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every layer function for the duration."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hillwalk" or key.startswith("hillwalk.")]
        patches = []
        for name, (module, functions) in LAYERS.items():
            home = sys.modules["hillwalk." + module]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def layer_figures(self, ops) -> dict:
        """Per-layer totals over the spans of the given operation ids."""
        ops = set(ops)
        calls, self_s, extras = {}, {}, {}
        for op, name, _, _, _, own, extra in self.spans:
            if op not in ops:
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if extra is not None:
                extras.setdefault(name, []).append(extra)
        assemble_calls = calls.get("spectra.assemble", 0)
        return {
            "walks.shell_sum.calls": calls.get("walks.shell_sum", 0),
            "walks.shell_sum.self_s": self_s.get("walks.shell_sum", 0.0),
            "walks.enumerate_closed.walks": sum(extras.get("walks.enumerate_closed", [])),
            "walks.enumerate_closed.self_s": self_s.get("walks.enumerate_closed", 0.0),
            "walks.weight.self_s": self_s.get("walks.weight", 0.0),
            "beta.calls": calls.get("beta", 0),
            "beta.self_s": self_s.get("beta", 0.0),
            "numerics.result_bits": max(extras.get("beta", [0])),
            "spectra.assemble.calls": assemble_calls,
            "spectra.assemble.self_s": self_s.get("spectra.assemble", 0.0),
            "spectra.assemble.useful_ratio": (
                len(set(extras.get("spectra.assemble", []))) / assemble_calls
                if assemble_calls else 0.0),
            "spectra.eigenvalues.self_s": self_s.get("spectra.eigenvalues", 0.0),
            "spectra.localize.self_s": self_s.get("spectra.localize", 0.0),
            "spectra.refine.calls": calls.get("spectra.refine", 0),
            "spectra.refine.self_s": self_s.get("spectra.refine", 0.0),
            "criteria.rows": sum(extras.get("criteria", [])),
            "criteria.self_s": self_s.get("criteria", 0.0),
            "verify.self_s": self_s.get("verify", 0.0),
            "cli.self_s": self_s.get("cli", 0.0),
        }

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for op, name, start, end, parent, own, extra in self.spans:
                fh.write(json.dumps({
                    "op": op, "name": name, "start": start, "end": end,
                    "parent": parent, "self_s": own,
                    "counter": extra if isinstance(extra, int) else None,
                }) + "\n")


def median_figures(rounds) -> dict:
    """Median of each per-round figure over the traced rounds."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
