"""In-memory span tracer around the public functions of todahess's layers.

`Tracer.install` replaces each traced function by a timing wrapper in every
loaded todahess module that holds it, so `gram.weighted_block` and
`spectra.weighted_block` (imported from gram) are both traced.  Spans (name,
start, end, parent, op id) and counts stay in memory until `metrics` or
`spans` reads them.  Untraced passes never construct a Tracer, so they run
no wrapper.
"""

from __future__ import annotations

import functools
import sys
import time

from todahess.errors import TodaHessError

#: (module, function) -> (layer, kind); a layer's time is the self time of its spans
TRACED = {
    ("gram", "weighted_block"): ("gram", "block"),
    ("spectra", "sym_eig"): ("spectra", "eig"),
    ("spectra", "soft_spectrum"): ("spectra", "soft"),
    ("spectra", "eigvec_alignment"): ("spectra", "soft"),
    ("spectra", "rank_one_remainder"): ("spectra", "soft"),
    ("continuation", "resonant_fit"): ("continuation", "fit"),
    ("continuation", "disc_density_rho"): ("continuation", "transport"),
    ("continuation", "sigma_cont"): ("continuation", "transport"),
    ("continuation", "gp_continue"): ("continuation", "transport"),
    ("continuation", "cut_trace"): ("continuation", "transport"),
    ("continuation", "transport"): ("continuation", "transport"),
    ("stieltjes", "moments"): ("stieltjes", "exact"),
    ("stieltjes", "jacobi_coefficients"): ("stieltjes", "exact"),
    ("stieltjes", "hankel_positivity"): ("stieltjes", "exact"),
    ("stieltjes", "perron_integrals"): ("stieltjes", "quad"),
    ("stieltjes", "weyl_function"): ("stieltjes", "quad"),
}
LAYERS = ("gram", "spectra", "continuation", "stieltjes")
#: the series kernel the numpy block path calls once per entry
SERIES_KERNEL = ("_kernels", "_gram_series_np")


class Tracer:
    def __init__(self):
        self.op = -1  # id of the workload op being run
        self._spans = []  # [name, start, end, parent index]
        self._ops = []
        self._stack = []
        self._block_keys = []
        self._series_terms = 0
        self._errors = dict.fromkeys(LAYERS, 0)
        self._restore = []  # (module, attribute, original)
        self.series_kernel_found = False

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for (mod_name, fn_name), (layer, _) in TRACED.items():
            fn = getattr(sys.modules[f"todahess.{mod_name}"], fn_name)
            self._replace(fn, self._span_wrapper(fn, f"{mod_name}.{fn_name}", layer))
        kmod = sys.modules.get(f"todahess.{SERIES_KERNEL[0]}")
        kernel = getattr(kmod, SERIES_KERNEL[1], None)
        if kernel is not None:
            self.series_kernel_found = True
            self._replace(kernel, self._terms_wrapper(kernel))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _replace(self, orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "todahess" or name.startswith("todahess.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _span_wrapper(self, fn, span_name, layer):
        is_block = span_name == "gram.weighted_block"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_block:
                self._block_keys.append(_block_key(*args, **kwargs))
            parent = self._stack[-1] if self._stack else -1
            idx = len(self._spans)
            span = [span_name, time.perf_counter(), None, parent]
            self._spans.append(span)
            self._ops.append(self.op)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except TodaHessError as exc:
                # Count each error once, in the layer that raised it.
                if not hasattr(exc, "_bench_layer"):
                    exc._bench_layer = layer
                    self._errors[layer] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _terms_wrapper(self, kernel):
        @functools.wraps(kernel)
        def wrapper(*args, **kwargs):
            out = kernel(*args, **kwargs)
            self._series_terms += int(out[1])
            return out

        return wrapper

    # -- read-out ---------------------------------------------------------

    def spans(self) -> list:
        return [
            {"name": n, "start": a, "end": b, "parent": p, "op": op}
            for (n, a, b, p), op in zip(self._spans, self._ops)
        ]

    def metrics(self, run_s: float) -> dict:
        """Per-layer metrics from the spans and counts of one traced pass."""
        self_s = [b - a for _, a, b, _ in self._spans]
        for _, a, b, parent in self._spans:
            if parent >= 0:
                self_s[parent] -= b - a
        kind_s, calls = {}, {}
        for (name, _, _, _), t in zip(self._spans, self_s):
            kind = TRACED[tuple(name.split("."))][1]
            kind_s[kind] = kind_s.get(kind, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
        n_blocks = len(self._block_keys)
        entries = sum(n * (n + 1) // 2 for *_, n in self._block_keys)
        block_s = kind_s.get("block", 0.0)
        out = {
            "trace.run_s": run_s,
            "gram.block_s": block_s,
            "gram.block_calls": n_blocks,
            "gram.block_unique_frac": len(set(self._block_keys)) / n_blocks if n_blocks else 0.0,
            "gram.entries": entries,
            "gram.entry_us": 1e6 * block_s / entries if entries else 0.0,
            # Reported as 0 when the numpy series kernel no longer exists.
            "gram.series_terms": self._series_terms,
            "spectra.eig_s": kind_s.get("eig", 0.0),
            "spectra.eig_calls": calls.get("spectra.sym_eig", 0),
            "spectra.soft_self_s": kind_s.get("soft", 0.0),
            "continuation.fit_s": kind_s.get("fit", 0.0),
            "continuation.fit_calls": calls.get("continuation.resonant_fit", 0),
            "continuation.transport_s": kind_s.get("transport", 0.0),
            "continuation.transport_calls": calls.get("continuation.transport", 0),
            "stieltjes.exact_s": kind_s.get("exact", 0.0),
            "stieltjes.quad_s": kind_s.get("quad", 0.0),
        }
        out.update({f"{layer}.errors": n for layer, n in self._errors.items()})
        return out


def _block_key(s, zeta, q, beta, n, tol=None):
    """(s, q, beta, zeta, N) of a weighted_block call; N stays last."""
    return (s, q, float(beta), float(zeta), n)
