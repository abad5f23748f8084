"""Spans recorded around switchcap's layer boundaries, from outside the package.

``from .x import y`` binds ``y`` separately in every importing module, so a
wrapper is installed at each import site on the CLI path rather than once
at the definition.  Each call through a wrapper records one span: the site,
start and end (``perf_counter_ns``), the enclosing span, whether a
``SwitchCapError`` escaped, and a work count computed from the argument
shapes.  Spans stay in memory for the whole request and are written out
once at its end, with the request's identifier.

``summarize`` turns a span file into per-layer metrics.  A span's self time
is its duration minus the durations of its direct child spans (calls are
synchronous, so children never overlap).
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (module holding the binding, attribute, span name "<layer>.<function>")
SITES = (
    ("switchcap.cli", "main", "cli.main"),
    ("switchcap.cli", "apply_switch", "switch.apply_switch"),
    ("switchcap.cli", "build_switch_kraus", "switch.build_switch_kraus"),
    ("switchcap.cli", "holevo_oracle", "switch.holevo_oracle"),
    ("switchcap.cli", "check_completeness", "channels.check_completeness"),
    ("switchcap.cli", "weyl_basis", "channels.weyl_basis"),
    ("switchcap.cli", "holevo", "capacity.holevo"),
    ("switchcap.cli", "analytic_output_state", "capacity.analytic_output_state"),
    ("switchcap.switch", "hermitian_spectrum", "linalg.hermitian_spectrum"),
    ("switchcap.switch", "validate_density_matrix", "linalg.validate_density_matrix"),
    ("switchcap.switch", "von_neumann_entropy", "linalg.von_neumann_entropy"),
    ("switchcap.linalg", "hermitian_spectrum", "linalg.hermitian_spectrum"),
)
FUNCTIONS = tuple(dict.fromkeys(name for _, _, name in SITES))
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in FUNCTIONS))
STATS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"), ("errors", "count"))

# Per-layer metrics with their units.  Counts marked "computed" come from
# argument shapes, not from timing.
METRICS = {
    **{f"{fn}.{stat}": unit for fn in FUNCTIONS for stat, unit in STATS},
    "linalg.hermitian_spectrum.rows_cubed": "count",  # computed: sum of n^3
    "channels.check_completeness.operators": "count",  # computed: len(kraus)
    "switch.kraus_tuples": "count",  # computed: d^(2N) per switch entry call
    "switch.entry_calls": "count",
    "switch.oracle_states": "count",
    "cli.output_bytes": "bytes",  # computed: stdout plus files written
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.spans": "count",
    "trace.untraced_request_s": "s",
    "trace.traced_request_s": "s",
    "trace.overhead_share": "ratio",
}
COMPUTED = (
    "linalg.hermitian_spectrum.rows_cubed",
    "channels.check_completeness.operators",
    "switch.kraus_tuples",
    "cli.output_bytes",
)


def _rows_cubed(args: tuple) -> int:
    return int(np.shape(args[0])[0]) ** 3


def _operator_count(args: tuple) -> int:
    return len(args[0])


def _kraus_tuples(args: tuple) -> int:
    orders, basis = args[0], args[1]
    return basis.dim ** (2 * orders.n_channels)


WORK = {
    "linalg.hermitian_spectrum": _rows_cubed,
    "channels.check_completeness": _operator_count,
    "switch.apply_switch": _kraus_tuples,
    "switch.build_switch_kraus": _kraus_tuples,
    "switch.holevo_oracle": _kraus_tuples,
}


class Tracer:
    """In-memory span recorder for one request."""

    def __init__(self, request_id: int) -> None:
        self.request_id = request_id
        self.site = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.error = array("q")
        self._stack = [-1]

    def install(self) -> None:
        """Replace every site's binding with a recording wrapper."""
        from switchcap.errors import SwitchCapError

        for index, (module_name, attr, name) in enumerate(SITES):
            module = importlib.import_module(module_name)
            wrapped = self._wrap(index, getattr(module, attr), WORK.get(name), SwitchCapError)
            setattr(module, attr, wrapped)

    def _wrap(self, index, fn, work, error_type):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(self.site)
            self.site.append(index)
            self.parent.append(self._stack[-1])
            self.work.append(0)
            self.error.append(0)
            self.end.append(0)
            self._stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except error_type:
                self.error[span] = 1
                raise
            finally:
                self.end[span] = clock()
                self._stack.pop()
                if work is not None:
                    try:
                        self.work[span] = work(args)
                    except (AttributeError, IndexError, TypeError):
                        pass

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            request=np.int64(self.request_id),
            **{
                key: np.frombuffer(getattr(self, key), dtype=np.int64)
                for key in ("site", "parent", "start", "end", "work", "error")
            },
        )


def summarize(path) -> dict[str, float]:
    """Per-layer metrics of the one request whose spans are in ``path``."""
    with np.load(path) as spans:
        site, parent = spans["site"], spans["parent"]
        duration = (spans["end"] - spans["start"]) / 1e9
        work, error = spans["work"], spans["error"]
    n_fn = len(FUNCTIONS)
    fn = np.array([FUNCTIONS.index(name) for _, _, name in SITES], dtype=np.int64)[site]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(site))
    self_time = duration - covered

    calls = np.bincount(fn, minlength=n_fn)
    per_fn = {
        "calls": calls,
        "self_s": np.bincount(fn, weights=self_time, minlength=n_fn),
        "total_s": np.bincount(fn, weights=duration, minlength=n_fn),
        "errors": np.bincount(fn, weights=error, minlength=n_fn),
    }
    metrics = {
        f"{name}.{stat}": float(per_fn[stat][i])
        for i, name in enumerate(FUNCTIONS)
        for stat, _ in STATS
    }

    def of(name):
        return fn == FUNCTIONS.index(name)

    in_switch = np.isin(fn, [i for i, name in enumerate(FUNCTIONS) if name.startswith("switch.")])
    # Spectrum spans with a holevo_oracle span anywhere above them.
    is_oracle = of("switch.holevo_oracle")
    under_oracle = np.zeros(len(site), dtype=bool)
    ancestor = parent.copy()
    while (ancestor >= 0).any():
        live = ancestor >= 0
        under_oracle[live] |= is_oracle[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
    request_s = float(duration[of("cli.main")].sum())
    metrics.update(
        {
            "linalg.hermitian_spectrum.rows_cubed": float(work[of("linalg.hermitian_spectrum")].sum()),
            "channels.check_completeness.operators": float(work[of("channels.check_completeness")].sum()),
            "switch.kraus_tuples": float(work[in_switch].sum()),
            "switch.entry_calls": float(in_switch.sum()),
            "switch.oracle_states": float((of("linalg.hermitian_spectrum") & under_oracle).sum()),
            "trace.spans": float(len(site)),
        }
    )
    for layer in LAYERS:
        layer_self = sum(
            metrics[f"{name}.self_s"] for name in FUNCTIONS if name.startswith(layer + ".")
        )
        metrics[f"{layer}.self_s"] = layer_self
        metrics[f"{layer}.self_share"] = layer_self / request_s if request_s > 0 else 0.0
    return metrics


def site_calls(path) -> dict[tuple[str, str], int]:
    """Calls recorded at each import site, keyed by (module, attribute)."""
    with np.load(path) as spans:
        counts = np.bincount(spans["site"], minlength=len(SITES))
    return {(module, attr): int(c) for (module, attr, _), c in zip(SITES, counts)}
