"""Outside-in tracing of fracnls from the benchmark's own files.

``Tracer.install`` wraps the public functions the per-layer metrics name.  A
module binds an imported name at import time, so each function is replaced in
every ``fracnls`` module whose namespace holds it (``fracnls.ldp.solve_mild``
and ``fracnls.cli.solve_mild`` alike), and methods are replaced on their
class.  Each call records a span ``(name, start, end, parent)``; spans stay in
memory until the run ends, when :func:`layer_metrics` reduces them.

``numpy.fft`` calls are counted, not spanned: a span per FFT call would
multiply the tracing overhead of the Monte Carlo loop.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("fbm", "field", "noise", "solver", "ldp", "cli")

# (span name, module, attribute): a function, or "Class.method".
TRACED = (
    ("fbm.kernel_eval_grid", "fbm", "kernel_eval_grid"),
    ("fbm.duality_pairing", "fbm", "duality_pairing"),
    ("fbm.covariance_from_kernel", "fbm", "covariance_from_kernel"),
    ("fbm.sample_fbm_exact", "fbm", "sample_fbm_exact"),
    ("fbm.sample_fbm_fast", "fbm", "sample_fbm_fast"),
    ("fbm.replicate_stream", "fbm", "replicate_stream"),
    ("field.sobolev_norm", "field", "sobolev_norm"),
    ("field.mass", "field", "mass"),
    ("field.hamiltonian", "field", "hamiltonian"),
    ("noise.sample_mode_paths", "noise", "ConvolutionSampler.sample_mode_paths"),
    ("noise.apply", "noise", "DiscreteLOperator.apply"),
    ("noise.build_L", "noise", "build_L"),
    ("noise.build_Q", "noise", "build_Q"),
    ("solver.solve_mild", "solver", "solve_mild"),
    ("solver.solve_skeleton", "solver", "solve_skeleton"),
    ("ldp.event_occurred", "ldp", "LdpLab.event_occurred"),
    ("ldp.minimize_rate", "ldp", "LdpLab.minimize_rate"),
    ("ldp.pinv_terminal_rate", "ldp", "LdpLab.pinv_terminal_rate"),
    ("cli.write_field_csv", "cli", "write_field_csv"),
    ("cli.write_csv", "cli", "write_csv"),
    ("cli.write_json", "cli", "write_json"),
    ("cli.parse_config", "cli", "parse_config"),
    ("cli.run", "cli", "run"),
)

FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft")

RUNGS = 4

# Per-layer metrics in report order: (name, unit, better).
PER_LAYER = (
    [
        ("fbm.kernel_eval_grid.calls", "count", "lower"),
        ("fbm.kernel_eval_grid.self_s", "s", "lower"),
        ("fbm.duality_pairing.self_s", "s", "lower"),
        ("fbm.covariance_from_kernel.self_s", "s", "lower"),
        ("fbm.sample_fbm_exact.self_s", "s", "lower"),
        ("fbm.sample_fbm_fast.self_s", "s", "lower"),
        ("fbm.replicate_stream.calls", "count", "lower"),
        ("fbm.replicate_stream.self_s", "s", "lower"),
        ("field.fft.calls", "count", "lower"),
        ("field.sobolev_norm.calls", "count", "lower"),
        ("field.sobolev_norm.self_s", "s", "lower"),
        ("field.mass.self_s", "s", "lower"),
        ("field.hamiltonian.self_s", "s", "lower"),
        ("noise.sample_mode_paths.calls", "count", "lower"),
        ("noise.sample_mode_paths.self_s", "s", "lower"),
        ("noise.apply.calls", "count", "lower"),
        ("noise.build_L.self_s", "s", "lower"),
        ("noise.build_Q.self_s", "s", "lower"),
        ("solver.solve_mild.calls", "count", "lower"),
        ("solver.solve_mild.self_s", "s", "lower"),
        ("solver.solve_skeleton.calls", "count", "lower"),
        ("solver.solve_skeleton.self_s", "s", "lower"),
        ("solver.steps", "count", "lower"),
        ("solver.cemetery", "count", "lower"),
        ("ldp.event_occurred.calls", "count", "lower"),
        ("ldp.event_occurred.self_s", "s", "lower"),
        ("ldp.minimize_rate.self_s", "s", "lower"),
        ("ldp.minimize_rate.nfev", "count", "lower"),
        ("ldp.minimize_rate.feasible", "count", "higher"),
        ("ldp.pinv_terminal_rate.self_s", "s", "lower"),
    ]
    + [(f"ldp.hits_per_attempt.r{r}", "ratio", "higher") for r in range(RUNGS)]
    + [
        ("cli.write_field_csv.calls", "count", "lower"),
        ("cli.write_field_csv.self_s", "s", "lower"),
        ("cli.write_csv.self_s", "s", "lower"),
        ("cli.write_json.self_s", "s", "lower"),
        ("cli.parse_config.self_s", "s", "lower"),
    ]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

# Metrics that must repeat exactly between two traced runs of one config.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "ratio"))


class Tracer:
    """Span recorder for one traced process.

    ``spans`` holds ``(name, start, end, parent)`` per finished call, where
    ``parent`` indexes the enclosing span (-1 at the root) and times come from
    ``time.perf_counter``.  ``counts`` holds plain counters.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.rungs: defaultdict = defaultdict(lambda: [0, 0])  # eps -> [hits, attempts]
        self._open: list = []  # (span index, name) of the calls in progress
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1][0] if open_ else -1
            open_.append((idx, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def inside(self, name: str) -> bool:
        """Whether a call named ``name`` is in progress."""
        return any(n == name for _, n in self._open)

    def _after_solve_mild(self, args, traj):
        n_steps = len(traj.times) - 1
        self.counts["solver.steps"] += n_steps if traj.cemetery_index is None else traj.cemetery_index
        self.counts["solver.cemetery"] += int(traj.blown_up)

    def _after_event(self, args, occurred):
        if self.inside("ldp.minimize_rate"):
            return  # the optimizer's feasibility tests are not Monte Carlo attempts
        tally = self.rungs[args[1].epsilon]
        tally[0] += int(bool(occurred))
        tally[1] += 1

    def _after_minimize(self, args, res):
        self.counts["ldp.minimize_rate.nfev"] += res.nfev
        self.counts["ldp.minimize_rate.feasible"] += int(res.feasible)

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every function in :data:`TRACED` and count ``numpy.fft`` calls."""
        import numpy.fft

        mods = [importlib.import_module(f"fracnls.{m}") for m in MODULES]
        by_name = dict(zip(MODULES, mods))
        after = {
            "solver.solve_mild": self._after_solve_mild,
            "ldp.event_occurred": self._after_event,
            "ldp.minimize_rate": self._after_minimize,
        }
        for name, module, attr in TRACED:
            hook = after.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(by_name[module], cls_name)
                self._replace(cls, meth, self._wrap(name, cls.__dict__[meth], hook))
                continue
            original = getattr(by_name[module], attr)
            wrapped = self._wrap(name, original, hook)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
        for attr in FFT_FUNCTIONS:
            self._replace(numpy.fft, attr, self._counting(getattr(numpy.fft, attr)))

    def _counting(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["field.fft.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, ladder) -> dict[str, float]:
    """Per-layer values from one traced run (every :data:`PER_LAYER` name
    except the ``trace.*`` ones, which need an untraced run to compare)."""
    calls: defaultdict = defaultdict(int)
    self_s: defaultdict = defaultdict(float)
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        self_s[name] += own
        self_s[name.split(".", 1)[0]] += own
    values: dict[str, float] = {}
    for metric, unit, _ in PER_LAYER:
        base, _, leaf = metric.rpartition(".")
        if metric.startswith("trace."):
            continue
        if leaf == "calls" and metric != "field.fft.calls":
            values[metric] = calls[base]
        elif leaf == "self_s":
            values[metric] = self_s[base]
        elif base == "ldp.hits_per_attempt":
            rung = int(leaf[1:])
            hits, attempts = tracer.rungs[ladder[rung]] if rung < len(ladder) else (0, 0)
            values[metric] = hits / attempts if attempts else 0.0
        else:
            values[metric] = tracer.counts[metric]
    return values
