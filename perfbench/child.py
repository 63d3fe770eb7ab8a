"""One benchmark sample, in a fresh interpreter: what a CLI user pays.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory fracnls is imported from), ``runs`` (a list
of ``{"config": raw config, "out": output directory}``), ``trace`` and
``run``.  The child imports ``fracnls.cli``, validates every config with
``parse_config`` and, unless ``run`` is false, times ``run`` on each.  RESULT
receives the ``time.monotonic`` reading once set-up is done (the parent took
one just before starting this process), the elapsed time of the ``run``
calls, the peak resident set size and, when tracing, the per-layer values.

Untraced, the host-speed probes (``pace``) run from the start of ``main``.
RESULT then also holds the durations of the probes that ran during set-up
and during the ``run`` calls, by kind, which the parent uses to put both
times at the reference host speed.

Exit status 2 means fracnls could not be imported from ``src``.
"""

import json
import os
import resource
import sys
import time

from pace import Probe


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    probe = None if spec["trace"] else Probe()
    if probe is not None:
        probe.start()
    try:
        return _sample(spec, result_path, probe)
    finally:
        if probe is not None:
            probe.stop()


def _sample(spec: dict, result_path: str, probe) -> int:
    sys.path.insert(0, spec["src"])
    try:
        from fracnls import cli
    except ImportError as exc:
        print(f"cannot import fracnls from {spec['src']}: {exc}", file=sys.stderr)
        return 2
    if not cli.__file__.startswith(os.path.join(spec["src"], "fracnls", "")):
        print(f"fracnls imported from {cli.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    cfgs = [cli.parse_config(json.dumps(r["config"])) for r in spec["runs"]]
    setup_done = time.monotonic()
    result = {"setup_done": setup_done}
    if probe is not None:
        result["setup_probes"] = probe.close_window()

    errors = []
    start = time.perf_counter()
    if probe is not None:
        import numpy

        probe.open_window(numpy)
    for cfg, r in zip(cfgs, spec["runs"] if spec["run"] else []):
        try:
            cli.run(cfg, r["out"])
        except Exception as exc:  # the sample is reported failed; the benchmark goes on
            errors.append(f"{r['out']}: {type(exc).__name__}: {exc}")
    result["elapsed_s"] = time.perf_counter() - start
    if probe is not None:
        result["run_probes"] = probe.close_window()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["errors"] = errors
    if tracer is not None:
        tracer.uninstall()
        from spans import layer_metrics

        ladder = next((c["eps_ladder"] for c in cfgs if "eps_ladder" in c), [])
        result["layers"] = layer_metrics(tracer, ladder)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
