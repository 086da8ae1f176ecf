"""One round of a workload in a fresh interpreter, as a CLI user runs it.

    python3 bench/child.py SPEC.json RESULT.json

SPEC holds {"ops": [argv, ...], "samples": [sample tag or null, ...],
"trace": bool, "spans": path}. The
round first times the program's set-up (importing forgesim.cli until it has
parsed an argument list), then calls forgesim.cli.main on each argv in turn
and writes per-operation times, exit codes, peak resident memory and, when
traced, the per-layer metrics to RESULT.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def setup():
    """Import forgesim.cli and parse one argument list; return (module, seconds)."""
    t0 = time.perf_counter()
    import forgesim.cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            forgesim.cli.main(["--version"])
        except SystemExit:
            pass
    return forgesim.cli, time.perf_counter() - t0


def main() -> None:
    cli, setup_s = setup()
    modules_loaded = len(sys.modules)
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    ops = []
    wall0 = time.perf_counter()
    for index, argv in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = index
        error = None
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an escaped error fails this operation, not the round
            code, error = -1, traceback.format_exc()
        ops.append({"seconds": time.perf_counter() - t0, "code": code, "error": error})
    wall = time.perf_counter() - wall0
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, modules_loaded, spec["samples"])
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
