"""forgesim benchmark: set-up and per-command times of the CLI on two workloads.

    python3 bench/run.py --workload {model,estimate} --seed N \
        --seconds S --trace {0,1}

Run from a checkout of the repository. Inputs are made from --seed by
bench/inputs.py. Each round runs the workload's whole command sequence
through forgesim.cli.main in a fresh interpreter (bench/child.py), then checks
every output table against bench/oracles.py. Rounds repeat until --seconds
have passed; every metric is the median over the run's samples. With
--trace 1 the rounds run with spans around the layers' public functions and
the per-layer metrics are printed instead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import inputs
import oracles
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

ROUND_TIMEOUT_S = 150

P0 = 2.0 / 3.0


@dataclass
class Op:
    phase: str  # end-to-end metric that this operation's time adds to
    argv: list[str]
    check: Callable[[Path], list[str]]  # output dir -> failure messages
    sample: str | None = None  # spans.SAMPLES entry a gof operation bootstraps


def model_ops(seed: int, made: dict, out: Path) -> list[Op]:
    """The simulator's slot path (alpha=1), its Fenwick path and the rate
    equations; nothing here reaches yule, gof or events."""
    sim = ["simulate", "--p0", repr(P0), "--jobs", "1", "--seed", str(seed)]
    return [
        Op("phase1_s", sim + ["--steps", "200000", "--replicas", "10", "--output-dir", str(out / "sim")],
           lambda o: oracles.check_simulate(o / "sim", P0, 200_000, 10, tv_bound=0.01)),
        Op("phase2_s", sim + ["--alpha", "1.5", "--steps", "300000", "--output-dir", str(out / "sim_nl")],
           lambda o: oracles.check_simulate(o / "sim_nl", P0, 300_000, 1, tv_bound=None)),
        Op("phase3_s", ["rateeq", "--p0", repr(P0), "--steps", "100000", "--output-dir", str(out / "rateeq")],
           lambda o: oracles.check_rateeq(o / "rateeq", P0, 100_000)),
    ]


def estimate_ops(seed: int, made: dict, out: Path) -> list[Op]:
    """The estimators on a forge log and on histogram files; nothing here
    reaches simulate or master.

    phase1 is the monthly sweep (analyze). phase2 is everything else on the
    log (both p0 series and the single-month fit/gof/em queries), each of
    which parses the whole log, so work moved from the sweep into parsing
    shows there. phase3 is the MLE path shared by fit, gof and em on
    histogram files; it parses no log. The bootstraps run on a heavy-tailed
    null, a light-tailed alternative, one large sample and the log's month;
    phase3 pools the first three, and the traced run reports the MLE,
    sampling and replica rates of each sample apart.
    """
    events = str(made["events"]["path"])
    tally = oracles.interval_tally(made["events"]["records"])
    off = inputs.MONTH_OFFSET
    month = int(tally["months"][-10])  # a late month: 110 of 120
    sizes, counts = oracles.size_histogram(tally, month)
    at = ["--month", str(month + off)]

    def hist(name):
        return made[name]["sizes"], made[name]["counts"]

    def gof(name, b, reject, sample):
        return Op("phase3_s", ["gof", str(made[name]["path"]), "--bootstrap", str(b), "--seed", str(seed),
                               "--jobs", "1", "--output-dir", str(out / f"gof_{name}")],
                  lambda o: oracles.check_gof(o / f"gof_{name}" / "gof.csv", *hist(name), reject), sample)

    def em(name, truth=None):
        return Op("phase3_s", ["em", str(made[name]["path"]), "--output-dir", str(out / f"em_{name}")],
                  lambda o: oracles.check_em(o / f"em_{name}" / "em.csv", *hist(name), truth))

    return [
        Op("phase1_s", ["analyze", events, "--output-dir", str(out / "analyze")],
           lambda o: oracles.check_analyze(o / "analyze", tally, off)),
        Op("phase2_s", ["p0", events, "--output-dir", str(out / "p0")],
           lambda o: oracles.check_p0(o / "p0" / "p0.csv", tally, off, collaborative=False)),
        Op("phase2_s", ["p0", events, "--variant", "collaborative", "--output-dir", str(out / "p0c")],
           lambda o: oracles.check_p0(o / "p0c" / "p0.csv", tally, off, collaborative=True)),
        Op("phase2_s", ["fit", events, *at, "--output-dir", str(out / "fit_month")],
           lambda o: oracles.check_fit(o / "fit_month" / "fit.csv", sizes, counts)),
        Op("phase2_s", ["gof", events, *at, "--bootstrap", "200", "--seed", str(seed), "--jobs", "1",
                        "--output-dir", str(out / "gof_month")],
           lambda o: oracles.check_gof(o / "gof_month" / "gof.csv", sizes, counts, expect_reject=False),
           "month"),
        Op("phase2_s", ["em", events, *at, "--output-dir", str(out / "em_month")],
           lambda o: oracles.check_em(o / "em_month" / "em.csv", sizes, counts)),
        Op("phase3_s", ["fit", str(made["yule"]["path"]), "--output-dir", str(out / "fit")],
           lambda o: oracles.check_fit(o / "fit" / "fit.csv", *hist("yule"))),
        gof("yule", 500, reject=False, sample="null"),
        em("yule"),
        gof("geometric", 500, reject=True, sample="alternative"),
        gof("yule_large", 100, reject=False, sample="large"),
        em("inflated", made["inflated"]["true_singletons"]),
    ]


WORKLOADS = {"model": model_ops, "estimate": estimate_ops}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
              "phase1_s": "s", "phase2_s": "s", "phase3_s": "s"}


def run_child(ops: list[Op], work: Path, trace: bool, tag: str) -> dict:
    spec = work / f"{tag}.spec.json"
    result = work / f"{tag}.result.json"
    spec.write_text(json.dumps({"ops": [op.argv for op in ops], "samples": [op.sample for op in ops],
                                "trace": trace,
                                "spans": str(work / f"{tag}.spans.json")}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(CHILD), str(spec), str(result)], cwd=ROOT, env=env,
                   check=True, timeout=ROUND_TIMEOUT_S, stdin=subprocess.DEVNULL)
    return json.loads(result.read_text(encoding="utf-8"))


def verify(op: Op, out: Path) -> list[str]:
    """The op's check messages; a check that raises is one message too."""
    try:
        return op.check(out)
    except Exception as exc:  # a missing or unreadable table is a wrong output
        return [f"{' '.join(op.argv[:2])}: check raised {type(exc).__name__}: {exc}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "forgesim" / "cli.py").is_file():
        print(f"bench: no forgesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    made = inputs.make_inputs(args.workload, args.seed, work / "inputs")
    out = work / "out"
    ops = WORKLOADS[args.workload](args.seed, made, out)

    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    layers: dict[str, list[float]] = {}
    attempted = failed = 0
    wrong: list[str] = []
    start = time.monotonic()
    rounds, last = 0, 0.0
    # a round starts only if one more as long as the last still ends in time
    while rounds == 0 or time.monotonic() - start + last <= args.seconds:
        began = time.monotonic()
        shutil.rmtree(out, ignore_errors=True)
        res = run_child(ops, work, bool(args.trace), f"round{rounds}")
        rounds += 1
        samples["setup_s"].append(res["setup_s"])
        phases = dict.fromkeys(("phase1_s", "phase2_s", "phase3_s"), 0.0)
        for op, r in zip(ops, res["ops"]):
            attempted += 1
            phases[op.phase] += r["seconds"]
            if r["code"] != 0:
                failed += 1
                print(f"FAILED: {op.argv[0]} exited {r['code']} {r['error'] or ''}", file=sys.stderr)
                continue
            problems = verify(op, out)
            if problems:
                failed += 1
                wrong.extend(problems)
        for name, value in phases.items():
            samples[name].append(value)
        samples["wall_s"].append(res["wall_s"])
        samples["peak_rss_mib"].append(res["peak_rss_mib"])
        for name, value in res.get("layers", {}).items():
            layers.setdefault(name, []).append(value)
        last = time.monotonic() - began

    for message in wrong:
        print(f"WRONG OUTPUT: {message}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": statistics.median(layers[name]), "unit": unit}
                   for name, unit in spans.LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": statistics.median(v), "unit": END_TO_END[name]}
                   for name, v in samples.items()}
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
          f"trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
